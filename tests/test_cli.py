from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from tricrit import cli
from tricrit.cli import main
from tricrit.coloring import ListSystem, lists_to_json
from tricrit.families import gen_Gr, gen_Hr
from tricrit.graphs import Graph, cycle_graph, write_graph6
from tricrit.propagation import P6_REFERENCE_COUNTS

from oracles import complete_graph


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def write_instance(tmp_path, g, lists=None, stem="g"):
    gpath = tmp_path / f"{stem}.g6"
    gpath.write_text(write_graph6(g) + "\n")
    if lists is None:
        return str(gpath), None
    lpath = tmp_path / f"{stem}.lists.json"
    lpath.write_text(json.dumps(lists_to_json(lists)))
    return str(gpath), str(lpath)


def test_enumerate_table(capsys):
    rc, out, err = run(capsys, "enumerate", "--forbidden", "P6", "--max-n", "5")
    assert rc == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "1\t1"
    assert lines[4] == "5\t86"
    assert lines[-1] == "max_length\t5"


def test_enumerate_json_and_jobs(capsys):
    rc, out, _ = run(
        capsys, "enumerate", "--forbidden", "P6", "--max-n", "8", "--jobs", "2",
        "--format", "json",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["counts"] == list(P6_REFERENCE_COUNTS[:8])
    assert data["max_length"] == 8


def test_enumerate_emit_file(capsys, tmp_path):
    out_file = tmp_path / "stream.txt"
    rc, _, _ = run(
        capsys, "enumerate", "--forbidden", "P6", "--max-n", "4", "--emit", str(out_file)
    )
    assert rc == 0
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 31
    assert lines == sorted(lines)


def test_enumerate_unwritable_emit_fails_before_search(capsys, search_calls, tmp_path):
    bad = str(tmp_path / "missing" / "dir" / "x.txt")
    rc, out, err = run(capsys, "enumerate", "--forbidden", "P6", "--max-n", "25", "--emit", bad)
    assert rc == 2 and out == "" and search_calls == []
    assert err.startswith("error: ") and bad in err and err.count("\n") == 1


def test_enumerate_unusable_temp_dir_fails_before_search(
    capsys, monkeypatch, search_calls, tmp_path
):
    # --emit holds its lines in temporary files until each length is sorted.
    missing = str(tmp_path / "missing")
    monkeypatch.setattr(tempfile, "tempdir", missing)
    out_file = tmp_path / "x.txt"
    rc, out, err = run(
        capsys, "enumerate", "--forbidden", "P6", "--max-n", "25", "--emit", str(out_file)
    )
    assert rc == 2 and out == "" and search_calls == [] and not out_file.exists()
    assert err.startswith("error: ") and missing in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "bad", [["--max-n", "99"], ["--max-n", "5", "--jobs", "0"], ["--forbidden", "Bogus"]],
    ids=["max-n", "jobs", "pattern"],
)
def test_enumerate_bad_arguments_keep_emit_file(capsys, tmp_path, bad):
    out_file = tmp_path / "out.txt"
    out_file.write_text("keep\n")
    rc, out, err = run(capsys, "enumerate", "--forbidden", "P6", *bad, "--emit", str(out_file))
    assert rc == 2 and out == "" and err.startswith("error:")
    assert out_file.read_text() == "keep\n"


def test_enumerate_bad_pattern(capsys):
    rc, _, err = run(capsys, "enumerate", "--forbidden", "Bogus")
    assert rc == 2
    assert "unrecognized pattern name" in err


@pytest.mark.parametrize(
    "names", [["P6"], [" P6"], ["P6", "claw"]], ids=["P6", "spaced-P6", "P6+claw"]
)
def test_enumerate_checks_p6_reference(capsys, monkeypatch, names):
    # One wrong reference entry: only a lone P6 run is compared with it.
    wrong = list(P6_REFERENCE_COUNTS)
    wrong[3] += 1
    monkeypatch.setattr(cli, "P6_REFERENCE_COUNTS", tuple(wrong))
    argv = [arg for name in names for arg in ("--forbidden", name)]
    rc, _, err = run(capsys, "enumerate", *argv, "--max-n", "5")
    if names == ["P6", "claw"]:
        assert rc == 0 and err == ""
    else:
        assert rc == 1
        assert err == f"length 4: got 22, reference says {wrong[3]}\n"


def test_solve_sat(capsys, tmp_path):
    gpath, _ = write_instance(tmp_path, cycle_graph(5))
    rc, out, _ = run(capsys, "solve", "--graph", gpath, "--format", "json")
    assert rc == 0
    coloring = json.loads(out)["coloring"]
    assert len(coloring) == 5 and set(coloring) <= {1, 2, 3}


def test_solve_unsat(capsys, tmp_path):
    g, l = gen_Hr(3)
    gpath, lpath = write_instance(tmp_path, g, l)
    rc, out, _ = run(capsys, "solve", "--graph", gpath, "--lists", lpath)
    assert rc == 1
    assert out.strip() == "UNSAT"


def test_solve_unsat_json(capsys, tmp_path):
    gpath, lpath = write_instance(tmp_path, Graph(2, [(0, 1)]), ListSystem.from_sets([[1], [1]]))
    rc, out, _ = run(capsys, "solve", "--graph", gpath, "--lists", lpath, "--format", "json")
    assert rc == 1
    assert json.loads(out) == {"coloring": None}


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize(
    "lists", [[5, [1]], [None, [1]], [[True], [1]], [["1"], [1]]],
    ids=["int-entry", "null-entry", "true-color", "string-color"],
)
def test_malformed_list_entry_exits_2(capsys, tmp_path, command, lists):
    gpath, _ = write_instance(tmp_path, Graph(2, [(0, 1)]))
    lpath = tmp_path / "bad.json"
    lpath.write_text(json.dumps({"n": 2, "lists": lists}))
    rc, _, err = run(capsys, command, "--graph", gpath, "--lists", str(lpath))
    assert rc == 2
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "check"])
def test_boolean_list_count_exits_2(capsys, tmp_path, command):
    # JSON true is an int to isinstance(), and True == 1 == len(lists).
    gpath, _ = write_instance(tmp_path, Graph(1))
    lpath = tmp_path / "bool.json"
    lpath.write_text(json.dumps({"n": True, "lists": [[1]]}))
    rc, _, err = run(capsys, command, "--graph", gpath, "--lists", str(lpath))
    assert rc == 2
    assert "error" in err and "Traceback" not in err


def test_solve_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "solve", "--graph", str(tmp_path / "nope.g6"))
    assert rc == 2 and "error" in err


@pytest.mark.parametrize("flag, content, message", [
    ("--graph", "!!!", "bad graph6 in {}: byte 33 outside graph6 range 63..126 (byte offset 0)\n"),
    ("--lists", None, "cannot read list file {}: "),
    ("--lists", "{nope", "bad JSON in {}: "),
], ids=["bad-graph6", "lists-is-a-directory", "bad-json"])
def test_unusable_input_file_exits_2(capsys, tmp_path, flag, content, message):
    gpath, _ = write_instance(tmp_path, cycle_graph(3))
    bad = tmp_path / "bad"
    if content is None:
        bad.mkdir()
    else:
        bad.write_text(content)
    argv = ["--graph", str(bad)] if flag == "--graph" else ["--graph", gpath, "--lists", str(bad)]
    rc, out, err = run(capsys, "solve", *argv)
    assert rc == 2 and out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: " + message.format(bad))


def test_solve_bad_lists_dimension(capsys, tmp_path):
    gpath, _ = write_instance(tmp_path, cycle_graph(4))
    lpath = tmp_path / "short.json"
    lpath.write_text(json.dumps({"n": 2, "lists": [[1], [2]]}))
    for command in ("solve", "check"):
        rc, out, err = run(capsys, command, "--graph", gpath, "--lists", str(lpath))
        assert rc == 2 and out == "", command
        assert err.startswith("error: ") and str(lpath) in err and err.count("\n") == 1
        assert "Traceback" not in err


def test_check_minimal_obstruction(capsys, tmp_path):
    g, l = gen_Hr(3)
    gpath, lpath = write_instance(tmp_path, g, l)
    rc, out, _ = run(capsys, "check", "--graph", gpath, "--lists", lpath)
    assert rc == 0
    assert "colorable\tFalse" in out and "minimal\tTrue" in out


def test_check_non_minimal(capsys, tmp_path):
    from tricrit.graphs import Graph, disjoint_union

    g = disjoint_union(complete_graph(4), Graph(1))
    gpath, _ = write_instance(tmp_path, g)
    rc, out, _ = run(capsys, "check", "--graph", gpath, "--format", "json")
    assert rc == 1
    data = json.loads(out)
    assert data["colorable"] is False and data["minimal"] is False
    assert data["non_critical"] == [4]
    assert data["extracted"]["vertices"] == [0, 1, 2, 3]


def test_critical(capsys, tmp_path):
    gpath, _ = write_instance(tmp_path, complete_graph(4))
    rc, out, _ = run(capsys, "critical", "--graph", gpath)
    assert rc == 0 and "four_vertex_critical\tTrue" in out
    gpath2, _ = write_instance(tmp_path, cycle_graph(5), stem="c5")
    rc, out, _ = run(capsys, "critical", "--graph", gpath2, "--format", "json")
    assert rc == 1
    assert json.loads(out) == {"four_vertex_critical": False}


def test_family_emit_circulant(capsys):
    rc, out, _ = run(capsys, "family", "--name", "Gr", "--r", "1")
    assert rc == 0
    assert out.strip() == write_graph6(complete_graph(4))


def test_family_emit_path_member_json(capsys):
    rc, out, _ = run(capsys, "family", "--name", "Hr", "--r", "2", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    g, l = gen_Hr(2)
    assert data["graph6"] == write_graph6(g)
    assert ListSystem.from_sets(data["lists"]["lists"]) == l


@pytest.mark.parametrize("name", ["Gr", "Hr"])
def test_family_member_json_parses(capsys, name):
    rc, out, _ = run(capsys, "family", "--name", name, "--r", "1", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    g = gen_Gr(1) if name == "Gr" else gen_Hr(1)[0]
    assert data["graph6"] == write_graph6(g)


def test_family_verify(capsys):
    rc, out, _ = run(capsys, "family", "--name", "Hr", "--r", "2", "--verify")
    assert rc == 0
    assert "minimal-obstruction\tPASS" in out
    rc, out, _ = run(capsys, "family", "--name", "Gr", "--r", "2", "--verify",
                     "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["passed"] is True and data["family"] == "Gr"


def test_family_errors(capsys):
    rc, _, err = run(capsys, "family", "--name", "Qr", "--r", "1")
    choice = err[err.index("invalid choice: 'Qr'"):]
    assert rc == 2 and "Gr" in choice and "Hr" in choice


@pytest.mark.parametrize("command", [
    "family --name Gr --r 43", "family --name Hr --r 44", "family --name Gr --r 0",
    "enumerate --forbidden P6 --max-n 65", "enumerate --forbidden P6 --jobs 0",
])
def test_out_of_range_flags_exit_2(capsys, command):
    rc, _, err = run(capsys, *command.split())
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# Gr(42) (127 vertices) and Hr(43) (128, the cap) take graph6's 4-byte "~" header.
@pytest.mark.parametrize("command", [
    "solve --graph {g2}", "solve --graph {h2} --lists {h2_lists}", "check --graph {g2}",
    "check --graph {h2} --lists {h2_lists}", "critical --graph {g2}", "family --name Gr --r 2",
    "family --name Gr --r 2 --verify", "family --name Hr --r 2", "family --name Hr --r 2 --verify",
    "classify --pattern 2P3", "classify --pattern {g2_g6}", "critical --graph {g42}",
    "check --graph {g42}", "classify --pattern {g42_g6}", "check --graph {h43} --lists {h43_lists}",
    "enumerate --forbidden P6 --max-n 5",
])
def test_json_output_parses(capsys, tmp_path, command):
    files = {}
    for stem, (g, lists) in [("g2", (gen_Gr(2), None)), ("h2", gen_Hr(2)),
                             ("g42", (gen_Gr(42), None)), ("h43", gen_Hr(43))]:
        files[stem], files[f"{stem}_lists"] = write_instance(tmp_path, g, lists, stem)
        files[f"{stem}_g6"] = write_graph6(g)
    rc, out, _ = run(capsys, *command.format(**files).split(), "--format", "json")
    assert rc in (0, 1)  # 1: the queried property fails, which is still an answer
    json.loads(out)


def test_classify_by_name(capsys):
    rc, out, _ = run(capsys, "classify", "--pattern", "2P3", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["case"] == "equals-2P3"
    assert data["finite_vertex_critical"] is True
    assert data["finite_list_obstructions"] is False
    assert data["summary"].endswith(".")


def test_classify_by_graph6(capsys):
    rc, out, _ = run(capsys, "classify", "--pattern", write_graph6(cycle_graph(4)))
    assert rc == 0
    assert "case\tcontains-cycle" in out


def test_classify_garbage(capsys):
    rc, _, err = run(capsys, "classify", "--pattern", "\x01bogus")
    assert rc == 2
    assert "neither a recognized pattern name nor valid graph6" in err


def test_argparse_failures_exit_2(capsys):
    rc, _, _ = run(capsys, "no-such-command")
    assert rc == 2
    rc, _, _ = run(capsys, "enumerate", "--format", "yaml")
    assert rc == 2


def _command() -> tuple[list[str], dict]:
    # The console script when it is installed, else the module entry point
    # of the package this suite imported, whose directory the child is given.
    import tricrit

    exe = shutil.which("tricrit")
    cmd = [exe] if exe is not None else [sys.executable, "-m", "tricrit"]
    env = dict(os.environ, PYTHONPATH=str(Path(tricrit.__file__).parent.parent))
    return cmd, env


def test_entry_point_installed():
    cmd, env = _command()
    proc = subprocess.run(
        cmd + ["classify", "--pattern", "P5"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "induced-subgraph-of-P6" in proc.stdout


def test_emit_into_closed_pipe_exits_quietly():
    # ``tricrit enumerate --emit /dev/stdout | head -3``: the reader takes
    # three lines and closes the pipe while the stream is still being written.
    cmd, env = _command()
    args = ["enumerate", "--forbidden", "P6", "--max-n", "14", "--emit", "/dev/stdout"]
    proc = subprocess.Popen(
        cmd + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    lines = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert lines == ["1 1 -\n", "2 12 -\n", "2 13 -\n"]
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
