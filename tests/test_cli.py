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


def _g6(g: Graph) -> str:
    return write_graph6(g) + "\n"


def write_instance(tmp_path, g, lists=None, stem="g"):
    gpath = tmp_path / f"{stem}.g6"
    gpath.write_text(_g6(g))
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


# The one table of CLI refusals: each command line exits 2 with nothing on
# stdout and one stderr line, "error: " and the row's message.  {g} and {l}
# are the row's graph and list files, written from its texts when it has
# them; a text of None makes a directory.
_R = "family parameter r must be an integer in 1.."
REFUSALS = {
    "bad-pattern": ("enumerate --forbidden Bogus", {}, "unrecognized pattern name: 'Bogus'"),
    "missing-graph": ("solve --graph {g}", {}, "cannot read graph file {g}: "),
    "bad-graph6": ("solve --graph {g}", {"g": "!!!"},
                   "bad graph6 in {g}: byte 33 outside graph6 range 63..126 (byte offset 0)\n"),
    "lists-is-a-directory": ("solve --graph {g} --lists {l}", {"g": _g6(cycle_graph(3)), "l": None},
                             "cannot read list file {l}: "),
    "bad-json": ("solve --graph {g} --lists {l}", {"g": _g6(cycle_graph(3)), "l": "{nope"},
                 "bad JSON in {l}: "),
    "Gr-43": ("family --name Gr --r 43", {}, _R + "42: 43 is out of range"),
    "Hr-44": ("family --name Hr --r 44", {}, _R + "43: 44 is out of range"),
    "Gr-0": ("family --name Gr --r 0", {}, _R + "42: 0 is out of range"),
    "max-n-65": ("enumerate --forbidden P6 --max-n 65", {},
                 "max_n must be an integer in 0..64: 65 is out of range"),
    "jobs-0": ("enumerate --forbidden P6 --jobs 0", {},
               "jobs must be a positive integer: 0 is out of range"),
    "classify-garbage": ("classify --pattern \x01bogus", {},
                         "'\\x01bogus' is neither a recognized pattern name nor valid graph6"),
    "classify-P13": ("classify --pattern P13", {}, "'P13' is neither a recognized pattern name "
                     "nor valid graph6: path pattern out of supported range P1..P12: P13"),
    "classify-C2": ("classify --pattern C2", {}, "'C2' is neither a recognized pattern name "
                    "nor valid graph6: cycle pattern out of supported range C3..C12: C2"),
    "classify-P4+200P1": ("classify --pattern P4+200P1", {}, "'P4+200P1' is neither a recognized "
                          "pattern name nor valid graph6: unsupported parameter in pattern P4+200P1"),
}
# List files that solve and check both refuse: (graph, list file, message).
_P2, _BAD = Graph(2, [(0, 1)]), "bad list system in {l}: "
_ENTRY = _BAD + "the list of vertex 0 must be a list of colors, got "
_COLOR = _BAD + "color must be an integer in 1..3: "
_LIST_FILES = {
    "int-entry": (_P2, {"n": 2, "lists": [5, [1]]}, _ENTRY + "5"),
    "null-entry": (_P2, {"n": 2, "lists": [None, [1]]}, _ENTRY + "None"),
    "true-color": (_P2, {"n": 2, "lists": [[True], [1]]}, _COLOR + "True is out of range"),
    "string-color": (_P2, {"n": 2, "lists": [["1"], [1]]}, _COLOR + "'1' is out of range"),
    # JSON true is an int to isinstance(), and True == 1 == len(lists).
    "boolean-count": (Graph(1), {"n": True, "lists": [[1]]},
                      _BAD + "n must be an integer in 0..128: True is out of range"),
    "short-lists": (cycle_graph(4), {"n": 2, "lists": [[1], [2]]},
                    "list system in {l} has 2 entries, graph has 4"),
}
REFUSALS |= {
    f"{name}-{command}": (command + " --graph {g} --lists {l}",
                          {"g": _g6(g), "l": json.dumps(lists)}, message)
    for command in ("solve", "check") for name, (g, lists, message) in _LIST_FILES.items()
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusals_exit_2_with_one_error_line(capsys, tmp_path, name):
    argv, texts, message = REFUSALS[name]
    paths = {"g": tmp_path / "g.g6", "l": tmp_path / "lists.json"}
    for key, text in texts.items():
        if text is None:
            paths[key].mkdir()
        else:
            paths[key].write_text(text)
    rc, out, err = run(capsys, *argv.format(**paths).split())
    assert rc == 2 and out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: " + message.format(**paths))


def test_argparse_failures_exit_2(capsys):
    # argparse refuses these itself, with a usage message, not one error line.
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
