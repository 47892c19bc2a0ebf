"""``python -m tricrit``: the same command line as the ``tricrit`` script."""
from .cli import entry

if __name__ == "__main__":
    entry()
