"""``python -m stepldp``: the command-line interface, as the ``stepldp`` script runs it."""

from .cli import entry

if __name__ == "__main__":
    entry()
