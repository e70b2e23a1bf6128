"""The start-up part of one agekit query, timed from outside for setup_s.

    python perfbench/startup.py [FILE...]

Launches like the CLI, imports everything ``agekit.cli`` imports and parses
the query's class files, then exits before any layer does work.  A
``verify`` query passes no file: its certificate is written by an earlier
query of the workload, after start-up is measured.
"""

from __future__ import annotations

import sys

import agekit.cli  # noqa: F401  (the imports a CLI query pays for)
from agekit.parser import Catalog, parse_input


def main(files: list[str]) -> int:
    cat = Catalog()
    for path in files:
        with open(path) as fh:
            parse_input(fh.read(), cat)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
