"""`python -m kezeta <command> ...`: the `ke-zeta` command line, the one
module entry point, with `kezeta.cli` imported once, as a module."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
