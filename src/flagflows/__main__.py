"""Run the command-line driver as `python -m flagflows <subcommand> ...`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
