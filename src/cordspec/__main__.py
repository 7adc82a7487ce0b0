"""``python -m cordspec``: the command-line front end of ``cordspec.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
