"""``python -m zodom``: the zodom command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
