"""``python -m sc3opt``: the ``sc3opt`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
