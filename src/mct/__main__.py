"""``python -m mct``: the command line of :mod:`mct.evalcli`."""

import sys

from .evalcli import main

__all__: list[str] = []  # an entry point; the command line's API is evalcli.main

if __name__ == "__main__":
    sys.exit(main())
