"""``python -m arbogru``: the command-line tool, without the installed script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
