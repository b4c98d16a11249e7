"""``python -m cdmonitor``: the same commands as the ``cdmonitor`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
