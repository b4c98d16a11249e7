"""``python -m cdmonitor`` and the ``cdmonitor`` console script."""

import signal
import sys


def entry() -> int:
    """``cli.main``'s status, or 130 with the one stderr line ``interrupted``
    for a Ctrl-C while the CLI and numpy import or before ``main`` returns.
    Once ``main`` has returned, SIGINT is ignored, so a Ctrl-C during
    interpreter shutdown cannot replace the status it chose."""
    status = None
    try:
        from .cli import main

        status = main()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    if status is None:
        print("interrupted", file=sys.stderr)
        return 130
    return status


if __name__ == "__main__":
    sys.exit(entry())
