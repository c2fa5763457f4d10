"""``python -m repro`` entry point (see :mod:`repro.cli`)."""

import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())
