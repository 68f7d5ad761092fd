"""``python -m repro`` entry point."""

import sys

from repro.cli import entry_point

sys.exit(entry_point())
