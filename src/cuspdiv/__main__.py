"""Run the command-line interface as `python -m cuspdiv`."""

import sys

from .cli import main

sys.exit(main())
