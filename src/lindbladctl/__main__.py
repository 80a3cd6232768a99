"""``python -m lindbladctl``: the command line of lindbladctl.cli."""

import sys

from .cli import main

sys.exit(main())
