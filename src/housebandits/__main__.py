"""`python -m housebandits ...`: the command-line interface without an
installed console script."""

import sys

from .cli import main

sys.exit(main())
