"""``python -m bbgc``: once ``main`` returns, with every file closed and every
source stopped, flush the standard streams and end without finalization."""

import os
import sys

from .cli import main

code = main()   # an exception or argparse's SystemExit takes the usual exit
try:
    sys.stdout.flush()
    sys.stderr.flush()
except (AttributeError, OSError, ValueError):   # a stream missing, broken or closed
    sys.exit(code)   # the interpreter's usual exit reports it
os._exit(code)
