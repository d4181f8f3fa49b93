"""``python -m benchmarks.perf``: see :mod:`benchmarks.perf.cli`."""

import sys

from benchmarks.perf.cli import main

sys.exit(main())
