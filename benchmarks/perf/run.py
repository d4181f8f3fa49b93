"""Run the benchmark as a script: ``python3 benchmarks/perf/run.py [ARGS]``.

Same arguments as ``python -m benchmarks.perf``.  The script's own
directory is replaced on ``sys.path`` by the repository root, so that
``benchmarks/perf/trace.py`` cannot shadow the standard library's
``trace`` module.
"""

import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.perf.cli import main  # noqa: E402

sys.exit(main())
