"""Speed sampling inside `python -m borcherds_kit.cli` jobs of cli-cold.

worker.py puts this directory on PYTHONPATH and names a file in
PERFBENCH_SPEED_FILE; Python imports this module at start-up, so the job runs
unchanged while speed.py samples its core, and the samples are written to
that file when the job exits.
"""

import atexit
import os
import sys

_path = os.environ.get("PERFBENCH_SPEED_FILE")
if _path:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import speed
    del sys.path[0]
    speed.start()
    atexit.register(speed.dump, _path)
