"""One cold set-up, run as its own interpreter by run.py.

Imports numpy, scipy and fracfield, validates every workload config and
makes the first LAPACK call (a fixed 200x200 eigh), then prints the stage
times as one JSON line. run.py times the whole process, interpreter start
and exit included, as one setup_s sample.

Usage: python3 perfbench/setup_probe.py <path of the repo's src directory>
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import fracfield.runner  # noqa: E402,F401
from fracfield.config import validate_config  # noqa: E402

t1 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402

for workload in WORKLOADS.values():
    for task in workload.tasks:
        validate_config(task.config, task=task.kind)
t2 = time.perf_counter()
a = np.random.default_rng(0).standard_normal((200, 200))
scipy.linalg.eigh(a + a.T)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "validate_s": t2 - t1, "first_lapack_s": t3 - t2}))
