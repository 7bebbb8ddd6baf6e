"""Set-up probe: a fresh interpreter's path to its first estimate.

Usage: python3 setup_probe.py SRC_DIR CONFIG_FILE FRAME_JSON

Times `import legodom`, loading the config, building the Estimator, and
the first `step` on one frame, then prints the seconds taken. Exits 1 if
the first state is not finite.
"""

import json
import math
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import legodom  # noqa: E402
from legodom.logio import frame_from_dict  # noqa: E402

cfg = legodom.load_config(sys.argv[2])
est = legodom.Estimator(cfg)
with open(sys.argv[3], "r", encoding="utf-8") as fh:
    frame = frame_from_dict(json.load(fh))
state = est.step(frame)
elapsed = time.perf_counter() - t0

values = [state.stamp, *state.position, *state.rpy, *state.velocity]
if not all(math.isfinite(float(v)) for v in values):
    print("non-finite first state", file=sys.stderr)
    sys.exit(1)
print(repr(elapsed))
