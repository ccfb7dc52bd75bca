"""Time one cold set-up: the psindex imports, load_config, validate_config.

Usage: python3 perfbench/setup_probe.py CONFIG
Prints one JSON object with the three times in seconds and the host's
slowness (see harness.slowness) measured right after them. The benchmark starts it
several times per run, since imports are cold only once per process.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from psindex import cli, validate_config  # noqa: E402

t1 = time.perf_counter()
loaded = cli.load_config(sys.argv[1])
t2 = time.perf_counter()
ok = validate_config(loaded.system).ok
t3 = time.perf_counter()

from harness import slowness  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1,
                  "validate_s": t3 - t2, "setup_s": t3 - t0,
                  "slowness": slowness("python"), "ok": ok}))
