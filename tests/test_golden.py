"""The goldens are no artefact of one process's hash seed.

Tier-1 runs under whatever ``PYTHONHASHSEED`` it is given (a random one
by default) and ``make goldens`` writes them under 0.  Here one
smoke-scale workload — the sharded one, whose routing is the most
set- and dict-heavy — and the classic chaos seed run once more, in a
subprocess under a second fixed hash seed, and must reproduce their
goldens value for value: a set or dict whose iteration order reached an
outcome would show up here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from tests import golden

ROOT = Path(__file__).resolve().parents[1]
HASH_SEED = "1"

WORKLOAD = "sharded_keys"

RUNS = f"""
import json
from repro.chaos import run_chaos, virtual_view
from tests.bench.test_perf_smoke import golden_view, smoke_run
from tests.chaos.test_chaos_smoke import SEED, smoke_config

runs = {{"perf/{WORKLOAD}": golden_view(smoke_run("{WORKLOAD}"))}}
runs[f"chaos/classic_seed{{SEED}}"] = virtual_view(run_chaos(smoke_config()))
print(json.dumps(runs))
"""


def test_goldens_hold_under_a_second_hash_seed():
    env = dict(
        os.environ,
        PYTHONHASHSEED=HASH_SEED,
        PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))),
    )
    done = subprocess.run(
        [sys.executable, "-c", RUNS],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    runs = json.loads(done.stdout)
    assert len(runs) == 2
    for name, value in runs.items():
        golden.check(name, value)
