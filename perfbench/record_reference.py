"""Record the reference outputs the benchmark's correctness gate checks.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

Writes perfbench/reference.json: the SimReport fields of every
(config, policy, pool seed) simulation the workloads can run, and the
joint RVI average cost. The file pins the outputs of the commit it was
recorded at; re-record only when a workload gains a config or policy,
never to absorb a change in existing outputs.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from psindex import cli, dp, sim  # noqa: E402

from harness import OP_ERRORS  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_PATH, ROOT, SIM_BURN_IN, SIM_HORIZON, SIM_SEED_POOL, WORKLOADS,
    build_table, make_policy, report_key)


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    out = {"sim": {}, "joint_rvi_beta": {}}
    for w in WORKLOADS.values():
        loaded = cli.load_config(ROOT / w.config)
        system = loaded.system
        table = solution = None
        if "indices" in w.stages:
            try:
                table = build_table(loaded)
            except OP_ERRORS as e:
                print(f"{w.name}: no index table ({e})")
        if "exact" in w.stages:
            solution = dp.joint_rvi(system)
            out["joint_rvi_beta"][w.config] = solution.beta
        entry = out["sim"].setdefault(
            w.config, {"horizon": SIM_HORIZON, "burn_in": SIM_BURN_IN,
                       "reports": {}})
        for name in w.policies:
            policy = make_policy(name, system, table, solution)
            if policy is None or name in entry["reports"]:
                continue
            entry["reports"][name] = {
                str(seed): report_key(sim.simulate(system, policy,
                                                   SIM_HORIZON, SIM_BURN_IN,
                                                   seed))
                for seed in range(SIM_SEED_POOL)}
            print(f"{w.config} {name}: {SIM_SEED_POOL} reports")
    REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
