"""psindex benchmark: one workload per process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-fig3 --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all

Each run times its own set-up and two more in fresh processes
(setup_s), runs the workload's stages, and simulates for --seconds
seconds in slices spread between the stages. The last
stdout line is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Earlier lines print every figure by name and
unit, the machine record and each failed operation. A traced run also
writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 170
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Run BLAS single-threaded, through this process's environment.

    Must happen before numpy is imported; the set-up probes inherit it.
    The matrices here are at most a few hundred rows, where a second
    thread made joint RVI slower and its times noisier.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def parse_args(names, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(names) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def machine_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def setup_samples(config: Path) -> list[dict]:
    """Cold set-up times from SETUP_PROBES fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(config)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        sample = json.loads(done.stdout.splitlines()[-1])
        if not sample["ok"]:
            raise SystemExit(f"{config} does not validate")
        out.append(sample)
    return out


def emit(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, in declared units, from (value, unit) pairs."""
    out = {}
    for m in declared:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"{m['name']}: measured in {unit}, "
                             f"declared in {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def print_figures(title: str, figures: dict) -> None:
    print(title)
    for name, (value, unit) in figures.items():
        print(f"  {name} = {value:.6g} {unit}")


def run_one(args, import_s: float, import_slowness: float) -> int:
    import psindex
    from workloads import WORKLOADS, WorkloadRun

    if Path(psindex.__file__).resolve().parent != SRC / "psindex":
        raise SystemExit(f"psindex imported from {psindex.__file__}, "
                         f"not from {SRC}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine = machine_record()
    print("machine " + json.dumps(machine))
    workload = WORKLOADS[args.workload]
    wr = WorkloadRun(workload, args.seed, args.seconds, bool(args.trace))
    wr.execute()
    # This process's own set-up is the first sample; the probes add more.
    spans = {s["name"]: s["end"] - s["start"] for s in wr.run.spans}
    own = {"import_s": import_s, "load_config_s": spans["cli.load_config"],
           "validate_s": spans["model.validate_config"]}
    own["setup_s"] = sum(own.values())
    own["slowness"] = import_slowness
    setup = [own] + setup_samples(ROOT / workload.config)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run = wr.run

    e2e = wr.end_to_end(setup, rss_mb)
    print(f"workload {workload.name} seed {args.seed} "
          f"rounds {wr.rounds} run {run.run_id}")
    print_figures("end-to-end:", e2e)
    print_figures("by stage, and raw wall-clock:", wr.stage_figures(setup))
    for (name, message), count in Counter(run.failures).items():
        print(f"failed {name} x{count}: {message}")
    if wr.unreferenced:
        print(f"note: {wr.unreferenced} simulations have no reference "
              "report and were not checked")

    if args.trace:
        uni, extra = wr.per_layer(setup)
        print_figures("per layer:", uni)
        print_figures("per layer, this workload only:", extra)
        metrics = emit(uni, declared["per_layer"])
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload.name}-{args.seed}-{run.run_id}.json"
        path.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "run": run.run_id, "machine": machine, "setup": setup,
            "spans": run.spans, "failures": run.failures,
            "per_layer": {**uni, **extra}}, indent=1))
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = emit(e2e, declared["end_to_end"])
    print(json.dumps({"correct": run.mismatches == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def run_all(args, names) -> int:
    """Every workload, each in its own fresh process, one after another."""
    results = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    missing = [p for p in (SRC / "psindex" / "__init__.py",
                           ROOT / "configs" / "fig3.yaml",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print("not a psindex checkout, missing: "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing),
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import psindex  # noqa: F401  (timed: the first, cold import)
    import_s = time.perf_counter() - start
    from harness import slowness
    import_slowness = slowness("python")
    from workloads import WORKLOADS
    args = parse_args(WORKLOADS, argv)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    return run_one(args, import_s, import_slowness)


if __name__ == "__main__":
    sys.exit(main())
