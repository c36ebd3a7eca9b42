"""One benchmark child process: a set-up probe, or one run of a workload.

    python3 perfbench/worker.py setup --workload dense --seed 1
    python3 perfbench/worker.py run --workload dense --seed 1 --seconds 20 [--trace]

`setup` times `import kextdistill` plus building every state and
`KExtProblem` of the workload, in this fresh process.  `run` builds the
workload, makes one warm-up lambda_min call, then runs rounds of the task
list until --seconds have passed (at least one round; exactly one with
--trace, so that counts do not depend on speed), checks every result
untimed, and prints one JSON object.  Only the standard library is imported
before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import ctypes
import tempfile
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))


def setup(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    import kextdistill  # noqa: F401  (the import is part of what set-up measures)
    import workloads

    workloads.build(workload, seed)
    return {"setup_s": time.perf_counter() - t0}


def blas_threads() -> list[dict]:
    """Each OpenBLAS library mapped into this process, with its thread count."""
    found = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None and "threads" not in entry:
                    entry["threads"] = int(fn())
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def machine_facts() -> dict:
    import numpy
    import scipy

    import kextdistill

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": blas_threads(),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "kext_threads_unset": "KEXT_THREADS" not in os.environ,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kextdistill_file": os.path.relpath(kextdistill.__file__, ROOT),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    tasks = workloads.build(workload, seed)
    workloads.warm_up(tasks)
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if trace else None
    rounds = []
    start = time.perf_counter()
    while True:
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            rounds.append(workloads.run_round(tasks, workdir, tracer))
        if trace or time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    failures: list[str] = []
    verdicts: dict[tuple[str, str], list[str]] = {}
    for done in rounds:
        failures.extend(done.errors)
        for outcome in done.outcomes:
            key = (outcome.label, repr(outcome.value))
            if key not in verdicts:   # identical inputs and output give an identical verdict
                verdicts[key] = outcome.check()
            attempted += 1
            if verdicts[key]:
                failed += 1
                failures.extend(f"{outcome.label}: {msg}" for msg in verdicts[key])

    result = {
        "round_wall_s": [r.wall_s for r in rounds],
        "threshold_s_by_round": [r.threshold_s for r in rounds],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(failures))[:20],
        "results": {o.label: o.value for o in rounds[0].outcomes if isinstance(o.value, float)},
        "facts": machine_facts(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["per_threshold"] = tracer.per_threshold()
        out = OUT / f"spans-{workload}-seed{seed}.json"
        out.write_text(json.dumps(tracer.dump()))
        result["spans_file"] = str(out)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        doc = setup(args.workload, args.seed)
    else:
        doc = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
