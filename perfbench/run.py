"""kextdistill benchmark: certified fidelity thresholds, end to end and per layer.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Workloads: dense, matrix-free, werner-sweep (see perfbench/README.md).  Run
from any directory; the package is imported from the `src/` tree next to
this directory, not from an installed copy.

With --trace 0 the command measures set-up in fresh processes, runs the
workload untraced in its own process, checks every result, and prints the
end-to-end metrics.  With --trace 1 it runs the workload untraced and then
traced, each in its own process, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; each metric carries its unit.  A full record (machine
facts, every threshold time, failures) goes to .perfbench/ next to src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("dense", "matrix-free", "werner-sweep")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "threshold_s.p50": "s",
    "threshold_s.tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "linalg.eig_dense_s": "s",
    "linalg.eig_dense_calls": "count",
    "linalg.eig_iter_s": "s",
    "linalg.eig_iter_calls": "count",
    "linalg.arpack_self_s": "s",
    "linalg.matvecs": "count",
    "linalg.matvec_s": "s",
    "linalg.matvecs_per_eigsolve": "count/eigsolve",
    "linalg.matvec_flops": "flop",
    "linalg.matvec_bytes": "B",
    "linalg.dense_fallbacks": "count",
    "solver.assembly_s": "s",
    "solver.eigsolves_per_threshold": "count/threshold",
    "solver.driver_self_s": "s",
    "solver.f1_s": "s",
    "states.build_s": "s",
    "states.build_calls": "count",
    "blocks.lambda_min_s": "s",
    "blocks.calls": "count",
    "analytic.mnp_s": "s",
    "analytic.mnp_calls": "count",
    "cli.sweep_self_s": "s",
    "trace.overhead_frac": "fraction",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a wrong result of the program)."""


def tail(rounds: list[list[float]]) -> tuple[float, str]:
    """The highest percentile with at least ten threshold times beyond it, and its label.

    With n sorted times that is the (n - 10)-th one, at percentile
    100 (n - 11) / (n - 1).  Below 21 times it would fall under the median;
    then the slowest task is reported, as its median over the rounds (every
    round runs the same tasks in the same order).
    """
    xs = sorted(t for times in rounds for t in times)
    n = len(xs)
    if n >= 21:
        return xs[n - 11], f"p{100.0 * (n - 11) / (n - 1):.1f} of {n} thresholds"
    per_task = [statistics.median(times) for times in zip(*rounds)]
    return max(per_task), f"slowest task of {len(per_task)}, median of {len(rounds)} rounds"


def source_facts() -> dict:
    """The git commit when there is one, and a digest of the package source either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def child(args: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before " + " ".join(args))
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {' '.join(args)} timed out") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"worker {' '.join(args)} exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(base: dict, setups: list[float]) -> tuple[dict, str]:
    """The `--trace 0` metrics from an untraced run and the set-up samples."""
    tail_value, tail_label = tail(base["threshold_s_by_round"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(base["round_wall_s"]),
        "threshold_s.p50": statistics.median(t for r in base["threshold_s_by_round"] for t in r),
        "threshold_s.tail": tail_value,
        "peak_rss_mb": base["peak_rss_mb"],
    }
    return metrics, tail_label


def per_layer(base: dict, traced: dict) -> dict:
    """The `--trace 1` metrics: the traced round's layers and the cost of tracing."""
    metrics = dict(traced["layers"])
    wall = statistics.median(base["round_wall_s"])
    metrics["trace.overhead_frac"] = traced["round_wall_s"][0] / wall - 1.0
    return metrics


def record_of(workload: str, seed: int, seconds: int, metrics: dict, runs: dict) -> dict:
    """Everything one invocation learned; `runs` maps "untraced"/"traced" to worker output."""
    units = PER_LAYER if "traced" in runs else END_TO_END
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": "traced" in runs,
        **source_facts(), **runs,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    kext_threads = env.pop("KEXT_THREADS", None)
    common = ["--workload", workload, "--seed", str(seed)]
    base = child(["run", *common, "--seconds", str(seconds)], env, deadline)
    if trace:
        traced = child(["run", *common, "--trace"], env, deadline)
        record = record_of(workload, seed, seconds, per_layer(base, traced),
                           {"untraced": base, "traced": traced})
    else:
        setups = [child(["setup", *common], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        metrics, tail_label = end_to_end(base, setups)
        record = record_of(workload, seed, seconds, metrics, {"untraced": base})
        record["setup_samples_s"] = setups
        record["threshold_s.tail_is"] = tail_label
    record["kext_threads_in_caller"] = kext_threads
    return record


def report(record: dict) -> str:
    """Human-readable lines, then the one-line JSON result (always last)."""
    lines = [f"# workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}"]
    facts = record["untraced"]["facts"]
    lines.append("# machine " + json.dumps(
        {**facts, "git_commit": record["git_commit"], "src_sha256": record["src_sha256"],
         "seed": record["seed"]}
    ))
    for name, metric in record["metrics"].items():
        lines.append(f"{name:34s} {metric['value']!r:>24} {metric['unit']}")
    lines.append(f"{'failed_frac':34s} {record['failed_frac']!r:>24} "
                 f"({record['failed']} of {record['attempted']} results)")
    if "threshold_s.tail_is" in record:
        lines.append(f"# threshold_s.tail is the {record['threshold_s.tail_is']}")
    for failure in record["untraced"]["failures"] + record.get("traced", {}).get("failures", []):
        lines.append(f"# FAILED {failure}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kextdistill" / "__init__.py").is_file():
        print(f"error: no kextdistill source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    print(report(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
