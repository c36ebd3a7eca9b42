"""Workload definitions: the fixed task lists, how one round runs, and the checks.

A workload is a list of tasks built from a seed.  One round runs every task
once, in order; the timed phase repeats rounds.  Every task only calls the
package's public API (`solver`, `cli`, `analytic`), and every threshold uses
the backend a user would get (`auto`, or the backend a recipe sets).

Random states are a fixed reference state seen in a seeded random local frame
U_A x U_B.  A local unitary leaves the probe spectrum, and so the threshold,
unchanged, but changes every matrix entry the solvers see.  Fully random
states would make the work per threshold vary by up to a factor of two from
seed to seed.  The dense solvers' work does not depend on the frame; ARPACK's
does, so the matrix-free workload uses the reference state itself.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from time import perf_counter as _now
from typing import Callable

import numpy as np

from kextdistill import analytic, cli, solver, states
from kextdistill.linalg import layout
from kextdistill.solver import KExtProblem

import checks

WORKLOADS = ("dense", "matrix-free", "werner-sweep")

REFERENCE_SEED = 1109          # draws the reference states; the run seed only picks their frame
FIG1_POINTS = 17               # fig1 ships 81; 17 keeps one round near 15 s on 2 cores
MNP_POINTS_PER_D = 3


@dataclass
class Outcome:
    """One checkable result: `value` feeds `check`, which returns failure messages."""

    label: str
    value: object
    check: Callable[[], list[str]]


class Threshold:
    """One `fidelity_threshold` call at the default tolerance of `kext threshold`."""

    def __init__(self, label: str, problem: KExtProblem, closed_form: float | None = None):
        self.label = label
        self.problem = problem
        self.closed_form = closed_form
        self.tol_alpha = solver.DEFAULT_TOL_ALPHA

    def run(self, workdir: str, clock: "ThresholdClock"):
        return clock.timed(solver.fidelity_threshold, self.problem, tol_alpha=self.tol_alpha)

    def outcomes(self, raw, workdir: str) -> list[Outcome]:
        alpha = raw.alpha_star
        return [Outcome(
            self.label,
            alpha,
            lambda: checks.check_threshold(
                self.problem, alpha, self.tol_alpha, closed_form=self.closed_form
            ),
        )]


class UnitFidelity:
    """The measure-and-prepare strategy for a rank-deficient state, then its fidelity."""

    def __init__(self, label: str, state: states.DensityOperator, k: int):
        self.label = label
        self.state = state
        self.k = k

    def run(self, workdir: str, clock: "ThresholdClock"):
        found = solver.construct_f1_strategy(self.state, self.k)
        if found is None:
            return None
        cj, _side = found
        return solver.evaluate_map_fidelity(cj, self.state)

    def outcomes(self, raw, workdir: str) -> list[Outcome]:
        return [Outcome(self.label, raw, lambda: checks.check_unit_fidelity(raw))]


class Fig1Sweep:
    """`cli.run_sweep` on the fig1 recipe with a smaller grid, one CSV per n."""

    def __init__(self, cfg: cli.SweepConfig):
        self.label = "fig1"
        self.cfg = cfg

    def expected_points(self) -> int:
        return self.cfg.points * len(self.cfg.n_values)

    def run(self, workdir: str, clock: "ThresholdClock"):
        cfg = replace(self.cfg, output=os.path.join(workdir, "fig1_n{n}.csv"))
        return clock.sweep(cfg)

    def outcomes(self, raw, workdir: str) -> list[Outcome]:
        found = []
        params = [float(v) for v in np.linspace(self.cfg.start, self.cfg.stop, self.cfg.points)]
        for n in self.cfg.n_values:
            rows = checks.read_csv(os.path.join(workdir, f"fig1_n{n}.csv"), cli.CSV_HEADER)
            if [float(r[0]) for r in rows] != params:
                found.append(Outcome(f"fig1_n{n}", rows, lambda: ["sweep grid does not match the recipe"]))
                continue
            for row in rows:
                found.append(self._point(n, row))
        return found

    def _point(self, n: int, row: list[str]) -> Outcome:
        gamma, alpha, backend = float(row[0]), float(row[1]), row[2]
        problem = KExtProblem.for_werner(
            d=self.cfg.d, gamma=gamma, n=n, k=1, backend=self.cfg.backend
        )
        closed = analytic.alpha_max_k1(gamma) if n == 1 else None

        def check() -> list[str]:
            bad = [] if backend == self.cfg.backend else [f"backend {backend}"]
            return bad + checks.check_threshold(problem, alpha, self.cfg.tol_alpha, closed_form=closed)

        return Outcome(f"fig1_n{n}_g{gamma!r}", alpha, check)


class Fig2Ellipse:
    """`cli.run_sweep` on the fig2 recipe: the cloning-tradeoff ellipse."""

    def __init__(self, cfg: cli.SweepConfig):
        self.label = "fig2"
        self.cfg = cfg

    def run(self, workdir: str, clock: "ThresholdClock"):
        return clock.sweep(replace(self.cfg, output=os.path.join(workdir, "fig2.csv")))

    def outcomes(self, raw, workdir: str) -> list[Outcome]:
        rows = checks.read_csv(os.path.join(workdir, "fig2.csv"), cli.ELLIPSE_HEADER)
        return [Outcome("fig2", len(rows), lambda: checks.check_ellipse(rows, self.cfg.points))]


class MnPThreshold:
    """`analytic.mnp_threshold_numeric` on one Werner state, against `mnp_alpha_max`."""

    def __init__(self, d: int, p: float):
        self.label = f"mnp_d{d}_p{p!r}"
        self.d = d
        self.p = p
        self.state = states.werner(states.WernerParams(d=d, p=p))

    def run(self, workdir: str, clock: "ThresholdClock"):
        return analytic.mnp_threshold_numeric(self.state)

    def outcomes(self, raw, workdir: str) -> list[Outcome]:
        return [Outcome(self.label, raw, lambda: checks.check_mnp(self.state, self.p, self.d, raw))]


# ---------------------------------------------------------------------------
# inputs


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def reference_state(rank: int, frame: np.random.Generator | None = None, d_a: int = 2, d_b: int = 3):
    """The complex reference state of this rank on d_a x d_b, in a random local frame if given."""
    dim = d_a * d_b
    ref_rng = np.random.default_rng([REFERENCE_SEED, rank])
    g = ref_rng.standard_normal((dim, rank)) + 1j * ref_rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    if frame is not None:
        u = np.kron(haar_unitary(frame, d_a), haar_unitary(frame, d_b))
        mat = u @ mat @ u.conj().T
    return states.from_matrix(0.5 * (mat + mat.conj().T), layout(("A", d_a), ("B", d_b)))


def build(name: str, seed: int) -> list:
    """The task list of a workload: every state and `KExtProblem` it uses."""
    rng = np.random.default_rng(seed)
    werner = KExtProblem.for_werner
    if name == "dense":
        full = reference_state(rank=6, frame=rng)
        deficient = reference_state(rank=5, frame=rng)
        return [
            Threshold("werner_d3_g-0.5_n1_k1", werner(d=3, gamma=-0.5, n=1, k=1),
                      closed_form=analytic.alpha_max_k1(-0.5)),
            Threshold("werner_d3_g-0.5_n1_k2", werner(d=3, gamma=-0.5, n=1, k=2), closed_form=0.75),
            Threshold("werner_d2_g0_n1_k3", werner(d=2, gamma=0.0, n=1, k=3),
                      closed_form=analytic.maxmixed_bound(3)),
            Threshold("complex_2x3_k2", KExtProblem(state=full, k=2)),
            Threshold("rank5_2x3_k1", KExtProblem(state=deficient, k=1)),
            UnitFidelity("rank5_2x3_f1", deficient, k=1),
        ]
    if name == "matrix-free":
        # no frame: the k = 4 alice threshold took 12 to 19 s across ten frames,
        # a seed effect larger than every bound
        full = reference_state(rank=6)
        return [
            # not gamma = 0: its degenerate lambda_min makes the ARPACK matvec
            # count vary from run to run (1305 to 1339), so counts could not be claims
            Threshold("werner_d3_g-0.5_n1_k3", werner(d=3, gamma=-0.5, n=1, k=3)),
            Threshold("werner_d3_g-0.5_n2_k1", werner(d=3, gamma=-0.5, n=2, k=1)),
            Threshold("complex_2x3_k3_bob", KExtProblem(state=full, k=3, side="bob")),
            Threshold("complex_2x3_k4_alice", KExtProblem(state=full, k=4, side="alice")),
        ]
    if name == "werner-sweep":
        fig1 = cli.parse_config_text(cli.load_recipe("fig1"))
        fig1.points = FIG1_POINTS
        fig1.validate()
        fig2 = cli.parse_config_text(cli.load_recipe("fig2"))
        tasks: list = [Fig1Sweep(fig1), Fig2Ellipse(fig2)]
        for d in (2, 3):
            # one p per stratum of [0, 1], so the grid covers the range for any seed
            for i in range(MNP_POINTS_PER_D):
                tasks.append(MnPThreshold(d, float((i + rng.random()) / MNP_POINTS_PER_D)))
        return tasks
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def warm_up(tasks: list) -> None:
    """One lambda_min call on the workload's first problem, outside every metric."""
    first = tasks[0]
    if isinstance(first, Threshold):
        solver.lambda_min_alpha(first.problem, 0.5)
    else:
        cfg = first.cfg
        problem = KExtProblem.for_werner(d=cfg.d, gamma=0.0, n=1, k=1, backend=cfg.backend)
        solver.lambda_min_alpha(problem, 0.5)


# ---------------------------------------------------------------------------
# running


class ThresholdClock:
    """Times every `fidelity_threshold` call a round makes, its own or the sweep's."""

    def __init__(self):
        self.durations: list[float] = []

    def timed(self, fn, *args, **kwargs):
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            self.durations.append(_now() - t0)

    def sweep(self, cfg: cli.SweepConfig):
        # cli binds fidelity_threshold by from-import: time each point there
        inner = cli.fidelity_threshold
        cli.fidelity_threshold = lambda *a, **kw: self.timed(inner, *a, **kw)
        try:
            return cli.run_sweep(cfg)
        finally:
            cli.fidelity_threshold = inner


@dataclass
class Round:
    wall_s: float
    threshold_s: list[float]
    outcomes: list[Outcome]
    errors: list[str]


def run_round(tasks: list, workdir: str, tracer=None) -> Round:
    """Run every task once, traced if a tracer is given; collect outputs after the clock stops."""
    clock = ThresholdClock()
    raws: list = []
    errors: list[str] = []
    if tracer is not None:
        tracer.install()
    try:
        t0 = _now()
        for task in tasks:
            try:
                raws.append(task.run(workdir, clock))
            except Exception as exc:  # a failed task is a failed result, not a crashed benchmark
                raws.append(exc)
                errors.append(f"{task.label}: {type(exc).__name__}: {exc}")
        wall = _now() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcomes: list[Outcome] = []
    for task, raw in zip(tasks, raws):
        if isinstance(raw, Exception):
            size = task.expected_points() if isinstance(task, Fig1Sweep) else 1
            outcomes.extend(Outcome(task.label, None, lambda: ["raised"]) for _ in range(size))
            continue
        try:
            outcomes.extend(task.outcomes(raw, workdir))
        except (OSError, ValueError, IndexError) as exc:
            errors.append(f"{task.label}: unreadable output: {exc}")
            outcomes.append(Outcome(task.label, None, lambda: ["unreadable output"]))
    return Round(wall_s=wall, threshold_s=clock.durations, outcomes=outcomes, errors=errors)
