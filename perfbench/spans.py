"""Layer spans for the traced run, recorded from the benchmark's own files.

`Tracer.install` wraps public entry points where their callers bind them:
`solver` binds the eigensolvers and the state builders by from-import, and
`cli` binds `fidelity_threshold` the same way, so the wrapper replaces those
names in the calling module.  Matvecs are counted by wrapping the `apply` of
every handle `ProbeAssembly.handle` returns.  Each span records its name,
start, end, parent span and the exception it ended with, if any.  Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

from kextdistill import analytic, blocks, cli, solver, states

EIG_DENSE = "linalg.eig_dense"
EIG_ITER = "linalg.eig_iter"
MATVEC = "linalg.matvec"
ASSEMBLY = "solver.assembly"
THRESHOLD = "solver.threshold"
F1 = "solver.f1"
BUILD = "states.build"
BLOCKS = "blocks.lambda_min"
MNP = "analytic.mnp"
SWEEP = "cli.sweep"
EIGSOLVES = (EIG_DENSE, EIG_ITER, BLOCKS)

# (span name, object whose attribute is replaced, attribute names)
SITES = [
    (EIG_DENSE, solver, ("eig_min_dense", "eig_min_dense_vec")),
    (EIG_ITER, solver, ("eig_min_iterative",)),
    (ASSEMBLY, solver.ProbeAssembly, ("__init__", "dense_pieces", "dense")),
    (THRESHOLD, solver, ("fidelity_threshold",)),
    (THRESHOLD, cli, ("fidelity_threshold",)),
    (F1, solver, ("construct_f1_strategy", "evaluate_map_fidelity")),
    (BUILD, states, ("werner", "from_matrix", "bell_state", "maximally_mixed")),
    (BUILD, solver, ("werner", "from_matrix", "bell_state")),
    (BLOCKS, blocks, ("s3_block_lambda_min",)),
    (MNP, analytic, ("mnp_threshold_numeric",)),
    (SWEEP, cli, ("run_sweep",)),
]


@dataclasses.dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    error: str | None = None
    flops: int = 0
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def matvec_cost(assembly: solver.ProbeAssembly) -> tuple[int, int]:
    """Computed (not measured) flops and bytes of one matvec of this probe's handle.

    Per extension pair the handle contracts the fused state (D x D, with
    D = dim(A) * dim(B)) and the Bell target (4 x 4) into the vector, one
    tensordot each: 2 * N * D and 2 * N * 4 real multiply-adds' worth of
    flops, times 4 when complex.  Each tensordot reads its input, copies it
    into contraction order and writes its result (4 N elements); the
    accumulation reads and writes 5 N more.
    """
    dims = assembly.layout
    n = dims.total_dim
    big, _small = assembly.pairs[0]
    d_pair = dims.dim_of(big[0]) * dims.dim_of(big[1])
    pairs = len(assembly.pairs)
    complex_factor = 1 if assembly.is_real else 4
    flops = pairs * (2 * n * d_pair + 2 * n * 4 + 3 * n) * complex_factor
    itemsize = 8 if assembly.is_real else 16
    nbytes = pairs * (2 * 4 * n + 5 * n) * itemsize
    return flops, nbytes


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)

        return traced

    def _wrap_handle(self, fn):
        def handle(assembly, alpha):
            span = self._open(ASSEMBLY)
            try:
                made = fn(assembly, alpha)
            finally:
                self._close(span)
            flops, nbytes = matvec_cost(assembly)
            inner = made.apply

            def apply(vec):
                mv = self._open(MATVEC)
                mv.flops, mv.nbytes = flops, nbytes
                try:
                    return inner(vec)
                finally:
                    self._close(mv)

            return dataclasses.replace(made, apply=apply)

        return handle

    def install(self) -> None:
        for name, owner, attrs in SITES:
            for attr in attrs:
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        self._patch(solver.ProbeAssembly, "handle", self._wrap_handle(solver.ProbeAssembly.handle))

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- derived per-layer metrics ------------------------------------------

    def _outermost(self, name: str) -> list[int]:
        """Indices of spans of this name not nested inside another span of that name."""
        found = []
        for i, span in enumerate(self.spans):
            if span.name != name:
                continue
            up = span.parent
            while up >= 0 and self.spans[up].name != name:
                up = self.spans[up].parent
            if up < 0:
                found.append(i)
        return found

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        kids: dict[int, list[Span]] = {}
        for span in spans:
            kids.setdefault(span.parent, []).append(span)

        def total(name: str) -> float:
            return sum((spans[i].duration for i in self._outermost(name)), 0.0)

        def count(name: str) -> int:
            return len(self._outermost(name))

        def self_time(name: str, minus: tuple[str, ...] | None = None) -> float:
            """Span time minus its direct children (only those named in `minus`, if given)."""
            return sum(
                (
                    spans[i].duration
                    - sum(c.duration for c in kids.get(i, []) if minus is None or c.name in minus)
                    for i in self._outermost(name)
                ),
                0.0,
            )

        matvecs = [s for s in spans if s.name == MATVEC]
        iter_calls = count(EIG_ITER)
        fallbacks = sum(
            1 for i in self._outermost(EIG_ITER)
            if spans[i].error == "SolverConvergenceError"
            and spans[i].parent >= 0
            and spans[spans[i].parent].error is None
        )
        thresholds = self._outermost(THRESHOLD)
        eigsolves = sum(
            1 for i in thresholds for c in kids.get(i, []) if c.name in EIGSOLVES and c.error is None
        )
        return {
            "linalg.eig_dense_s": total(EIG_DENSE),
            "linalg.eig_dense_calls": count(EIG_DENSE),
            "linalg.eig_iter_s": total(EIG_ITER),
            "linalg.eig_iter_calls": iter_calls,
            "linalg.arpack_self_s": self_time(EIG_ITER, minus=(MATVEC,)),
            "linalg.matvecs": len(matvecs),
            "linalg.matvec_s": sum((s.duration for s in matvecs), 0.0),
            "linalg.matvecs_per_eigsolve": len(matvecs) / iter_calls if iter_calls else 0.0,
            "linalg.matvec_flops": sum(s.flops for s in matvecs),
            "linalg.matvec_bytes": sum(s.nbytes for s in matvecs),
            "linalg.dense_fallbacks": fallbacks,
            "solver.assembly_s": total(ASSEMBLY),
            "solver.eigsolves_per_threshold": eigsolves / len(thresholds) if thresholds else 0.0,
            "solver.driver_self_s": self_time(THRESHOLD),
            "solver.f1_s": total(F1),
            "states.build_s": total(BUILD),
            "states.build_calls": count(BUILD),
            "blocks.lambda_min_s": total(BLOCKS),
            "blocks.calls": count(BLOCKS),
            "analytic.mnp_s": total(MNP),
            "analytic.mnp_calls": count(MNP),
            "cli.sweep_self_s": self_time(SWEEP, minus=(THRESHOLD,)),
        }

    def per_threshold(self) -> list[dict]:
        """Eigensolves and matvecs under each outermost threshold span, in call order."""
        found = []
        for i in self._outermost(THRESHOLD):
            top = self.spans[i]
            counts = {"eigsolves": 0, "matvecs": 0, "seconds": top.duration}
            for j in range(i + 1, len(self.spans)):
                span = self.spans[j]
                if span.start >= top.end:
                    break
                if span.name == MATVEC:
                    counts["matvecs"] += 1
                elif span.parent == i and span.name in EIGSOLVES and span.error is None:
                    counts["eigsolves"] += 1
            found.append(counts)
        return found

    def dump(self) -> list[dict]:
        return [dataclasses.asdict(span) for span in self.spans]
