"""Dense and matrix-free Hermitian operator engine.

Index convention: composite indices are row-major, with the first listed
subsystem most significant (numpy C-order reshape).  All permutation and
partial-trace machinery relies on this and is bit-exact reproducible.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

TOL_HERM = 1e-12      # max entrywise |H - H^dag| accepted as Hermitian
REAL_IMAG_TOL = 1e-14  # max imaginary part for the real fast path
ITER_EIG_TOL = 1e-11  # absolute residual |Hv - theta v| at which an iterative solve stops
TOL_EIG = 1e-9          # threshold predicate of every search: lambda_min < -TOL_EIG
DENSE_DIM_LIMIT = 4096  # dense eigensolves below this dimension, iterative at/above
EIG_SEED = 20260810     # start vector for iterative solves; fixed for reproducible curves
WARM_START_SEED_WEIGHT = 0.01  # share of the seeded start vector kept in a warm start


class SolverConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge within the iteration budget."""


@dataclass(frozen=True)
class SystemLayout:
    """Ordered subsystem labels and dimensions; the index-arithmetic backbone."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        subs = tuple((str(lab), int(dim)) for lab, dim in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        labels = [lab for lab, _ in subs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels: {labels}")
        if any(dim < 1 for _, dim in subs):
            raise ValueError("subsystem dimensions must be positive integers")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64)) if self.subsystems else 1

    def index(self, label: str) -> int:
        for pos, (lab, _) in enumerate(self.subsystems):
            if lab == label:
                return pos
        raise KeyError(f"unknown subsystem label {label!r}")

    def dim_of(self, label: str) -> int:
        return self.subsystems[self.index(label)][1]

    def keep(self, labels: Iterable[str]) -> "SystemLayout":
        """Sub-layout of the given labels, in original order."""
        wanted = set(labels)
        unknown = wanted - set(self.labels)
        if unknown:
            raise KeyError(f"unknown subsystem labels {sorted(unknown)}")
        return SystemLayout(tuple(s for s in self.subsystems if s[0] in wanted))

    def concat(self, other: "SystemLayout") -> "SystemLayout":
        return SystemLayout(self.subsystems + other.subsystems)


def layout(*pairs: tuple[str, int]) -> SystemLayout:
    """Shorthand: layout(("A", 2), ("B", 2))."""
    return SystemLayout(tuple(pairs))


def _as_real_if_possible(mat: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(mat):
        if np.abs(mat.imag).max(initial=0.0) <= REAL_IMAG_TOL:
            return np.ascontiguousarray(mat.real)
        return np.ascontiguousarray(mat.astype(np.complex128, copy=False))
    return np.ascontiguousarray(mat.astype(np.float64, copy=False))


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix with an attached subsystem layout.

    Entries are stored as float64 whenever the imaginary part is negligible
    (the real fast path: every Werner-state experiment is real in the
    computational basis), complex128 otherwise.
    """

    layout: SystemLayout
    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries)
        d = self.layout.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match layout dimension {d}")
        if np.abs(mat - mat.conj().T).max(initial=0.0) > TOL_HERM:
            raise ValueError("matrix is not Hermitian within tol_herm=1e-12")
        object.__setattr__(self, "entries", _as_real_if_possible(mat))

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.entries)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


@dataclass(frozen=True)
class LinearMapHandle:
    """Matrix-free self-adjoint operator: apply() returns H @ v without materializing H.

    norm_bound is a positive upper bound on the spectral norm of H;
    eig_min_iterative shifts H by it.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    norm_bound: float
    is_real: bool = True


# ---------------------------------------------------------------------------
# tensor-structure primitives


def kron(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product; the layout is the concatenation of the two layouts."""
    return HermitianOperator(a.layout.concat(b.layout), np.kron(a.entries, b.entries))


def relabel(h: HermitianOperator, mapping: Mapping[str, str]) -> HermitianOperator:
    """Rename subsystem labels without touching the entries."""
    subs = tuple((mapping.get(lab, lab), dim) for lab, dim in h.layout.subsystems)
    return HermitianOperator(SystemLayout(subs), h.entries)


def _permutation_axes(lay: SystemLayout, perm: Mapping[str, str]) -> list[int]:
    """axes[p] = position that the content of subsystem p moves to under perm."""
    full = {lab: perm.get(lab, lab) for lab in lay.labels}
    if set(full.values()) != set(lay.labels):
        raise ValueError("perm must be a permutation of the layout labels")
    for src, dst in full.items():
        if lay.dim_of(src) != lay.dim_of(dst):
            raise ValueError(f"dimension mismatch: {src} ({lay.dim_of(src)}) -> {dst} ({lay.dim_of(dst)})")
    return [lay.index(full[lab]) for lab in lay.labels]


def permutation_matrix(lay: SystemLayout, perm: Mapping[str, str]) -> np.ndarray:
    """Matrix of the permutation moving the content of subsystem l to perm[l].

    Not Hermitian in general (cycles of length > 2 are not); returned as a
    plain array.
    """
    axes = _permutation_axes(lay, perm)
    dims = lay.dims
    d = lay.total_dim
    digits = np.unravel_index(np.arange(d), dims)
    target = [None] * len(dims)
    for src, dst in enumerate(axes):
        target[dst] = digits[src]
    dest = np.ravel_multi_index(tuple(target), dims)
    mat = np.zeros((d, d))
    mat[dest, np.arange(d)] = 1.0
    return mat


def swap_op(lay: SystemLayout, i: str, j: str) -> HermitianOperator:
    """Permutation operator exchanging subsystems i and j (an involution, V^2 = I)."""
    if lay.dim_of(i) != lay.dim_of(j):
        raise ValueError(f"cannot swap {i!r} (dim {lay.dim_of(i)}) with {j!r} (dim {lay.dim_of(j)})")
    return HermitianOperator(lay, permutation_matrix(lay, {i: j, j: i}))


def permute_subsystems(h: HermitianOperator, perm: Mapping[str, str]) -> HermitianOperator:
    """Conjugate h by the permutation moving the content of subsystem l to perm[l]."""
    lay = h.layout
    n = len(lay.dims)
    # out[J] = H[sigma(J)] with sigma(J)_l = J_{pos(perm[l])}
    axes = _permutation_axes(lay, perm)
    order = axes + [a + n for a in axes]
    out = h.entries.reshape(lay.dims * 2).transpose(order).reshape(h.dim, h.dim)
    return HermitianOperator(lay, out)


def reorder_to(h: HermitianOperator, target: SystemLayout) -> HermitianOperator:
    """Re-express h on a layout listing the same subsystems in a different order."""
    if set(target.labels) != set(h.layout.labels):
        raise ValueError("target layout must carry the same labels")
    n = len(target.dims)
    axes = [h.layout.index(lab) for lab in target.labels]
    order = axes + [a + n for a in axes]
    out = h.entries.reshape(h.layout.dims * 2).transpose(order).reshape(h.dim, h.dim)
    return HermitianOperator(target, out)


def partial_trace(h: HermitianOperator, keep: Iterable[str]) -> HermitianOperator:
    """Trace out every subsystem not in `keep`; preserves the total trace."""
    lay = h.layout
    sub = lay.keep(keep)
    kept = set(sub.labels)
    n = len(lay.dims)
    if 2 * n > len(string.ascii_letters):
        raise ValueError("too many subsystems for einsum contraction")
    letters = string.ascii_letters
    idx_in = [letters[p] for p in range(2 * n)]
    for p, lab in enumerate(lay.labels):
        if lab not in kept:
            idx_in[n + p] = idx_in[p]
    idx_out = [idx_in[p] for p, lab in enumerate(lay.labels) if lab in kept]
    idx_out += [idx_in[n + p] for p, lab in enumerate(lay.labels) if lab in kept]
    spec = "".join(idx_in) + "->" + "".join(idx_out)
    d = sub.total_dim
    out = np.einsum(spec, h.entries.reshape(lay.dims * 2)).reshape(d, d)
    return HermitianOperator(sub, out)


def partial_transpose(h: HermitianOperator, labels: Iterable[str]) -> HermitianOperator:
    """Transpose the given subsystems in the computational basis."""
    lay = h.layout
    targets = {lab for lab in labels}
    unknown = targets - set(lay.labels)
    if unknown:
        raise KeyError(f"unknown subsystem labels {sorted(unknown)}")
    n = len(lay.dims)
    order = list(range(2 * n))
    for p, lab in enumerate(lay.labels):
        if lab in targets:
            order[p], order[n + p] = order[n + p], order[p]
    out = h.entries.reshape(lay.dims * 2).transpose(order).reshape(h.dim, h.dim)
    return HermitianOperator(lay, out)


def embed(lay: SystemLayout, ops: Mapping[tuple[str, ...] | str, np.ndarray]) -> HermitianOperator:
    """Place operators on selected (possibly joint) subsystems, identity elsewhere.

    Keys are labels or label tuples; a tuple key carries one matrix acting
    jointly on those subsystems, indexed in the order given by the key.
    """
    placed: list[tuple[tuple[str, ...], np.ndarray]] = []
    used: set[str] = set()
    for key, mat in ops.items():
        labs = (key,) if isinstance(key, str) else tuple(key)
        mat = np.asarray(mat)
        d = int(np.prod([lay.dim_of(l) for l in labs]))
        if mat.shape != (d, d):
            raise ValueError(f"operator for {labs} has shape {mat.shape}, expected {(d, d)}")
        if used & set(labs):
            raise ValueError(f"subsystems {sorted(used & set(labs))} placed twice")
        used |= set(labs)
        placed.append((labs, mat))
    built_labels: list[str] = []
    pieces: list[np.ndarray] = []
    for labs, mat in placed:
        built_labels.extend(labs)
        pieces.append(mat)
    for lab in lay.labels:
        if lab not in used:
            built_labels.append(lab)
            pieces.append(np.eye(lay.dim_of(lab)))
    acc = pieces[0]
    for piece in pieces[1:]:
        acc = np.kron(acc, piece)
    built = HermitianOperator(SystemLayout(tuple((lab, lay.dim_of(lab)) for lab in built_labels)), acc)
    return reorder_to(built, lay)


# ---------------------------------------------------------------------------
# extremal eigenvalues


def _matrix_of(h: HermitianOperator | np.ndarray) -> np.ndarray:
    if isinstance(h, HermitianOperator):
        return h.entries
    mat = np.asarray(h)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    if np.abs(mat - mat.conj().T).max(initial=0.0) > TOL_HERM:
        raise ValueError("matrix is not Hermitian within tol_herm=1e-12")
    return mat


def eig_min_dense(h: HermitianOperator | np.ndarray) -> float:
    """Smallest eigenvalue by a dense solve (accurate to ~1e-10 of the spectral norm)."""
    vals = scipy.linalg.eigh(_matrix_of(h), eigvals_only=True, subset_by_index=(0, 0))
    return float(vals[0])


def eig_min_dense_vec(h: HermitianOperator | np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a corresponding eigenvector."""
    vals, vecs = scipy.linalg.eigh(_matrix_of(h), subset_by_index=(0, 0))
    return float(vals[0]), vecs[:, 0]


def eig_min_iterative(handle: LinearMapHandle, v0: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """(lambda_min, eigenvector) of a self-adjoint matrix-free operator, by ARPACK Lanczos.

    ARPACK stops once the residual of its Ritz value theta is at most
    tol * |theta|, which near a threshold, where theta -> 0, asks for a
    residual at machine precision.  So the solve runs on H - sigma I with
    sigma = handle.norm_bound, at ARPACK tol = ITER_EIG_TOL / sigma, and adds
    sigma back.  The shifted Ritz value has modulus at most 2 sigma, and about
    sigma near lambda_min = 0, so ITER_EIG_TOL is an absolute residual, met to
    within a factor 2.  Lanczos is shift-invariant, so only the stopping test
    changes.  The returned Ritz value is a Rayleigh quotient, an upper bound
    on lambda_min up to rounding of about eps * sigma.

    The start vector is drawn from EIG_SEED, with v0 (a warm start, such as
    the eigenvector of a nearby operator) added to it when given.  The seeded
    part keeps every eigenvector in the Krylov space: from a warm start alone,
    ARPACK converged to a higher eigenvalue once the lowest branch had
    changed.  Repeated solves are bit-identical.  There is one ARPACK attempt
    at ARPACK's default Krylov size and iteration budget; if it does not
    converge, SolverConvergenceError is raised instead of returning a stale
    iterate.
    """
    n = handle.dim
    sigma = handle.norm_bound
    op = spla.LinearOperator(
        (n, n),
        matvec=lambda v: handle.apply(v) - sigma * v,
        dtype=np.float64 if handle.is_real else np.complex128,
    )
    rng = np.random.default_rng(EIG_SEED)
    start = rng.standard_normal(n) if handle.is_real else rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start /= np.linalg.norm(start)
    if v0 is not None:
        start = v0 / np.linalg.norm(v0) + WARM_START_SEED_WEIGHT * start
    try:
        vals, vecs = spla.eigsh(op, k=1, which="SA", tol=ITER_EIG_TOL / sigma, v0=start)
    except spla.ArpackNoConvergence as exc:
        raise SolverConvergenceError(f"ARPACK did not converge on dimension {n}") from exc
    return float(vals[0]) + sigma, vecs[:, 0]


# ---------------------------------------------------------------------------
# thresholds


def threshold_sup(f: Callable[[float], tuple[float, float]], tol_alpha: float) -> float:
    """Largest sampled alpha in [0, 1] with f(alpha) below -TOL_EIG, to bracket width tol_alpha.

    f(alpha) returns (value, slope).  value must be concave and nondecreasing
    in alpha, as lambda_min(C + alpha L) with L PSD is, and slope must be a
    supergradient there, as v^dag L v for a lowest eigenvector v is.  The
    tangent from the lower end lo then never passes the root, so a tangent
    step lands on a new certified lower end.  Concavity also caps the slope by
    the chord from the previous lower end, which ends a stall on a slope that
    is too steep.

    Each step aims a quarter of tol_alpha short of the tangent's -TOL_EIG
    crossing: far enough below -TOL_EIG to survive the eigensolver's error
    there, and close enough that the next probe, at lo + tol_alpha (the
    shortest step taken), closes the bracket.  A midpoint is taken instead
    when the slope is not positive, when the step does not end below hi, or
    when it is more than half the step before last (the rtsafe safeguard, for
    roots where tangent steps shrink slowly).  Returns 0.0 when f(0) is not
    below -TOL_EIG; hi = 1 is never sampled.
    """
    lo, hi = 0.0, 1.0
    value, slope = f(lo)
    if not value < -TOL_EIG:
        return 0.0
    last_step = step_before = math.inf
    while hi - lo > tol_alpha:
        alpha, closing = 0.5 * (lo + hi), False
        if slope > 0.0:
            step = max((-TOL_EIG - value) / slope - 0.25 * tol_alpha, tol_alpha)
            if lo + step < hi and step <= 0.5 * step_before:
                alpha, closing = lo + step, step == tol_alpha
        sample, sample_slope = f(alpha)
        step_before, last_step = last_step, alpha - lo
        if sample < -TOL_EIG:
            lo, value, slope = alpha, sample, min(sample_slope, (sample - value) / last_step)
        else:
            hi = alpha
            if closing:
                break
    return lo
