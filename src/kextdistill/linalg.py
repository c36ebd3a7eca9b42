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

TOL_HERM = 1e-12      # max entrywise |H - H^dag| accepted as Hermitian
REAL_IMAG_TOL = 1e-14  # max imaginary part for the real fast path
ITER_EIG_TOL = 1e-11  # absolute residual |Hv - theta v| of a full iterative solve: every sample that may set hi
LOOSE_EIG_SHARE = 1e-2  # a loose solve's residual, as a share of |the previous sample's value|; 1e-1 took more samples
TOL_EIG = 1e-9          # threshold predicate of every search: lambda_min < -TOL_EIG
DENSE_DIM_LIMIT = 4096  # rows of the largest piece schur_weyl forms and of ProbeAssembly's pieces; sets solver.DENSE_BYTES_LIMIT
EIG_SEED = 20260810     # start vector for iterative solves; fixed for reproducible curves
WARM_START_SEED_WEIGHT = 0.01  # share of the seeded start vector kept in a warm start
PENCIL_SOLVE_COLUMNS = 256  # columns per triangular solve in pencil_top


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


def layout(*pairs: tuple[str, int]) -> SystemLayout:
    """Shorthand: layout(("A", 2), ("B", 2))."""
    return SystemLayout(tuple(pairs))


def _check_hermitian(mat: np.ndarray) -> None:
    """ValueError unless mat is Hermitian within TOL_HERM.

    A NaN or inf entry fails too: it makes the asymmetry NaN or inf.
    """
    with np.errstate(invalid="ignore"):  # inf - inf
        asymmetry = np.abs(mat - mat.conj().T).max(initial=0.0)
    if not asymmetry <= TOL_HERM:
        if np.isfinite(mat).all():
            raise ValueError("matrix is not Hermitian within tol_herm=1e-12")
        raise ValueError("matrix has a NaN or infinite entry")


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
        _check_hermitian(mat)
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

    apply returns a new array, which eig_min_iterative then overwrites.
    norm_bound is a positive upper bound on the spectral norm of H;
    eig_min_iterative shifts H by it.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    norm_bound: float
    is_real: bool = True


# ---------------------------------------------------------------------------
# tensor-structure primitives


def _permutation_order(lay: SystemLayout, perm: Mapping[str, str]) -> list[int]:
    """order[q] = position of the subsystem whose content moves to position q under perm."""
    full = {lab: perm.get(lab, lab) for lab in lay.labels}
    if set(full.values()) != set(lay.labels):
        raise ValueError("perm must be a permutation of the layout labels")
    for src, dst in full.items():
        if lay.dim_of(src) != lay.dim_of(dst):
            raise ValueError(f"dimension mismatch: {src} ({lay.dim_of(src)}) -> {dst} ({lay.dim_of(dst)})")
    source = {dst: src for src, dst in full.items()}
    return [lay.index(source[lab]) for lab in lay.labels]


def _reordered(h: HermitianOperator, order: list[int], lay: SystemLayout) -> HermitianOperator:
    """h on lay, with both its row and its column subsystems moved to order."""
    full = order + [q + len(order) for q in order]
    out = h.entries.reshape(h.layout.dims * 2).transpose(full).reshape(h.dim, h.dim)
    return HermitianOperator(lay, out)


def permutation_matrix(lay: SystemLayout, perm: Mapping[str, str]) -> np.ndarray:
    """Matrix of the permutation moving the content of subsystem l to perm[l].

    The identity with its row subsystems permuted.  Not Hermitian in general
    (cycles of length > 2 are not); returned as a plain array.
    """
    order = _permutation_order(lay, perm)
    n, d = len(order), lay.total_dim
    return np.eye(d).reshape(lay.dims * 2).transpose(order + list(range(n, 2 * n))).reshape(d, d)


def swap_op(lay: SystemLayout, i: str, j: str) -> HermitianOperator:
    """Permutation operator exchanging subsystems i and j (an involution, V^2 = I)."""
    if lay.dim_of(i) != lay.dim_of(j):
        raise ValueError(f"cannot swap {i!r} (dim {lay.dim_of(i)}) with {j!r} (dim {lay.dim_of(j)})")
    return HermitianOperator(lay, permutation_matrix(lay, {i: j, j: i}))


def permute_subsystems(h: HermitianOperator, perm: Mapping[str, str]) -> HermitianOperator:
    """P h P^T for P = permutation_matrix(h.layout, perm): the content of subsystem l moves to perm[l]."""
    order = _permutation_order(h.layout, perm)
    return _reordered(h, order, h.layout)


def reorder_to(h: HermitianOperator, target: SystemLayout) -> HermitianOperator:
    """Re-express h on a layout listing the same subsystems in a different order."""
    if set(target.labels) != set(h.layout.labels):
        raise ValueError("target layout must carry the same labels")
    order = [h.layout.index(lab) for lab in target.labels]
    return _reordered(h, order, target)


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
    _check_hermitian(mat)
    return mat


def eig_min_dense(h: HermitianOperator | np.ndarray) -> float:
    """Smallest eigenvalue by a dense solve (accurate to ~1e-10 of the spectral norm)."""
    vals = scipy.linalg.eigh(_matrix_of(h), eigvals_only=True, subset_by_index=(0, 0))
    return float(vals[0])


def eig_min_dense_vec(h: HermitianOperator | np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a corresponding eigenvector."""
    vals, vecs = scipy.linalg.eigh(_matrix_of(h), subset_by_index=(0, 0))
    return float(vals[0]), vecs[:, 0]


def eig_min_iterative(
    handle: LinearMapHandle, v0: np.ndarray | None = None, residual: float = ITER_EIG_TOL
) -> tuple[float, np.ndarray]:
    """(lambda_min, eigenvector) of a self-adjoint matrix-free operator, by ARPACK Lanczos, to an absolute residual.

    ARPACK stops once the residual of its Ritz value theta is at most
    tol * |theta|, which near a threshold, where theta -> 0, asks for a
    residual at machine precision.  So the solve runs on H - sigma I with
    sigma = handle.norm_bound, at ARPACK tol = residual / sigma, and adds
    sigma back.  The shifted Ritz value has modulus at most 2 sigma, and about
    sigma near lambda_min = 0, so residual is an absolute residual, met to
    within a factor 2.  Lanczos is shift-invariant, so only the stopping test
    changes.  The returned Ritz value is a Rayleigh quotient, an upper bound
    on lambda_min up to rounding of about eps * sigma.  A residual looser
    than ITER_EIG_TOL stops earlier; the vector is then no eigenvector, but
    its Rayleigh quotient still bounds lambda_min from above.

    The start vector is drawn from EIG_SEED, with v0 (a warm start, such as
    the eigenvector of a nearby operator) added to it when given.  The seeded
    part keeps every eigenvector in the Krylov space: from a warm start alone,
    ARPACK converged to a higher eigenvalue once the lowest branch had
    changed.  Repeated solves are bit-identical.  There is one ARPACK attempt
    at ARPACK's default Krylov size and iteration budget; if it does not
    converge, SolverConvergenceError is raised instead of returning a stale
    iterate.
    """
    import scipy.sparse.linalg as spla  # here, its one user: importing the package does not load ARPACK (3.6 MB RSS)

    n = handle.dim
    sigma = handle.norm_bound

    def shifted(v: np.ndarray) -> np.ndarray:
        out = handle.apply(v)
        out -= sigma * v  # in place in the handle's new array, so a matvec allocates only sigma * v
        return out

    op = spla.LinearOperator((n, n), matvec=shifted, dtype=np.float64 if handle.is_real else np.complex128)
    rng = np.random.default_rng(EIG_SEED)
    start = rng.standard_normal(n) if handle.is_real else rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start /= np.linalg.norm(start)
    if v0 is not None:
        start = v0 / np.linalg.norm(v0) + WARM_START_SEED_WEIGHT * start
    try:
        vals, vecs = spla.eigsh(op, k=1, which="SA", tol=residual / sigma, v0=start)
    except spla.ArpackNoConvergence as exc:
        raise SolverConvergenceError(f"ARPACK did not converge on dimension {n}") from exc
    return float(vals[0]) + sigma, vecs[:, 0]


# ---------------------------------------------------------------------------
# thresholds


def _reduced_pencil(const: np.ndarray, chol: np.ndarray, copies: int, out: np.ndarray | None) -> np.ndarray:
    """(I (x) chol)^-1 (-const) (I (x) chol)^-dag in out (or a new array), whose Fortran-ordered transpose holds it."""
    t, n = len(chol), len(const)
    trsm = scipy.linalg.get_blas_funcs("trsm", (chol, const))
    work = np.negative(const, out=out)
    for slab in work.reshape(copies, t, n):
        # slab <- chol^-1 slab, written as slab^T <- slab^T chol^-T on its Fortran-ordered transpose
        trsm(1.0, chol, slab.T, side=1, lower=1, trans_a=1, overwrite_b=1)
    # rows <- rows chol^-dag, written as conj(rows)^T <- chol^-1 conj(rows)^T; the array then holds
    # the conjugate of the reduced Hermitian matrix, which is its transpose.  Solving all columns
    # in one trsm instead of PENCIL_SOLVE_COLUMNS at a time raised peak RSS by 1.6-1.9 MB on the
    # fig4 k = 5 curve and by 3.6-4.1 MB on five fig5 (3, 3) points (2 cores), through OpenBLAS's buffers
    columns = work.reshape(n * copies, t).T
    if np.iscomplexobj(work):
        np.conjugate(work, out=work)
    for start in range(0, n * copies, PENCIL_SOLVE_COLUMNS):
        trsm(1.0, chol, columns[:, start : start + PENCIL_SOLVE_COLUMNS], lower=1, overwrite_b=1)
    return work


def pencil_top(
    const: np.ndarray, chol: np.ndarray, copies: int = 1, out: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Top eigenvalue r of the pencil (-const, I_copies (x) L) and its eigenvector x, with x^dag (I (x) L) x = 1.

    chol is the lower Cholesky factor of L, and the rows of const and x are
    ordered (copy, row of L).  One working array of const's size (out, if
    given) holds -const; triangular solves reduce it in place to the standard
    Hermitian matrix (I (x) chol)^-1 (-const) (I (x) chol)^-dag, and LAPACK
    finds its top eigenpair (r, z) in place.  Then x = (I (x) chol)^-dag z,
    by the same BLAS trsm.
    """
    n = len(const)
    top = (n - 1, n - 1)
    vals, vecs = scipy.linalg.eigh(
        _reduced_pencil(const, chol, copies, out).T, subset_by_index=top, overwrite_a=True, check_finite=False
    )
    if not len(vals):
        # LAPACK's index-range solvers found no eigenpair where the top eigenvalue has a high
        # multiplicity (gamma = 0, k = 5: two distinct eigenvalues); solve the whole spectrum
        vals, vecs = scipy.linalg.eigh(_reduced_pencil(const, chol, copies, out).T, overwrite_a=True, check_finite=False)
    # x^T = chol^-dag z^T, copies as columns, by the reduction's BLAS trsm: on 2 cores LAPACK's trtrs
    # took 22-42 us per call, and up to 8.7 ms in some processes, where trsm took 2-4 us
    z = vecs[:, -1].reshape(copies, -1).T
    trsm = scipy.linalg.get_blas_funcs("trsm", (chol, z))
    return float(vals[-1]), trsm(1.0, chol, z, lower=1, trans_a=2, overwrite_b=1).T.reshape(-1)


def pencil_bracket(tops: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """threshold_sup's start bracket from the top pencil eigenpair of every block of the probe.

    Each block is C + alpha L with L positive definite, times a prefactor p
    (its largest, the one that scales negative eigenvalues), given as (r, g):
    r the top eigenvalue of the pencil (-C, L), and g = p x^dag L x for its
    unit eigenvector x.  The block is PSD for alpha >= r, so hi = min(1,
    max r) bounds the threshold from above.  At r - delta, delta = 2 TOL_EIG
    / g, the scaled Rayleigh quotient of x is -2 TOL_EIG, so lo = max(r -
    delta) is certified.  The first sample of threshold_sup confirms it: the
    caller may take that sample as the Rayleigh quotient of x itself, an upper
    bound on lambda_min, where the bracket is no wider than tol_alpha.  A
    block with g = 0 is never negative and is left out.  Returns [0, 1] if
    no block is left or a value is not finite.
    """
    tops = [(r, g) for r, g in tops if g != 0.0]
    if not tops or not all(math.isfinite(r) and math.isfinite(g) for r, g in tops):
        return 0.0, 1.0
    hi = min(1.0, max(r for r, _ in tops))
    lo = min(hi, max(r - 2.0 * TOL_EIG / g for r, g in tops))
    return float(max(lo, 0.0)), float(max(hi, 0.0))


def _sampled(f: Callable[..., tuple], alpha: float) -> tuple[float, float, bool]:
    """f(alpha) as (value, slope, exact); a bare (value, slope) is exact."""
    value, slope, *exact = f(alpha)
    return value, slope, all(exact)


def threshold_sup(
    f: Callable[[float], tuple], tol_alpha: float, bracket: tuple[float, float] = (0.0, 1.0)
) -> float:
    """Largest sampled alpha in [0, 1] with f(alpha) below -TOL_EIG, to bracket width tol_alpha.

    f(alpha) returns (value, slope), or (value, slope, exact).  value must be
    concave and nondecreasing in alpha, as lambda_min(C + alpha L) with L PSD
    is, and slope must be a supergradient there, as v^dag L v for a lowest
    eigenvector v is.  The tangent from the lower end lo then never passes the
    root, so a tangent step lands on a new certified lower end.  exact False
    marks a value that is only an upper bound, such as the Rayleigh quotient q
    of an unconverged vector v, with slope v^dag L v: that line, v^dag (C +
    alpha L) v, bounds lambda_min from above at every alpha, so its step
    still lands on a certified point.  Concavity also caps the slope by the
    chord from the previous lower end, which ends a stall on a slope that is
    too steep.  The cap is taken only where both ends are exact: a chord
    through an upper bound bounds nothing.

    The search starts from bracket = (lo, hi): the caller's claim that f is
    below -TOL_EIG at lo and not below it from hi on, such as pencil_bracket
    gives.  The first sample, at lo, checks the claim.  If it fails for lo > 0,
    the search starts over on [0, 1]; hi is taken on trust.  Newton steps run
    only while hi - lo > tol_alpha, so a bracket narrower than that costs
    that one sample.

    Each step aims a quarter of tol_alpha short of the tangent's -TOL_EIG
    crossing: far enough below -TOL_EIG to survive the eigensolver's error
    there, and close enough that the next probe, at lo + tol_alpha (the
    shortest step taken), closes the bracket.  A midpoint is taken instead
    when the slope is not positive, when the step does not end below hi, or
    when it is more than half the step before last (the rtsafe safeguard, for
    roots where tangent steps shrink slowly).  Returns 0.0 when f(0) is not
    below -TOL_EIG; hi is never sampled.
    """
    lo, hi = bracket
    value, slope, exact = _sampled(f, lo)
    if not value < -TOL_EIG and lo > 0.0:
        lo, hi = 0.0, 1.0
        value, slope, exact = _sampled(f, lo)
    if not value < -TOL_EIG:
        return 0.0
    last_step = step_before = math.inf
    while hi - lo > tol_alpha:
        alpha, closing = 0.5 * (lo + hi), False
        if slope > 0.0:
            step = max((-TOL_EIG - value) / slope - 0.25 * tol_alpha, tol_alpha)
            if lo + step < hi and step <= 0.5 * step_before:
                alpha, closing = lo + step, step == tol_alpha
        sample, sample_slope, sample_exact = _sampled(f, alpha)
        step_before, last_step = last_step, alpha - lo
        if sample < -TOL_EIG:
            if exact and sample_exact:
                sample_slope = min(sample_slope, (sample - value) / last_step)
            lo, value, slope, exact = alpha, sample, sample_slope, sample_exact
        else:
            hi = alpha
            if closing:
                break
    return lo
