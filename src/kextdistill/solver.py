"""Core engine: symmetrized probe assembly, threshold search, CJ-map evaluation,
and the measure-and-prepare constructions reaching unit fidelity.

The probe for a state rho on A x B with n copies and k extensions is

    sum_i V_i ((rho^{x n})^T x M^alpha x I) V_i,

where the n copies are fused into composite A and B subsystems before the
extensions attach, V_i swaps the distinguished (B, b) pair with the i-th
extension pair, and M^alpha = alpha*I - Bell on the two output qubits.  Its
smallest eigenvalue is negative exactly when fidelity above alpha is reachable
by a k-extendible map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import blocks
from .linalg import TOL_EIG  # the one certification tolerance; perfbench/checks.py reads solver.TOL_EIG

# perfbench/spans.py wraps the eigensolvers and state constructors under these
# names in this module, so they stay bound here by from-import.
from .linalg import (
    DENSE_DIM_LIMIT,
    HermitianOperator,
    LinearMapHandle,
    SystemLayout,
    eig_min_dense,
    eig_min_dense_vec,
    eig_min_iterative,
    layout,
    partial_trace,
    permute_subsystems,
    reorder_to,
    threshold_sup,
)
from .states import (
    TOL_PSD,
    DensityOperator,
    WernerParams,
    bell_state,
    from_matrix,
    werner,
    werner_params_of,
)

DEFAULT_TOL_ALPHA = 1e-8
MIN_TOL_ALPHA = 1e-10   # tighter than the eigensolver tolerances can resolve
SIDES = ("bob", "alice")
BELLS = ("phi_plus", "psi_minus")
BACKENDS = ("auto", "dense", "iterative", "s3_blocks")


class SingularOutputError(RuntimeError):
    """The map annihilated the input state; fidelity is undefined."""


@dataclass(frozen=True)
class CJOperator:
    """Choi state of a map from A x B to the two output qubits a, b (unnormalized)."""

    op: HermitianOperator

    def __post_init__(self) -> None:
        labs = self.op.layout.labels
        if labs != ("A", "B", "a", "b"):
            raise ValueError(f"CJ operator must live on (A, B, a, b), got {labs}")
        lam = eig_min_dense(self.op)
        scale = max(1.0, float(np.abs(self.op.entries).max()))
        if lam < -TOL_PSD * scale:
            raise ValueError(f"CJ operator is not PSD: smallest eigenvalue {lam:.3e}")

    @property
    def layout(self) -> SystemLayout:
        return self.op.layout

    @property
    def matrix(self) -> np.ndarray:
        return self.op.entries


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the threshold search.

    alpha_star is the largest sampled alpha at which the probe was certified
    negative, a lower bound on the supremum that is exact (within tolerance)
    for full-rank states and a certified lower bound otherwise.  samples holds
    every (alpha, lambda_min) the search evaluated, sorted by alpha.
    certificate is the probe eigenvector of lambda_residual at alpha_star:
    None for s3_blocks, or when no alpha was certified negative.
    For s3_blocks, lambda_residual is (d^2 + gamma d)^n times the probe
    eigenvalue (see blocks.s3_block_lambda_min), left unscaled: TOL_EIG is
    absolute, and at n = 8, d = 3 the probe-scale value is -4.4e-14 to -1.6e-10.
    """

    alpha_star: float
    samples: tuple[tuple[float, float], ...]
    full_rank: bool
    backend: str
    lambda_residual: float
    certificate: np.ndarray | None = None


@dataclass(frozen=True)
class KExtProblem:
    """An instance: state, copies n, extensions k, extension side, Bell target, backend."""

    state: DensityOperator
    n: int = 1
    k: int = 1
    side: str = "bob"
    bell: str = "phi_plus"
    backend: str = "auto"

    def __post_init__(self) -> None:
        if len(self.state.layout.subsystems) != 2:
            raise ValueError("the input state must be bipartite")
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 copies and k >= 1 extensions")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if self.bell not in BELLS:
            raise ValueError(f"bell must be one of {BELLS}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.backend == "dense" and self.total_dim > DENSE_DIM_LIMIT:
            raise ValueError(
                f"dense backend limited to dimension {DENSE_DIM_LIMIT}, "
                f"this problem has {self.total_dim}"
            )
        if self.backend == "s3_blocks":
            if self.k != 1:
                raise ValueError("the block backend covers k = 1 only")
            werner_params_of(self.state)

    @classmethod
    def for_werner(
        cls,
        d: int,
        gamma: float | None = None,
        p: float | None = None,
        n: int = 1,
        k: int = 1,
        side: str = "bob",
        bell: str = "phi_plus",
        backend: str = "auto",
    ) -> "KExtProblem":
        return cls(
            state=werner(WernerParams(d=d, gamma=gamma, p=p)),
            n=n,
            k=k,
            side=side,
            bell=bell,
            backend=backend,
        )

    @property
    def input_dims(self) -> tuple[int, int]:
        (_, d_a), (_, d_b) = self.state.layout.subsystems
        return d_a, d_b

    @property
    def total_dim(self) -> int:
        d_a, d_b = self.input_dims
        if self.side == "bob":
            return d_a**self.n * d_b ** (self.n * (self.k + 1)) * 2 ** (self.k + 2)
        return d_a ** (self.n * (self.k + 1)) * d_b**self.n * 2 ** (self.k + 2)

    def resolved_backend(self) -> str:
        if self.backend != "auto":
            return self.backend
        return "dense" if self.total_dim < DENSE_DIM_LIMIT else "iterative"


def _fuse_copies(mat: np.ndarray, d_a: int, d_b: int, n: int) -> np.ndarray:
    """(A1 B1 A2 B2 ...) ordered n-fold product, regrouped as (A1..An, B1..Bn)."""
    if n == 1:
        return mat
    acc = mat
    for _ in range(n - 1):
        acc = np.kron(acc, mat)
    dims = (d_a, d_b) * n
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    order = order + [p + 2 * n for p in order]
    big = d_a**n * d_b**n
    return acc.reshape(dims * 2).transpose(order).reshape(big, big)


def _apply_pair(op4: np.ndarray, tensor: np.ndarray, p: int, q: int) -> np.ndarray:
    """Contract a two-system operator (shape (dp, dq, dp, dq)) into axes p, q of tensor."""
    out = np.tensordot(op4, tensor, axes=([2, 3], [p, q]))
    return np.moveaxis(out, (0, 1), (p, q))


class ProbeAssembly:
    """The probe as probe(alpha) = const_part + alpha * linear_part, built from one term kernel.

    Pair i contributes alpha * rho_i - Bell_i rho_i, where rho_i is the fused
    state on the i-th big pair and Bell_i the target on the i-th qubit pair;
    both the matrix-free handle and the dense pieces are sums of `term`.
    """

    def __init__(self, problem: KExtProblem):
        self.problem = problem
        d_a, d_b = problem.input_dims
        n, k = problem.n, problem.k
        rho_t = problem.state.matrix.T
        self.rho_fused = _fuse_copies(rho_t, d_a, d_b, n)
        self.bell = bell_state(problem.bell, 2).matrix
        big_a, big_b = d_a**n, d_b**n
        if problem.side == "bob":
            subs = [("A", big_a)] + [(f"B{i}", big_b) for i in range(k + 1)]
            subs += [("a", 2)] + [(f"b{i}", 2) for i in range(k + 1)]
            self.pairs = [(("A", f"B{i}"), ("a", f"b{i}")) for i in range(k + 1)]
        else:
            subs = [(f"A{i}", big_a) for i in range(k + 1)] + [("B", big_b)]
            subs += [(f"a{i}", 2) for i in range(k + 1)] + [("b", 2)]
            self.pairs = [((f"A{i}", "B"), (f"a{i}", "b")) for i in range(k + 1)]
        self.layout = SystemLayout(tuple(subs))
        self.is_real = not np.iscomplexobj(self.rho_fused)
        # |alpha I - Bell| <= 1 on [0, 1] and |(rho^{x n})^T| = lambda_max(rho)^n, per pair
        self.norm_bound = (k + 1) * float(np.linalg.eigvalsh(problem.state.matrix)[-1]) ** n
        self._rho_r = self.rho_fused.reshape(big_a, big_b, big_a, big_b)
        self._bell_r = self.bell.reshape(2, 2, 2, 2)
        self._axes = [
            (
                (self.layout.index(big[0]), self.layout.index(big[1])),
                (self.layout.index(small[0]), self.layout.index(small[1])),
            )
            for big, small in self.pairs
        ]
        self._dense_pieces: tuple[np.ndarray, np.ndarray] | None = None

    def term(self, x: np.ndarray, pair: int) -> tuple[np.ndarray, np.ndarray]:
        """(rho_i x, Bell_i rho_i x) for x shaped layout.dims plus optional trailing columns."""
        (pa, pb), (qa, qb) = self._axes[pair]
        rv = _apply_pair(self._rho_r, x, pa, pb)
        return rv, _apply_pair(self._bell_r, rv, qa, qb)

    def dense_pieces(self) -> tuple[np.ndarray, np.ndarray]:
        if self._dense_pieces is None:
            dim = self.layout.total_dim
            shape = self.layout.dims + (dim,)
            dtype = np.float64 if self.is_real else np.complex128
            const = np.zeros(shape, dtype=dtype)
            linear = np.zeros(shape, dtype=dtype)
            eye = np.eye(dim, dtype=dtype).reshape(shape)
            for i in range(len(self.pairs)):
                rv, brv = self.term(eye, i)
                linear += rv
                const -= brv
                # free this pair's columns before the next pair allocates its own
                del rv, brv
            self._dense_pieces = (const.reshape(dim, dim), linear.reshape(dim, dim))
        return self._dense_pieces

    def dense(self, alpha: float) -> HermitianOperator:
        const, linear = self.dense_pieces()
        return HermitianOperator(self.layout, const + alpha * linear)

    def handle(self, alpha: float) -> LinearMapHandle:
        dims = self.layout.dims

        def apply(vec: np.ndarray) -> np.ndarray:
            vt = vec.reshape(dims)
            acc = np.zeros_like(vt)
            for i in range(len(self.pairs)):
                rv, brv = self.term(vt, i)
                acc = acc + alpha * rv - brv
            return acc.reshape(-1)

        return LinearMapHandle(
            dim=self.layout.total_dim, apply=apply, norm_bound=self.norm_bound, is_real=self.is_real
        )


def build_probe(problem: KExtProblem, alpha: float) -> HermitianOperator | LinearMapHandle:
    """Assemble the symmetrized probe at a given alpha (dense matrix or matrix-free handle)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    backend = problem.resolved_backend()
    if backend == "s3_blocks":
        raise ValueError("the block backend has no explicit probe; use lambda_min_alpha")
    assembly = ProbeAssembly(problem)
    if backend == "dense":
        return assembly.dense(alpha)
    return assembly.handle(alpha)


def _lambda_min_solver(
    problem: KExtProblem,
) -> Callable[[float], tuple[float, float, np.ndarray | None]]:
    """alpha -> (lambda_min, slope, eigenvector or None) through the problem's backend.

    The slope is v^dag L v for the returned eigenvector v and the linear part
    L: a supergradient of the concave lambda_min (Hellmann-Feynman), computed
    through the term kernel.  Each iterative solve starts from the previous
    eigenvector, the first from EIG_SEED.  The block backend reads gamma and
    d from the Werner state, takes the slope of its lowest block and returns
    no probe eigenvector.  A non-converging iterative solve raises
    SolverConvergenceError.
    """
    backend = problem.resolved_backend()
    if backend == "s3_blocks":
        params = werner_params_of(problem.state)
        return lambda alpha: (*blocks.s3_block_lambda_min(params.gamma, alpha, problem.n, params.d), None)
    assembly = ProbeAssembly(problem)
    dims = assembly.layout.dims
    previous: np.ndarray | None = None

    def with_slope(lam: float, vec: np.ndarray) -> tuple[float, float, np.ndarray]:
        v = vec.reshape(dims)
        slope = sum(np.vdot(v, assembly.term(v, i)[0]).real for i in range(len(assembly.pairs)))
        return lam, float(slope), vec

    def solve(alpha: float) -> tuple[float, float, np.ndarray]:
        nonlocal previous
        if backend == "dense":
            return with_slope(*eig_min_dense_vec(assembly.dense(alpha)))
        lam, vec = eig_min_iterative(assembly.handle(alpha), v0=previous)
        previous = vec
        return with_slope(lam, vec)

    return solve


def lambda_min_alpha(problem: KExtProblem, alpha: float) -> float:
    """Smallest probe eigenvalue at alpha via the problem's backend."""
    return _lambda_min_solver(problem)(alpha)[0]


def check_tol_alpha(tol_alpha: float) -> float:
    """tol_alpha if MIN_TOL_ALPHA <= tol_alpha < 1, else ValueError: at 1, inf or NaN the search never starts."""
    if not MIN_TOL_ALPHA <= tol_alpha < 1.0:
        raise ValueError(f"tol_alpha must be at least {MIN_TOL_ALPHA:g} and below 1, got {tol_alpha!r}")
    return tol_alpha


def fidelity_threshold(problem: KExtProblem, tol_alpha: float = DEFAULT_TOL_ALPHA) -> ThresholdResult:
    """sup{alpha : lambda_min(alpha) < -TOL_EIG} over [0, 1], found by linalg.threshold_sup.

    The alpha-derivative of the probe is a symmetrized PSD operator, so
    lambda_min is a minimum of nondecreasing affine functions of alpha:
    nondecreasing and concave, with the backend's slope as a tangent.
    """
    check_tol_alpha(tol_alpha)
    backend = problem.resolved_backend()
    solve = _lambda_min_solver(problem)
    samples: list[tuple[float, float]] = []
    residual, certificate = None, None

    def evaluate(alpha: float) -> tuple[float, float]:
        nonlocal residual, certificate
        value, slope, vec = solve(alpha)
        samples.append((alpha, value))
        if value < -TOL_EIG:
            # the driver moves its lower end here, so this sample certifies it
            residual, certificate = value, vec
        return value, slope

    alpha_star = threshold_sup(evaluate, tol_alpha)
    if residual is None:
        residual = samples[0][1]
    return ThresholdResult(
        alpha_star=alpha_star,
        samples=tuple(sorted(samples)),
        full_rank=problem.state.is_full_rank(),
        backend=backend,
        lambda_residual=residual,
        certificate=certificate,
    )


# ---------------------------------------------------------------------------
# symmetrization and CJ machinery


def symmetrize(h: HermitianOperator, groups: Sequence[Sequence[str]]) -> HermitianOperator:
    """sum_i V_i h V_i where V_i swaps the first label group with the i-th (V_0 = I)."""
    if len(groups) < 1:
        raise ValueError("need at least the distinguished group")
    head = tuple(groups[0])
    acc = h.entries.copy()
    for other in groups[1:]:
        other = tuple(other)
        if len(other) != len(head):
            raise ValueError("groups must have equal length")
        perm = {}
        for x, y in zip(head, other):
            perm[x] = y
            perm[y] = x
        acc = acc + permute_subsystems(h, perm).entries
    return HermitianOperator(h.layout, acc)


def evaluate_map_fidelity(cj: CJOperator, state: DensityOperator) -> float:
    """Overlap of the (renormalized) map output with the Bell target.

    The map acts through its Choi state: Lambda(rho) is d^2 times the partial
    trace over the inputs of cj * (rho^T x I).  Raises SingularOutputError
    when the output trace vanishes (never happens for full-rank states).
    """
    d_a = cj.layout.dim_of("A")
    d_b = cj.layout.dim_of("B")
    (_, sa), (_, sb) = state.layout.subsystems
    if (sa, sb) != (d_a, d_b):
        raise ValueError(f"state dims {(sa, sb)} do not match CJ input dims {(d_a, d_b)}")
    d_in = d_a * d_b
    cj_grouped = cj.matrix.reshape(d_in, 4, d_in, 4)
    rho_t = state.matrix.T
    out = d_in * np.einsum("ixjy,ji->xy", cj_grouped, rho_t)
    tr_out = float(np.trace(out).real)
    scale = max(1.0, float(np.abs(out).max()))
    if tr_out <= 1e-12 * scale:
        raise SingularOutputError("the map output has vanishing trace on this state")
    target = bell_state("phi_plus", 2).matrix
    fid = float(np.trace(out @ target).real) / tr_out
    return min(max(fid, 0.0), 1.0)


def _mnp_choi(pairs: Sequence[tuple[np.ndarray, np.ndarray]], dims: tuple[int, ...], side: str) -> CJOperator:
    """sum_i m_in_i^T x m_out_i over (sigma_in on (S, X), sigma_out on (s, x)) marginal pairs.

    dims are (d_S, d_X, d_s, d_x); (S, X, s, x) is (A, B, a, b) for bob, (B, A, b, a) for alice.
    """
    labels = ("A", "B", "a", "b") if side == "bob" else ("B", "A", "b", "a")
    mat = sum(np.kron(m_in.T, m_out) for m_in, m_out in pairs)
    core = HermitianOperator(SystemLayout(tuple(zip(labels, dims))), mat)
    d_a, d_b = core.layout.dim_of("A"), core.layout.dim_of("B")
    return CJOperator(reorder_to(core, layout(("A", d_a), ("B", d_b), ("a", 2), ("b", 2))))


def cj_of_mnp(
    sigma_in: DensityOperator,
    sigma_out: DensityOperator,
    side: str = "bob",
) -> CJOperator:
    """Choi state of the measure-and-prepare map defined by two extended states.

    Both states live on (spectator, slot_0, ..., slot_k); measuring the
    reduction of sigma_in on slot i prepares the matching reduction of
    sigma_out.  The Choi state is sum_i (sigma_in)_{S,X_i}^T x
    (sigma_out)_{s,x_i} over the k + 1 two-slot marginals: the slot-0
    reduction of the slot-symmetrized sigma_in^T x sigma_out, so it is
    k-extendible by construction.  Nothing on the joint space of both states
    is formed, so the cost is k + 1 partial traces of the given states.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    subs_in = sigma_in.layout.subsystems
    subs_out = sigma_out.layout.subsystems
    if len(subs_in) != len(subs_out) or len(subs_in) < 3:
        raise ValueError("need matching layouts (spectator, slot_0, ..., slot_k) with k >= 1")
    slot_dims = {dim for _, dim in subs_in[1:]}
    if len(slot_dims) != 1 or {dim for _, dim in subs_out[1:]} != {subs_out[1][1]}:
        raise ValueError("all slots of each state must share one dimension")

    (s_in, *x_in), (s_out, *x_out) = sigma_in.layout.labels, sigma_out.layout.labels
    pairs = [
        (partial_trace(sigma_in.op, (s_in, x)).entries, partial_trace(sigma_out.op, (s_out, y)).entries)
        for x, y in zip(x_in, x_out)
    ]
    dims = (subs_in[0][1], subs_in[1][1], subs_out[0][1], subs_out[1][1])
    return _mnp_choi(pairs, dims, side)


# ---------------------------------------------------------------------------
# unit-fidelity constructions for rank-deficient states


def _find_product_kernel_vector(state: DensityOperator):
    """Search for |phi>|psi> annihilated by the state; None if the search fails."""
    tol = 1e-11
    (_, d_a), (_, d_b) = state.layout.subsystems
    rho = state.matrix
    tensor = rho.reshape(d_a, d_b, d_a, d_b)
    diag = np.real(np.diagonal(rho))
    order = np.argsort(diag)
    for flat in order[: d_a * d_b]:
        if diag[flat] > tol:
            break
        i, j = divmod(int(flat), d_b)
        phi = np.zeros(d_a, dtype=complex)
        psi = np.zeros(d_b, dtype=complex)
        phi[i] = 1.0
        psi[j] = 1.0
        return phi, psi

    def b_matrix(phi: np.ndarray) -> np.ndarray:
        return np.einsum("a,abcd,c->bd", phi.conj(), tensor, phi)

    def a_matrix(psi: np.ndarray) -> np.ndarray:
        return np.einsum("b,abcd,d->ac", psi.conj(), tensor, psi)

    rng = np.random.default_rng(11)
    starts = [rng.standard_normal(d_a) + 1j * rng.standard_normal(d_a) for _ in range(6)]
    for phi in starts:
        phi = phi / np.linalg.norm(phi)
        value = np.inf
        psi = None
        for _ in range(80):
            _, vecs = np.linalg.eigh(b_matrix(phi))
            psi = vecs[:, 0]
            _, vecs = np.linalg.eigh(a_matrix(psi))
            phi = vecs[:, 0]
            new_value = float(
                np.real(np.einsum("a,b,abcd,c,d", phi.conj(), psi.conj(), tensor, phi, psi))
            )
            if abs(new_value - value) < 1e-16:
                value = new_value
                break
            value = new_value
        if value < tol and psi is not None:
            return phi, psi
    return None


def _projector(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def _bell_from_slot0(m0: np.ndarray, m1: np.ndarray, k: int, dims: tuple[int, int], side: str):
    """(cj, side) of the map preparing the Bell pair from slot 0 and I/4 from each of k slots.

    m0 is the (S, X_0) marginal of sigma_in; slots 1..k share the marginal m1,
    so they enter as one term of weight k.  dims are (d_S, d_X).
    """
    pairs = [(m0, bell_state("phi_plus", 2).matrix), (k * m1, np.eye(4) / 4.0)]
    return _mnp_choi(pairs, dims + (2, 2), side), side


def construct_f1_strategy(
    state: DensityOperator,
    k: int,
    kernel_extension: DensityOperator | None = None,
):
    """Measure-and-prepare strategy with unit fidelity on a rank-deficient state.

    Covers three routes: a product vector in the kernel (either extension
    side, any k), any kernel vector (k = 1), or a caller-supplied symmetric
    extension of a kernel state on (A, E_1, ..., E_k).  Returns (cj, side),
    or None when the state is full rank or no qualifying structure is found.
    The Choi state is M0^T x Bell + k M1^T x I/4, built from the two-slot
    marginals M0 (slot 0) and M1 (each other slot) of the measured state,
    which is never formed on all k + 1 slots; its cost does not depend on k.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if state.is_full_rank():
        return None
    (_, d_a), (_, d_b) = state.layout.subsystems
    rho = state.matrix

    if kernel_extension is not None:
        return _strategy_from_extension(state, k, kernel_extension)

    found = _find_product_kernel_vector(state)
    if found is not None:
        phi, psi = found
        # tr(rho (P_phi x I)): zero iff phi x anything sits in the kernel
        overlap = float(
            np.real(np.einsum("a,abcb,c->", phi.conj(), rho.reshape(d_a, d_b, d_a, d_b), phi))
        )
        if overlap > TOL_PSD:
            # measure the product kernel state on the extension slots
            m0 = np.kron(_projector(phi), np.eye(d_b) / d_b)
            m1 = np.kron(_projector(phi), _projector(psi))
            return _bell_from_slot0(m0, m1, k, (d_a, d_b), "bob")
        # phi x anything is annihilated: extend on the other side
        rho_a = partial_trace(state.op, (state.layout.labels[0],)).entries
        m0 = np.kron(np.eye(d_b) / d_b, rho_a / np.trace(rho_a).real)
        m1 = np.kron(np.eye(d_b) / d_b, _projector(phi))
        return _bell_from_slot0(m0, m1, k, (d_b, d_a), "alice")

    if k == 1:
        _, vecs = np.linalg.eigh(rho)
        kernel_vec = vecs[:, 0]
        ext_layout = layout(("A", d_a), ("E1", d_b))
        extension = from_matrix(_projector(kernel_vec), ext_layout)
        return _strategy_from_extension(state, 1, extension)
    return None


def _strategy_from_extension(state: DensityOperator, k: int, extension: DensityOperator):
    """Build the Bob-side strategy from a symmetric extension of a kernel state."""
    (_, d_a), (_, d_b) = state.layout.subsystems
    subs = extension.layout.subsystems
    if len(subs) != k + 1:
        raise ValueError(f"kernel extension must live on (A, E_1, ..., E_{k})")
    if subs[0][1] != d_a or any(dim != d_b for _, dim in subs[1:]):
        raise ValueError("kernel extension dims do not match the state")
    labels = extension.layout.labels
    marg0 = partial_trace(extension.op, (labels[0], labels[1])).entries
    for lab in labels[2:]:
        marg = partial_trace(extension.op, (labels[0], lab)).entries
        if np.abs(marg - marg0).max() > 1e-9:
            raise ValueError("kernel extension marginals are not symmetric")
    overlap_kernel = float(np.trace(state.matrix @ marg0).real)
    if overlap_kernel > 1e-9:
        raise ValueError(
            f"extension marginal is not in the kernel: overlap {overlap_kernel:.3e}"
        )
    sigma_a = partial_trace(extension.op, (labels[0],)).entries
    weight = float(np.real(np.trace(state.matrix @ np.kron(sigma_a, np.eye(d_b))))) / d_b
    if weight <= TOL_PSD:
        # every product of supp(sigma_a) with anything is annihilated; the
        # product-vector routes cover that case
        return construct_f1_strategy(state, k)
    # slot 0 holds I/d_B next to the spectator, slots 1..k the extension's E_i
    return _bell_from_slot0(np.kron(sigma_a, np.eye(d_b) / d_b), marg0, k, (d_a, d_b), "bob")
