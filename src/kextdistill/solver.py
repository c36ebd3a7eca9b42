"""Core engine: symmetrized probe assembly, threshold search, CJ-map evaluation,
and the measure-and-prepare constructions reaching unit fidelity.

The probe for a state rho on A x B with n copies and k extensions is

    sum_i V_i ((rho^{x n})^T x M^alpha x I) V_i,

where the n copies are fused into composite A and B subsystems before the
extensions attach, V_i swaps the distinguished (B, b) pair with the i-th
extension pair, and M^alpha = alpha*I - phi_plus on the two output qubits.  Its
smallest eigenvalue is negative exactly when fidelity above alpha is reachable
by a k-extendible map.  phi_plus is symmetric in its qubits, so the alice side
of rho_AB is solved as the bob side of rho_BA.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from . import blocks
from .linalg import TOL_EIG  # the one certification tolerance; perfbench/checks.py reads solver.TOL_EIG

# perfbench/spans.py wraps the eigensolvers and state constructors under these
# names in this module, so they stay bound here by from-import.
from .linalg import (
    DENSE_DIM_LIMIT,
    ITER_EIG_TOL,
    LOOSE_EIG_SHARE,
    HermitianOperator,
    LinearMapHandle,
    SystemLayout,
    eig_min_dense,
    eig_min_dense_vec,  # no caller here; bound for perfbench/spans.py only
    eig_min_iterative,
    layout,
    partial_trace,
    pencil_bracket,
    permute_subsystems,
    reorder_to,
    threshold_sup,
)
from .states import (
    TOL_PSD,
    DensityOperator,
    WernerParams,
    bell_state,
    from_matrix,  # no caller here; bound for perfbench/spans.py only
    werner,
    werner_params_of,
)

DEFAULT_TOL_ALPHA = 1e-8
MIN_TOL_ALPHA = 1e-10   # tighter than the eigensolver tolerances can resolve
SIDES = ("bob", "alice")
# per side, the spectator S and the extended party X as indices into the state's (A, B)
PARTY_ORDER = {"bob": (0, 1), "alice": (1, 0)}
BACKENDS = ("auto", "dense", "iterative", "schur_weyl")
# dense: the estimated peak of blocks.pair_spin_bytes; 1 GiB, four complex matrices of DENSE_DIM_LIMIT rows, as the
# one-block dense probe formed at its cap (const, linear, their sum, eigh's copy; measured 1062 MiB peak RSS growth)
DENSE_BYTES_LIMIT = 4 * 16 * DENSE_DIM_LIMIT**2


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
    every (alpha, value) the search evaluated, sorted by alpha: on dense and
    schur_weyl most often the one sample at the lower end of the pencil's
    bracket, which certifies alpha_star, and on iterative, after a fallback
    to [0, 1] or on a bracket wider than tol_alpha the Newton samples.  A
    value is lambda_min, except for that one sample of a bracket no wider
    than tol_alpha, which is the pencil vectors' Rayleigh bound where it is
    below -TOL_EIG: lambda_min <= value < -TOL_EIG.  On iterative, every
    value is the Rayleigh quotient of the solve's unit vector, an upper bound
    on lambda_min: lambda_min within the solve's error where the sample was
    a full solve, and lambda_min <= value < -TOL_EIG where it was loose.
    lambda_residual is the value that certifies alpha_star, and certificate
    a unit vector v with v^dag P(alpha_star) v = lambda_residual, ordered
    like ProbeAssembly(problem).layout, spectator first: the probe's
    eigenvector where lambda_residual is lambda_min, the pencil vector or the
    solve's vector where it is a Rayleigh quotient.  On dense it is the winning
    block's vector lifted into that layout by blocks.pair_spin_probe.
    certificate is None on schur_weyl, whose vectors are a block's, or when
    no alpha was certified negative.
    On schur_weyl, lambda_residual and every sample are on the blocks' scale,
    (d^2 + gamma d)^n times the probe eigenvalue: TOL_EIG is absolute, and at
    n = 8, d = 3 the probe-scale value is -4.4e-14 to -1.6e-10.
    """

    alpha_star: float
    samples: tuple[tuple[float, float], ...]
    full_rank: bool
    backend: str
    lambda_residual: float
    certificate: np.ndarray | None = None


@dataclass(frozen=True)
class KExtProblem:
    """An instance: state, copies n, extensions k, extension side, backend.

    The target is phi_plus.  Any other Bell target poses the same problem: a
    local unitary on the output qubits maps it to phi_plus and leaves the
    probe spectrum unchanged.
    """

    state: DensityOperator
    n: int = 1
    k: int = 1
    side: str = "bob"
    backend: str = "auto"

    def __post_init__(self) -> None:
        if len(self.state.layout.subsystems) != 2:
            raise ValueError("the input state must be bipartite")
        if not all(isinstance(v, (int, np.integer)) for v in (self.n, self.k)):
            raise ValueError(f"n and k must be integers, got n = {self.n!r}, k = {self.k!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 copies and k >= 1 extensions")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.backend == "dense" and (size := self.dense_bytes()) > DENSE_BYTES_LIMIT:
            raise ValueError(f"dense limited to {DENSE_BYTES_LIMIT >> 20} MiB, this problem needs about {size >> 20} MiB")
        if self.backend == "schur_weyl" and (rows := self.largest_werner_block()) > DENSE_DIM_LIMIT:
            raise ValueError(f"schur_weyl limited to pieces of {DENSE_DIM_LIMIT} rows, this problem's largest has {rows}")

    @classmethod
    def for_werner(
        cls,
        d: int,
        gamma: float | None = None,
        p: float | None = None,
        n: int = 1,
        k: int = 1,
        side: str = "bob",
        backend: str = "auto",
    ) -> "KExtProblem":
        return cls(
            state=werner(WernerParams(d=d, gamma=gamma, p=p)),
            n=n,
            k=k,
            side=side,
            backend=backend,
        )

    @property
    def input_dims(self) -> tuple[int, int]:
        """(d_S, d_X): the spectator's dimension, then the extended party's."""
        dims = self.state.layout.dims
        return tuple(dims[p] for p in PARTY_ORDER[self.side])

    @property
    def fused_dims(self) -> tuple[int, int]:
        """(d_S^n, d_X^n): the dimensions of the n-copy spectator and extended party, as every probe fuses them."""
        return tuple(d**self.n for d in self.input_dims)

    def fused_state(self) -> np.ndarray:
        """The n-copy state, transposed, on (S1..Sn, X1..Xn): the rho_fused of every general-state probe."""
        return _fuse_copies(self.state.matrix.T, self.state.layout.dims, self.n, PARTY_ORDER[self.side])

    @property
    def total_dim(self) -> int:
        d_s, d_x = self.fused_dims
        return d_s * d_x ** (self.k + 1) * 2 ** (self.k + 2)

    @functools.cached_property
    def werner_params(self) -> WernerParams | None:
        """The state's Werner parameters, None unless it is a Werner state; read once per problem."""
        try:
            return werner_params_of(self.state)
        except ValueError:
            return None

    def largest_werner_block(self) -> int:
        """Rows of the largest Schur-Weyl block or piece of this problem; ValueError unless the state is a Werner state."""
        if self.werner_params is None:
            raise ValueError("state is not a Werner state")
        return blocks.largest_block(self.werner_params.d, self.n, self.k)

    def dense_bytes(self) -> int:
        """The dense probe's estimated peak bytes (`blocks.pair_spin_bytes`), from dimensions alone.

        Past DENSE_BYTES_LIMIT it may be only the estimate of building the
        spin sectors' bases, which takes no character sum.
        """
        itemsize = 16 if np.iscomplexobj(self.state.matrix) else 8
        return blocks.pair_spin_bytes(*self.fused_dims, self.k, itemsize, DENSE_BYTES_LIMIT)

    def resolved_backend(self) -> str:
        """The backend a solve uses.

        `auto` takes schur_weyl for a Werner state whose largest piece fits
        DENSE_DIM_LIMIT, then dense wherever the dense probe's estimated peak
        fits DENSE_BYTES_LIMIT, and iterative past both.  Only memory limits
        dense: on 2 cores it was 2.3-249x faster than ARPACK on each of twelve
        problems measured up to the limit, with peaks of 11-1063 MiB against
        6-72 MiB.
        """
        if self.backend != "auto":
            return self.backend
        if self.werner_params is not None and self.largest_werner_block() <= DENSE_DIM_LIMIT:
            return "schur_weyl"
        return "dense" if self.dense_bytes() <= DENSE_BYTES_LIMIT else "iterative"

    def probe(self) -> blocks.BlockProbe | ProbeAssembly:
        """A new probe of the resolved backend, with lambda_min(alpha) -> (value, slope, vector) and pencil_tops().

        dense: blocks.pair_spin_probe, one block per (spin J, pair-permutation irrep lambda), whose vectors it lifts
        into ProbeAssembly's layout; schur_weyl: blocks.werner_probe; iterative: ProbeAssembly.
        """
        backend = self.resolved_backend()
        if backend == "dense":
            return blocks.pair_spin_probe(self.fused_state(), *self.fused_dims, self.k)
        if backend == "schur_weyl":
            params = self.werner_params  # rho_BA = rho_AB, so either side
            return blocks.werner_probe(params.gamma, params.d, self.n, self.k)
        return ProbeAssembly(self)


def _fuse_copies(mat: np.ndarray, dims: tuple[int, int], n: int, parties: tuple[int, int]) -> np.ndarray:
    """(A1 B1 A2 B2 ...) ordered n-fold product, regrouped as (S1..Sn, X1..Xn) for parties (S, X)."""
    acc = functools.reduce(np.kron, [mat] * n)
    order = [2 * c + p for p in parties for c in range(n)]
    order = order + [p + 2 * n for p in order]
    big = (dims[0] * dims[1]) ** n
    return acc.reshape(dims * 2 * n).transpose(order).reshape(big, big)


class _PairKernel:
    """rho_fused applied to the (S, X_i) of one extension pair i at a time, for `columns` vectors, in buffers of its own.

    load() copies the vectors once into the working order (S, s, X0, x0, ...,
    Xk, xk, columns).  product(i) copies them into pair i's order (S, X_i, s,
    x_i, then the rest in working order), applies rho_fused to the leading
    (S, X_i) by one gemm, and returns that product r shaped like the order,
    with half = b (r_00 + r_11) on its (s, x_i) = 00 and 11 slices, b the
    entry of Phi+ Phi+^dag (1/sqrt(2) squared, just below 1/2): that operator
    times r is half on both slices and 0 on 01 and 10.  Both arrays are
    views of the buffers, valid until the next product().  rayleigh(alpha)
    gives x^dag P(alpha) x and the alpha-slope x^dag (sum_i rho_i) x of the
    loaded x from one product() per pair.  The
    gemm is scipy's, writing into the product buffer, as in blocks.BlockProbe:
    numpy and scipy load separate OpenBLAS libraries, each with its own thread
    pool, and ARPACK runs on scipy's.
    """

    def __init__(self, assembly: "ProbeAssembly", columns: int, dtype):
        k = len(assembly.pairs) - 1
        dims = assembly.layout.dims
        rho = assembly.rho_fused.astype(dtype, copy=False)
        # the layout axes in working order: S is 0, X_i is 1 + i, s is k + 2 and x_i is k + 3 + i
        self.working = (0, k + 2) + tuple(a for i in range(k + 1) for a in (1 + i, k + 3 + i))
        self.work = np.empty(tuple(dims[a] for a in self.working) + (columns,), dtype=dtype)
        # pair i's order as axes of work; the columns stay last
        self.orders = [
            (0, 2 + 2 * i, 1, 3 + 2 * i) + tuple(a for a in range(2, 2 * k + 5) if a not in (2 + 2 * i, 3 + 2 * i))
            for i in range(k + 1)
        ]
        # the gemm reads gathered^T (Fortran-ordered, rows x D) and writes product^T, C-ordered D x rows
        gathered = np.empty(self.work.size, dtype=dtype)
        self._gathered_f = gathered.reshape(len(rho), -1).T
        self._product_f = np.empty(self._gathered_f.shape, dtype=dtype, order="F")
        self._rho_f = rho.T
        self._gemm = scipy.linalg.blas.get_blas_funcs("gemm", dtype=dtype)
        half = np.empty(self.work.size // 4, dtype=dtype)
        self._weight = assembly.bell[0, 0]
        self._views = []
        for order in self.orders:
            source = self.work.transpose(order)
            shape = source.shape[:2] + source.shape[4:]
            self._views.append((source, gathered.reshape(source.shape), self._product_f.T.reshape(source.shape), half.reshape(shape)))

    def load(self, columns: np.ndarray) -> None:
        """Copy columns, shaped layout.dims + (columns,), into the working order."""
        np.copyto(self.work, columns.transpose(self.working + (len(self.working),)))

    def product(self, pair: int) -> tuple[np.ndarray, np.ndarray]:
        source, gathered, product, half = self._views[pair]
        np.copyto(gathered, source)
        self._gemm(1.0, self._gathered_f, self._rho_f, c=self._product_f, overwrite_c=1)
        np.add(product[:, :, 0, 0], product[:, :, 1, 1], out=half)
        half *= self._weight
        return product, half

    def rayleigh(self, alpha: float) -> tuple[float, float]:
        """(x^dag P(alpha) x, x^dag (sum_i rho_i) x) for the loaded x, summed over columns.

        product(i) gathers x in pair i's order, like r; the Bell term of pair i
        is half on x's (s, x_i) = 00 and 11 slices.
        """
        slope = bell = 0.0
        for i, (_, gathered, _, _) in enumerate(self._views):
            product, half = self.product(i)
            slope += np.vdot(gathered, product).real
            bell += np.vdot(gathered[:, :, 0, 0], half).real + np.vdot(gathered[:, :, 1, 1], half).real
        return float(alpha * slope - bell), float(slope)

    @functools.cached_property
    def acc(self) -> np.ndarray:
        """The handle's accumulator, in working order, made on first use: dense_pieces' kernel holds none."""
        return np.empty_like(self.work)

    def to_layout(self, array: np.ndarray) -> np.ndarray:
        """A new C-ordered array in layout order, columns last, from one in working order."""
        return np.array(array.transpose(np.argsort(self.working + (len(self.working),))), order="C")


class ProbeAssembly:
    """The probe as probe(alpha) = const_part + alpha * linear_part, built from one pair kernel; the iterative probe.

    Pair i contributes alpha * rho_i - Bell_i rho_i, where rho_i is the fused
    state on the i-th big pair and Bell_i the target on the i-th qubit pair;
    the matrix-free handle, the slope and the dense pieces all run
    `_PairKernel`: one copy into the pair-interleaved working order, then per
    pair one transpose copy, one scipy gemm with rho_fused and two slab
    operations on the (s, x_i) = 00 and 11 slices.  The handle and the slope
    share one one-column kernel per assembly; dense_pieces builds its own.
    layout, the order of every vector in and out, stays spectator first.  It
    is also the iterative backend's probe, solved on the handle by ARPACK.
    """

    def __init__(self, problem: KExtProblem):
        self.problem = problem
        n, k = problem.n, problem.k
        parties = PARTY_ORDER[problem.side]
        self.rho_fused = problem.fused_state()
        self.bell = bell_state("phi_plus", 2).matrix
        # (S, X0..Xk, s, x0..xk): S = A on the bob side, B on the alice side
        big_s, big_x = problem.fused_dims
        s, x = ("AB"[p] for p in parties)
        subs = [(s, big_s)] + [(f"{x}{i}", big_x) for i in range(k + 1)]
        subs += [(s.lower(), 2)] + [(f"{x.lower()}{i}", 2) for i in range(k + 1)]
        self.pairs = [((s, f"{x}{i}"), (s.lower(), f"{x.lower()}{i}")) for i in range(k + 1)]
        self.layout = SystemLayout(tuple(subs))
        self.is_real = not np.iscomplexobj(self.rho_fused)
        # |alpha I - Bell| <= 1 on [0, 1] and |(rho^{x n})^T| = lambda_max(rho)^n, per pair
        self.norm_bound = (k + 1) * float(problem.state.spectrum[-1]) ** n
        self._dense_pieces: tuple[np.ndarray, np.ndarray] | None = None
        self._previous: np.ndarray | None = None

    @functools.cached_property
    def _kernel(self) -> _PairKernel:
        """The one-column kernel at rho_fused's dtype, made once: every handle and slope shares its buffers."""
        return _PairKernel(self, 1, self.rho_fused.dtype)

    def dense_pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """(const, linear) as dim x dim arrays; ValueError above DENSE_DIM_LIMIT, before any allocation.

        The kernel runs on 64 identity columns at a time (fewer if 64 does
        not divide dim) and adds each pair's columns into both pieces, pairs
        in order.  Every entry of a product is one entry of rho_fused times 1,
        exactly, so the pieces do not depend on the slab width.  Besides the
        pieces, the build holds 4.25 slabs: 0.18 of a piece at 1536 rows,
        where building from the whole identity at once held four pieces more.
        """
        if self._dense_pieces is None:
            dim = self.layout.total_dim
            if dim > DENSE_DIM_LIMIT:
                raise ValueError(f"dense probe pieces limited to dimension {DENSE_DIM_LIMIT}, this probe has {dim}")
            dtype = np.float64 if self.is_real else np.complex128
            const = np.zeros((dim, dim), dtype=dtype)
            linear = np.zeros((dim, dim), dtype=dtype)
            width = math.gcd(dim, 64)
            kernel = _PairKernel(self, width, dtype)
            columns = np.zeros((dim, width), dtype=dtype)
            to_working = kernel.working + (len(kernel.working),)
            for start in range(0, dim, width):
                np.fill_diagonal(columns[start : start + width], 1.0)
                kernel.load(columns.reshape(self.layout.dims + (width,)))
                columns[start : start + width] = 0.0
                # this slab's columns of both pieces, their rows in working order
                const_slab, linear_slab = (
                    piece[:, start : start + width].reshape(self.layout.dims + (width,)).transpose(to_working)
                    for piece in (const, linear)
                )
                for i, order in enumerate(kernel.orders):
                    product, half = kernel.product(i)
                    linear_slab.transpose(order)[...] += product
                    const_pair = const_slab.transpose(order)
                    const_pair[:, :, 0, 0] -= half
                    const_pair[:, :, 1, 1] -= half
            self._dense_pieces = (const, linear)
        return self._dense_pieces

    def dense(self, alpha: float) -> HermitianOperator:
        """The reference dense probe at alpha, used by the tests and by `kext validate`; no backend samples it."""
        const, linear = self.dense_pieces()
        return HermitianOperator(self.layout, const + alpha * linear)

    def handle(self, alpha: float) -> LinearMapHandle:
        """probe(alpha) as a LinearMapHandle on the assembly's kernel; each apply returns a new array, in layout order.

        The kernel has rho_fused's dtype: a complex vector on a real probe raises TypeError.
        """
        return LinearMapHandle(
            dim=self.layout.total_dim,
            apply=functools.partial(self._apply, alpha),
            norm_bound=self.norm_bound,
            is_real=self.is_real,
        )

    def _apply(self, alpha: float, vec: np.ndarray) -> np.ndarray:
        # nothing the assembly holds refers back to it, the kernel included, so an assembly is freed with its
        # last handle: a cycle kept each one alive until the cyclic collector ran, +0.5 MB peak RSS per threshold
        kernel = self._kernel
        kernel.load(vec.reshape(self.layout.dims + (1,)))
        acc = kernel.acc
        acc.fill(0.0)
        for i, order in enumerate(kernel.orders):
            product, half = kernel.product(i)
            product *= alpha
            product[:, :, 0, 0] -= half
            product[:, :, 1, 1] -= half
            acc.transpose(order)[...] += product
        return kernel.to_layout(acc).reshape(-1)

    def lambda_min(self, alpha: float, residual: float = ITER_EIG_TOL) -> tuple[float, float, np.ndarray]:
        """(q, slope v^dag L v, v): an ARPACK solve of handle(alpha) to residual, started from the last v, the first from EIG_SEED.

        q = v^dag P(alpha) v is the unit vector v's Rayleigh quotient, computed
        in the slope's kernel pass, not ARPACK's Ritz value: an upper bound on
        lambda_min(alpha), so q < -TOL_EIG certifies alpha with v.  At the
        default ITER_EIG_TOL the solve is full, and q is lambda_min within its
        error; a looser residual stops earlier.  v becomes the next warm start.
        ValueError for alpha outside [0, 1] or NaN, where norm_bound fails; SolverConvergenceError if ARPACK fails.
        """
        # the kernel is made before ARPACK's workspace: made inside the first solve, after it, its buffers
        # raised peak RSS by 1.5 MB on a 5184-row complex probe
        handle, kernel = self.handle(_check_alpha(alpha)), self._kernel
        _, self._previous = eig_min_iterative(handle, v0=self._previous, residual=residual)
        kernel.load(self._previous.reshape(self.layout.dims + (1,)))
        return (*kernel.rayleigh(alpha), self._previous)

    def rayleigh_bound(self, alpha: float) -> tuple[float, np.ndarray]:
        """(q, v): the last solve's v and its Rayleigh quotient v^dag P(alpha) v, an upper bound on lambda_min; no eigensolve."""
        kernel = self._kernel
        kernel.load(self._previous.reshape(self.layout.dims + (1,)))
        return kernel.rayleigh(_check_alpha(alpha))[0], self._previous

    def pencil_tops(self) -> list[tuple[float, float]]:
        """[]: no explicit pieces, so linalg.pencil_bracket gives [0, 1]."""
        return []


def _check_alpha(alpha: float) -> float:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def lambda_min_alpha(problem: KExtProblem, alpha: float) -> float:
    """Smallest probe eigenvalue at alpha from a new problem.probe(); (d^2 + gamma d)^n times it on schur_weyl.

    ValueError for alpha outside [0, 1] or NaN.  A loop over alpha should build one problem.probe() instead.
    """
    return problem.probe().lambda_min(_check_alpha(alpha))[0]


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

    Every sample solves one problem.probe(), from linalg.pencil_bracket of
    its pencil_tops(): on dense and schur_weyl, one top eigenpair of the
    pencil (-C, L) per block of C + alpha L brackets the threshold, and the
    first sample certifies the lower end.  It is [0, 1] where pencil_tops() is
    []: on iterative, and where a linear part cannot be factored (gamma = +-1,
    rank-deficient states).
    Where the bracket is no wider than tol_alpha, that first sample is the
    probe's rayleigh_bound: the pencil vectors' scaled Rayleigh quotient, an
    upper bound on lambda_min, so that a value below -TOL_EIG certifies the
    lower end with no eigensolve.  Otherwise, or where the bound is not below
    -TOL_EIG, the sample solves lambda_min, so alpha_star is the same either way.

    On iterative, any vector v's line v^dag P(alpha) v bounds lambda_min from
    above at every alpha.  A sample that the last sample's line certifies,
    which every plain Newton target is, needs no converged eigenpair: ARPACK
    stops there at a residual of LOOSE_EIG_SHARE times the last value's
    modulus (ITER_EIG_TOL at least), and the sample is the Rayleigh quotient
    q of its vector.  Where the last two slopes' curvature predicts that
    lambda_min at alpha + tol_alpha is not below -TOL_EIG, alpha is taken as
    the last vector's q with no eigensolve, and the search goes on to its
    closing sample.  Every other sample, and every q that is not below
    -TOL_EIG, is a full solve to ITER_EIG_TOL: every lower end is an explicit
    negative Rayleigh quotient, and every upper end a full solve.
    """
    check_tol_alpha(tol_alpha)
    backend = problem.resolved_backend()
    probe = problem.probe()
    samples: list[tuple[float, float, float]] = []  # (alpha, value, slope), in the order taken
    residual, certificate = None, None
    bracket = pencil_bracket(probe.pencil_tops())
    closed = bracket[1] - bracket[0] <= tol_alpha

    def loose(alpha: float) -> tuple[float, float, np.ndarray] | None:
        """(q, slope, v) short of a full solve where the last sample's line certifies alpha, else None."""
        last_alpha, last_value, last_slope = samples[-1]
        if not last_value + last_slope * (alpha - last_alpha) < -TOL_EIG:
            return None
        if len(samples) > 1 and alpha > last_alpha:
            # past the lower end: lambda_min at the closing sample alpha + tol_alpha, on the curvature of the last
            # two slopes; at a Newton target, (curvature / 2) (step + tol_alpha)^2 <= 0.75 tol_alpha last_slope
            before_alpha, _, before_slope = samples[-2]
            reach = alpha + tol_alpha - last_alpha
            curvature = (before_slope - last_slope) / (last_alpha - before_alpha)
            if last_value + last_slope * reach - 0.5 * curvature * reach**2 >= -TOL_EIG:
                q, vec = probe.rayleigh_bound(alpha)
                return q, last_slope, vec
        return probe.lambda_min(alpha, max(ITER_EIG_TOL, LOOSE_EIG_SHARE * abs(last_value)))

    def evaluate(alpha: float) -> tuple[float, float, bool]:
        nonlocal residual, certificate
        value, exact = math.inf, False
        if closed and not samples:
            # the first sample is at lo; on a closed bracket threshold_sup takes no Newton step, so reads no slope
            value, vec = probe.rayleigh_bound(alpha)
            slope = 0.0
        elif backend == "iterative" and samples:
            value, slope, vec = loose(alpha) or (math.inf, 0.0, None)
        if not value < -TOL_EIG:
            # a full solve, warm-started from a loose sample's vector: only a full solve sets hi
            value, slope, vec = probe.lambda_min(alpha)
            exact = True
        samples.append((alpha, value, slope))
        if value < -TOL_EIG:
            # threshold_sup moves its lower end here, so this sample certifies it; a Werner block vector is no probe
            # vector, while the dense probe lifts its block vectors into the probe's layout
            residual, certificate = value, None if backend == "schur_weyl" else vec
        return value, slope, exact

    alpha_star = threshold_sup(evaluate, tol_alpha, bracket)
    if residual is None:
        residual = samples[0][1]
    return ThresholdResult(
        alpha_star=alpha_star,
        samples=tuple(sorted((alpha, value) for alpha, value, _ in samples)),
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
    s, x = ("AB"[p] for p in PARTY_ORDER[side])
    labels = (s, x, s.lower(), x.lower())
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
    flat = int(np.argsort(diag)[0])  # argsort's pick among tied entries, which argmin need not share
    if diag[flat] <= tol:
        i, j = divmod(flat, d_b)
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


def _extension_marginals(state: DensityOperator, k: int, extension: DensityOperator):
    """(sigma_A, m1) of a symmetric extension of a kernel state on (A, E_1, ..., E_k).

    m1 is the (A, E_i) marginal, the same for every i and annihilated by the
    state, and sigma_A the marginal of the spectator A.
    """
    (_, d_a), (_, d_b) = state.layout.subsystems
    subs = extension.layout.subsystems
    if len(subs) != k + 1:
        raise ValueError(f"kernel extension must live on (A, E_1, ..., E_{k})")
    if subs[0][1] != d_a or any(dim != d_b for _, dim in subs[1:]):
        raise ValueError("kernel extension dims do not match the state")
    labels = extension.layout.labels
    m1 = partial_trace(extension.op, (labels[0], labels[1])).entries
    for lab in labels[2:]:
        marg = partial_trace(extension.op, (labels[0], lab)).entries
        if np.abs(marg - m1).max() > 1e-9:
            raise ValueError("kernel extension marginals are not symmetric")
    overlap_kernel = float(np.trace(state.matrix @ m1).real)
    if overlap_kernel > 1e-9:
        raise ValueError(
            f"extension marginal is not in the kernel: overlap {overlap_kernel:.3e}"
        )
    return partial_trace(extension.op, (labels[0],)).entries, m1


def construct_f1_strategy(
    state: DensityOperator,
    k: int,
    kernel_extension: DensityOperator | None = None,
):
    """Measure-and-prepare strategy with unit fidelity on a rank-deficient state.

    The measured kernel state is a caller-supplied symmetric extension on
    (A, E_1, ..., E_k), else a product vector in the kernel (any k), else any
    kernel vector (k = 1).  Each source gives the two-slot marginal m1 and
    its spectator state sigma_A; one test then picks the extension side.
    Returns (cj, side), or None when the state is full rank or no kernel
    state is found.  The Choi state is M0^T x Bell + k m1^T x I/4 over the
    slot-0 and slot-i marginals, so its cost does not depend on k.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if state.is_full_rank():
        return None
    (_, d_a), (_, d_b) = state.layout.subsystems
    rho = state.matrix

    if kernel_extension is not None:
        sigma_a, m1 = _extension_marginals(state, k, kernel_extension)
    elif (found := _find_product_kernel_vector(state)) is not None:
        phi, psi = found
        sigma_a, m1 = _projector(phi), np.kron(_projector(phi), _projector(psi))
    elif k == 1:
        m1 = _projector(np.linalg.eigh(rho)[1][:, 0])
        sigma_a = np.einsum("abcb->ac", m1.reshape(d_a, d_b, d_a, d_b))
    else:
        return None

    # tr(rho (sigma_A x I)) vanishes iff supp(sigma_A) x anything sits in the kernel
    if np.trace(rho @ np.kron(sigma_a, np.eye(d_b))).real > TOL_PSD:
        # slot 0 holds I/d_B next to the spectator, slots 1..k the kernel marginal
        m0, dims, side = np.kron(sigma_a, np.eye(d_b) / d_b), (d_a, d_b), "bob"
    else:
        # phi x anything is annihilated: measure phi on Alice's extension slots
        phi = np.linalg.eigh(sigma_a)[1][:, -1]
        rho_a = partial_trace(state.op, (state.layout.labels[0],)).entries
        m0 = np.kron(np.eye(d_b) / d_b, rho_a / np.trace(rho_a).real)
        m1, dims, side = np.kron(np.eye(d_b) / d_b, _projector(phi)), (d_b, d_a), "alice"
    pairs = [(m0, bell_state("phi_plus", 2).matrix), (k * m1, np.eye(4) / 4.0)]
    return _mnp_choi(pairs, dims + (2, 2), side), side
