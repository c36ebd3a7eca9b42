"""Probes held as blocks, and the symmetric-group blocks of Werner-state probes.

`BlockProbe` solves any probe given as blocks const + alpha I_f (x) term:
the `dense` probe as one block, and, built by `werner_probe`, the probe of
any Werner state at any number of copies n and extensions k.  Each probe
term rho_{S,X_i} x (alpha I - Phi+)_{s,x_i} of a Werner state rho
proportional to I + gamma V, with every x qubit rotated by iY (which turns
Phi+ into psi- and keeps the spectrum), is the group-algebra element

    (x)_c (1 + gamma tau_i) (x) ((alpha - 1/2) + tau_i / 2)

of S_m^{n+1}, m = k + 2, where tau_i is the transposition of the spectator
and the i-th extension slot.  By Schur-Weyl duality the probe is the direct
sum, over multisets (mu_1, ..., mu_n) of partitions of m with at most d rows
and over nu |- m with at most 2 rows, of the blocks

    B(alpha) = alpha I (x) sum_i R_i - sum_i (I - Y_nu(tau_i)) / 2 (x) R_i,
    R_i = (x)_c (I + gamma Y_mu_c(tau_i)),

each repeated by the orderings of its copy labels times the dimensions of
its U(d) and U(2) irreps.  Y_mu is Young's orthogonal form, so every block
is real symmetric and d enters only through which mu are allowed
(Bacon-Chuang-Harrow, quant-ph/0407082).  A one-dimensional copy label, (m)
or (1^m) when d >= m, sends every tau_i to +1 or -1, so it multiplies the
whole block by 1 + gamma or 1 - gamma, both >= 0: only the multisets of
multi-row labels need blocks, each with its smallest and largest prefactor.
The blocks are on the scale of I + gamma V, so their eigenvalues are
(d^2 + gamma d)^n times the probe's.

The j copies that share a label mu enter each R_i as the power
(I + gamma Y_mu(tau_i))^(x j), which commutes with every permutation of
those copies.  By GL(f^mu) x S_j duality such a block splits into pieces,
one per lambda |- j for each repeated label, each with the block's
eigenvalues repeated f^lambda times; the bases come from Jucys-Murphy
eigenspaces, one box at a time (`gl_step`).  Only blocks that `BlockProbe`
would solve alone, from SOLO_MIN_ROWS rows, are split: smaller ones are
batched already.  At d = 3, n = 8, k = 1 the largest block has 512 rows and
the largest piece 18.

`s3_block_lambda_min` is the k = 1 case written from the paper's
coefficient table (`analytic.st_coefficients`), on the same scale.  No
backend calls it; it is the independent reference `werner_probe` is checked
against where no probe fits, such as n = 8.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import scipy.linalg

from .analytic import st_coefficients
from .linalg import eig_min_dense_vec, pencil_top


def _qubit_factors(gamma: float, alpha: float):
    # 2x2 components in a rotated basis (sigma_y -> sigma_z) so all blocks are
    # real symmetric; block spectra are unchanged by the per-triple rotation.
    c = st_coefficients(gamma, alpha)
    s0, s1, s2, _ = c.s
    t0, t1, t2, _ = c.t
    x1 = np.array([[s0 + s2, s1], [s1, s0 - s2]])
    x2 = np.array([[s0 - s2, s1], [s1, s0 + s2]])
    y1 = np.array([[t0 + t2, t1], [t1, t0 - t2]])
    y2 = np.array([[t0 - t2, t1], [t1, t0 + t2]])
    return x1, x2, y1, y2, c


def s3_block_lambda_min(gamma: float, alpha: float, n: int, d: int) -> tuple[float, float]:
    """Smallest eigenvalue over all symmetry blocks of the n-copy, one-extension operator, and its slope.

    Uses the unnormalized I + gamma*V state on d x d: the value is
    (d^2 + gamma d)^n times the probe's lambda_min.  Label tuples with a qubit
    triple (the target always, the state triples when d = 2) on the
    antisymmetric label are skipped: those blocks have dimension zero rather
    than eigenvalue zero.  The slope pref * v^dag (dB/dalpha) v of the lowest
    block B is a nonnegative supergradient of the concave minimum: dB/dalpha
    sums Kronecker powers of x1 and x2, whose eigenvalues are 1 +- |gamma|.
    """
    if n < 1:
        raise ValueError("need n >= 1 copies")
    x1, x2, y1, y2, c = _qubit_factors(gamma, alpha)
    s_plus, s_minus, t_plus = c.s_plus, c.s_minus, c.t_plus

    best, best_slope = np.inf, 0.0
    x1_m = x2_m = np.eye(1)
    for m in range(n + 1):
        # m state triples carry the qubit label; the rest are scalars whose
        # products over all tuples range between the two pure powers
        prefactors = (s_plus ** (n - m),) if d == 2 else (s_plus ** (n - m), s_minus ** (n - m))
        # each block with the width w of its target factor: dB/dalpha = x_sum (x) I_w
        x_sum = x1_m + x2_m
        blocks = [(t_plus * x_sum, 1), (np.kron(x1_m, y1) + np.kron(x2_m, y2), 2)]
        for block, width in blocks:
            lam, vec = eig_min_dense_vec(block)
            for pref in prefactors:
                if pref * lam < best:
                    v = vec.reshape(-1, width)
                    best, best_slope = pref * lam, pref * float(np.sum(v * (x_sum @ v)))
        if m < n:
            x1_m = np.kron(x1_m, x1)
            x2_m = np.kron(x2_m, x2)
    return best, best_slope


# ---------------------------------------------------------------------------
# Schur-Weyl blocks at any n and k


@functools.lru_cache(maxsize=None)
def partitions(m: int, max_rows: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of m into at most max_rows parts, largest part first, in reverse lexicographic order."""

    def grow(rest: int, cap: int, rows: int):
        if rest == 0:
            yield ()
        elif rows > 0:
            for first in range(min(rest, cap), 0, -1):
                for tail in grow(rest - first, first, rows - 1):
                    yield (first,) + tail

    return tuple(grow(m, m, max_rows))


def specht_dim(shape: tuple[int, ...]) -> int:
    """f^shape, the dimension of the symmetric-group irrep (hook length formula)."""
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = (row - j + columns[j] - i - 1 for i, row in enumerate(shape) for j in range(row))
    return math.factorial(sum(shape)) // math.prod(hooks)


def unitary_dim(shape: tuple[int, ...], f: int) -> int:
    """Dimension of the GL(f) irrep of this shape (hook-content formula); 0 beyond f rows."""
    if len(shape) > f:
        return 0
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
    boxes = [(row - j + columns[j] - i - 1, j - i) for i, row in enumerate(shape) for j in range(row)]
    return math.prod(f + c for _, c in boxes) // math.prod(h for h, _ in boxes)


@functools.lru_cache(maxsize=None)
def largest_block(d: int, n: int, k: int) -> int:
    """Rows of the largest block or piece `werner_blocks` yields for the n-copy, k-extension probe of a d x d Werner state.

    A block of fewer than SOLO_MIN_ROWS rows stays whole; a larger one
    splits into pieces of prod_mu unitary_dim(lambda_mu, f^mu) * f^nu rows,
    lambda_mu |- j_mu for the j_mu copies labelled mu (one piece, the block
    itself, where no label repeats).  The largest piece takes the widest
    lambda for each label's copy count, chosen over all ways to give at most
    n copies to the multi-row labels.  No array is formed.
    """
    m = k + 2
    dims = [specht_dim(mu) for mu in partitions(m, d) if 1 < len(mu) < m]
    nus = [specht_dim(nu) for nu in partitions(m, 2)]
    widest = [1] + [0] * n  # widest[t]: the most rows of a copies' factor over t multi-row copies
    for f in dims:
        power = [max(unitary_dim(lam, f) for lam in partitions(j, f)) for j in range(n + 1)]
        widest = [max(widest[t - j] * power[j] for j in range(t + 1)) for t in range(n + 1)]
    whole = {1}  # the copies' factors of the blocks that stay whole, each copy at least doubling it
    for _ in range(n):
        whole |= {w * f for w in whole for f in dims if w * f * min(nus) < SOLO_MIN_ROWS}
    kept = [w * f for w in whole for f in nus if w * f < SOLO_MIN_ROWS]
    return max(max(widest) * max(nus), *kept)


@functools.lru_cache(maxsize=None)
def young_orthogonal_form(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Matrices of the adjacent transpositions (j j+1), j = 0..m-2, in Young's orthogonal form.

    The basis is the standard tableaux of the shape, each written as the
    row of entry 0, 1, ..., m-1.  With r = content(j+1) - content(j), a
    tableau T maps to T / r plus sqrt(1 - 1/r^2) times T with j and j+1
    exchanged; that tableau is standard exactly when |r| > 1.  A one-row
    shape is the trivial representation.  The arrays are read-only.
    """
    m = sum(shape)
    words: list[tuple[int, ...]] = []
    contents: list[tuple[int, ...]] = []

    def grow(word: tuple[int, ...], content: tuple[int, ...], lengths: list[int]) -> None:
        if len(word) == m:
            words.append(word)
            contents.append(content)
            return
        for r in range(len(shape)):
            if lengths[r] < shape[r] and (r == 0 or lengths[r - 1] > lengths[r]):
                lengths[r] += 1
                grow(word + (r,), content + (lengths[r] - 1 - r,), lengths)
                lengths[r] -= 1

    grow((), (), [0] * len(shape))
    index = {word: t for t, word in enumerate(words)}
    mats = []
    for j in range(m - 1):
        y = np.zeros((len(words), len(words)))
        for t, word in enumerate(words):
            r = contents[t][j + 1] - contents[t][j]
            y[t, t] = 1.0 / r
            if abs(r) > 1:
                y[index[word[:j] + (word[j + 1], word[j]) + word[j + 2 :]], t] = math.sqrt(1.0 - 1.0 / r**2)
        y.setflags(write=False)
        mats.append(y)
    return tuple(mats)


@functools.lru_cache(maxsize=None)
def young_transpositions(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Young's orthogonal form of the transpositions (0 j), j = 1..m-1: (0 j) = s (0 j-1) s with s = (j-1 j)."""
    adjacent = young_orthogonal_form(shape)
    mats = [adjacent[0]]
    for s in adjacent[1:]:
        mats.append(s @ mats[-1] @ s)
        mats[-1].setflags(write=False)
    return tuple(mats)


@functools.lru_cache(maxsize=None)
def _identity(size: int) -> np.ndarray:
    """np.eye(size), read-only and made once per size for every block builder."""
    eye = np.eye(size)
    eye.setflags(write=False)
    return eye


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, without its overhead for general shapes."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _without_last_box(shape: tuple[int, ...]) -> tuple[int, ...]:
    """shape minus the last box of its last row: the shape of the row-reading tableau's first |shape| - 1 entries."""
    return shape[:-1] + ((shape[-1] - 1,) if shape[-1] > 1 else ())


@functools.lru_cache(maxsize=None)
def gl_step(f: int, shape: tuple[int, ...]) -> np.ndarray:
    """The isometry V with U_shape = (U_parent (x) I_f) V, parent = shape minus its last box; read-only.

    U_shape, f^j x unitary_dim(shape, f) with j = |shape|, is an orthonormal
    basis of one copy of the GL(f) irrep of this shape in (R^f)^(x j): the
    joint eigenspace of the Jucys-Murphy elements X_b = sum_{a<b} (a b),
    b = 2..j, at the contents of the shape's row-reading tableau.  So it lies
    in span(U_parent) (x) R^f, where X_j, restricted, is `_jucys_murphy(f,
    parent)`; V spans that matrix's eigenspace at the content of the last
    box (Okounkov-Vershik, Selecta Math. 1996).  No f^j-row array is formed.
    """
    if sum(shape) == 1:
        return _identity(f)
    vals, vecs = np.linalg.eigh(_jucys_murphy(f, _without_last_box(shape)))
    step = np.ascontiguousarray(vecs[:, np.abs(vals - (shape[-1] - len(shape))) < 0.5])
    step.setflags(write=False)
    return step


@functools.lru_cache(maxsize=None)
def _jucys_murphy(f: int, shape: tuple[int, ...]) -> np.ndarray:
    """X_{j+1} on span(U_shape) (x) R^f, j = |shape|, in the basis U_shape (x) I_f.

    X_{j+1} = s X_j s + s with s = (j j+1).  On span(U_parent) (x) R^f (x) R^f
    the product X_j (x) I_f is this function's value for the parent, s swaps
    the last two factors, and U_shape (x) I_f = (U_parent (x) I_f (x) I_f)(V (x) I_f).
    """
    if not shape:
        return np.zeros((f, f))
    previous = _jucys_murphy(f, _without_last_box(shape))
    w = _kron(gl_step(f, shape), _identity(f))
    rows, cols = len(previous) // f, w.shape[1]
    swapped = w.reshape(rows, f, f, cols).transpose(0, 2, 1, 3).reshape(-1, cols)
    x = swapped.T @ (previous @ swapped.reshape(rows * f, -1)).reshape(-1, cols) + w.T @ swapped
    return 0.5 * (x + x.T)


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_kron of a[i] and b[i] for every i of two equally long stacks of matrices."""
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(a), a.shape[1] * b.shape[1], -1)


def _gl_power(stack: np.ndarray, shape: tuple[int, ...], memo: dict) -> np.ndarray:
    """pi_shape(A) = U_shape^T A^(x j) U_shape for each A of a stack, one copy at a time; memoised in memo by shape.

    pi_shape(A) = V^T (pi_parent(A) (x) A) V, with V = gl_step(f, shape).
    """
    if sum(shape) == 1:
        return stack
    if shape not in memo:
        step = gl_step(stack.shape[1], shape)
        memo[shape] = step.T @ _kron_stack(_gl_power(stack, _without_last_box(shape), memo), stack) @ step
    return memo[shape]


def werner_blocks(gamma: float, d: int, n: int, k: int):
    """Yield (mus, lams, nu, const, term) for every block or piece const + alpha I_{dim nu} (x) term of the Werner probe.

    Every block and piece is on the I + gamma V scale.  mus is a multiset of
    multi-row copy labels (a sorted tuple of at most n partitions of k + 2
    with at most d rows, neither one row nor one column), nu a partition of
    k + 2 with at most 2 rows.  The other n - len(mus)
    copies carry one-dimensional labels, each multiplying the block by
    1 + gamma for (k + 2) or 1 - gamma for (1^(k+2)) when d >= k + 2.
    Rows are ordered (nu, copies).  term is sum_i R_i, one array shared by
    the blocks of one copy multiset, and by the pieces of one lams.

    A block of SOLO_MIN_ROWS rows or more in which a label repeats is split.
    The j copies that carry one label mu enter R_i as A_i^(x j), with
    A_i = I + gamma Y_mu(tau_i), which commutes with every permutation of
    those copies.  So the block is the direct sum, over one lambda |- j per
    distinct label, of pieces with A_i^(x j) replaced by
    pi_lambda(A_i) = U_lambda^T A_i^(x j) U_lambda (see `gl_step`), each
    repeated f^lambda times.  lams holds those lambda, in the order of the
    distinct labels of mus, and is None for a whole block.  A lambda with
    more rows than the rank of A_i, which is below f^mu only at gamma = +-1,
    gives a zero piece and is left out.
    """
    m = k + 2
    shapes = [mu for mu in partitions(m, d) if 1 < len(mu) < m]
    # pair[mu][i] = A_i = I + gamma Y_mu(tau_i), i = 0..k, one stack per label
    pair = {mu: _identity(specht_dim(mu)) + gamma * np.array(young_transpositions(mu)) for mu in shapes}
    rank = {mu: len(a[0]) if abs(gamma) < 1.0 else int(np.linalg.matrix_rank(a[0])) for mu, a in pair.items()}
    # the factor of the i-th term on the nu side, (I - Y_nu(tau_i)) / 2
    halves = {nu: [0.5 * (_identity(len(y)) - y) for y in young_transpositions(nu)] for nu in partitions(m, 2)}
    smallest_nu = min(len(half[0]) for half in halves.values())
    powers: dict = {mu: {} for mu in shapes}  # memo of _gl_power per label
    wholes = {(): np.ones((k + 1, 1, 1))}  # R_i stacked over i for the multisets of whole blocks
    for mus in itertools.chain.from_iterable(
        itertools.combinations_with_replacement(shapes, j) for j in range(n + 1)
    ):
        labels = sorted(set(mus), key=mus.index)
        repeats, copies = len(labels) < len(mus), math.prod(len(pair[mu][0]) for mu in mus)
        if mus and (not repeats or copies * smallest_nu < SOLO_MIN_ROWS):
            # some block of mus stays whole; so does one of mus[:-1], which came first
            wholes[mus] = _kron_stack(wholes[mus[:-1]], pair[mus[-1]])
        pieces = {}  # lams -> (R_i stacked over i, sum_i R_i) of this copy multiset
        for nu, half in halves.items():
            if repeats and copies * len(half[0]) >= SOLO_MIN_ROWS:
                choices = itertools.product(*(partitions(mus.count(mu), rank[mu]) for mu in labels))
            else:
                choices = [None]
            for lams in choices:
                if lams not in pieces:
                    terms = wholes[mus] if lams is None else functools.reduce(
                        _kron_stack, (_gl_power(pair[mu], lam, powers[mu]) for mu, lam in zip(labels, lams)), wholes[()]
                    )
                    pieces[lams] = terms, terms.sum(axis=0)
                terms, term_sum = pieces[lams]
                const = np.zeros((len(term_sum) * len(half[0]),) * 2)
                for r, h in zip(terms, half):
                    const -= _kron(h, r)
                yield mus, lams, nu, const, term_sum


# blocks from this many rows get one scipy lowest-eigenpair solve each, and werner_blocks splits
# them where a copy label repeats; smaller ones share one batched numpy solve per size.  numpy
# and scipy load separate OpenBLAS libraries, each with its own thread pool.  On 2 cores, with
# single-copy d = 3 Werner curves, which nothing splits: 21 points at k = 4 took 0.26 s at 26 or
# 64 against 0.52 s at 256, and 5 points at k = 5 0.60 s against 1.38 s.  From 26 rows numpy's
# eigh (with vectors, as the stacks' pencil and lowest block need) switches to divide and
# conquer, which took 15 ms per 26- to 31-row block on 2 threads against 0.1 ms on one.
SOLO_MIN_ROWS = 26


def _solo_lowest_pair(const: np.ndarray, term: np.ndarray, alpha: float, out: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the Hermitian const + alpha I_f (x) term, built in out and overwriting it."""
    f, t = len(const) // len(term), len(term)
    np.copyto(out, const)
    diagonal, const_diagonal = out.reshape(f, t, f, t), const.reshape(f, t, f, t)
    for i in range(f):  # alpha term + const, with no array of term's size per sample
        np.multiply(term, alpha, out=diagonal[i, :, i, :])
        diagonal[i, :, i, :] += const_diagonal[i, :, i, :]
    # out.T, Fortran-ordered, is conj(out): LAPACK solves it in place, and conj maps its eigenvector back
    vals, vecs = scipy.linalg.eigh(out.T, subset_by_index=(0, 0), overwrite_a=True, check_finite=False)
    return float(vals[0]), vecs[:, 0].conj()


def _term_form(w: np.ndarray, term: np.ndarray) -> float:
    """v^dag (I_f (x) term) v for v with rows w = v.reshape(f, len(term))."""
    # conj(w) @ term on LAPACK's BLAS, term passed as its transpose: on numpy's own BLAS, its threads
    # spun through the next eigensolve (1296 rows, 2 cores: 120 -> 180 ms)
    conj_w_term = scipy.linalg.blas.get_blas_funcs("gemm", (term,))(1.0, w.T, term.T, trans_a=2, trans_b=1)
    return float(np.sum(w * conj_w_term).real)


class BlockProbe:
    """lambda_min(alpha), slope, eigenvector and pencil tops of a probe held as blocks const + alpha I_f (x) term.

    blocks yields (const, term, low, high): const and term Hermitian of one
    dtype, term positive semidefinite, f = len(const) // len(term), and the
    prefactors 0 <= low <= high that scale the block's nonnegative and
    negative eigenvalues.  A real block below SOLO_MIN_ROWS rows joins the
    stack of its size, (const, linear, low, high) shaped (blocks, size, size)
    with linear = I_f (x) term; every other block is a solo.  Each alpha
    costs one batched `np.linalg.eigvalsh` per stack, one lowest-eigenpair
    solve per solo, and one for the lowest stacked block.  The slope is p
    v^dag (I_f (x) term) v for the lowest eigenvector v of the lowest block
    and its prefactor p: a supergradient of the concave minimum.
    rayleigh_bound(alpha) bounds lambda_min(alpha) from above with the
    pencil vectors of pencil_tops(), at one matvec per block.
    """

    def __init__(self, blocks):
        by_size: dict[int, list] = {}
        self.solos = []
        for const, term, low, high in blocks:
            if len(const) < SOLO_MIN_ROWS and not np.iscomplexobj(const):
                linear = _kron(_identity(len(const) // len(term)), term)
                by_size.setdefault(len(const), []).append((const, linear, low, high))
            else:
                self.solos.append((const, term, low, high))
        self.stacks = [tuple(map(np.array, zip(*by_size[size]))) for size in sorted(by_size)]
        # every solo solve, real or complex, works in this one byte array: allocating an array per block
        # and sample left 3.7 MB more resident after a 17-point fig1 sweep
        self._buffer = np.empty(max((const.nbytes for const, *_ in self.solos), default=0), dtype=np.uint8)
        self._pencil_vectors = None  # (per stack, per solo) from pencil_tops

    def _work(self, const: np.ndarray) -> np.ndarray:
        return self._buffer[: const.nbytes].view(const.dtype).reshape(const.shape)

    def lambda_min(self, alpha: float) -> tuple[float, float, np.ndarray]:
        best, slope, vec, stacked, solo = np.inf, 0.0, None, None, None
        for const, linear, low, high in self.stacks:
            lowest = np.linalg.eigvalsh(const + alpha * linear)[:, 0]
            scaled = np.where(lowest < 0.0, high, low) * lowest
            b = int(np.argmin(scaled))
            if scaled[b] < best:
                best, stacked = scaled[b], (const[b], linear[b], low[b], high[b])
        for const, term, low, high in self.solos:
            lam, v = _solo_lowest_pair(const, term, alpha, self._work(const))
            pref = high if lam < 0.0 else low
            if pref * lam < best:
                best, vec, stacked, solo = pref * lam, v, None, (term, pref)
        if solo is not None:
            term, pref = solo
            slope = pref * _term_form(vec.reshape(-1, len(term)), term)
        if stacked is not None:
            const, linear, low, high = stacked
            vals, vecs = np.linalg.eigh(const + alpha * linear)
            pref, vec = (high if vals[0] < 0.0 else low), vecs[:, 0]
            best, slope = pref * vals[0], pref * (vec @ linear @ vec)
        return float(best), float(slope), vec

    def pencil_tops(self) -> list[tuple[float, float]]:
        """(r, g) of every block, as `linalg.pencil_bracket` takes them; LinAlgError if a linear part is singular.

        r is the top eigenvalue of the block's pencil (-const, I_f (x) term),
        and g = high x^dag (I_f (x) term) x for its unit eigenvector x.  Each
        block of a stack takes one LAPACK dsygv, which on these few rows took a
        fifth to a half of the time of batched numpy Cholesky, solves and
        `eigh` per stack; a solo takes `linalg.pencil_top` in the buffer, with
        one Cholesky factor per term, shared by adjacent solos.  Each block's
        eigenvector, scaled to x^dag (I_f (x) term) x = 1, is kept for
        rayleigh_bound.
        """
        tops, stack_vectors, solo_vectors = [], [], []
        for const, linear, low, high in self.stacks:
            vectors = np.empty(const.shape[:2])
            for c, l, p, x in zip(const, linear, high, vectors):
                # the pencil (c, l) has eigenvalues -r, ascending, with eigenvectors v^T l v = 1
                vals, vecs, info = scipy.linalg.lapack.dsygv(c, l)
                if info:
                    raise np.linalg.LinAlgError(f"dsygv failed on a {len(c)}-row block, info {info}")
                x[:] = vecs[:, 0]
                tops.append((-float(vals[0]), p / float(vecs[:, 0] @ vecs[:, 0])))
            stack_vectors.append(vectors)
        factored = None
        for const, term, low, high in self.solos:
            if term is not factored:
                factored, chol = term, scipy.linalg.cholesky(term, lower=True, check_finite=False)
            r, x = pencil_top(const, chol, len(const) // len(term), self._work(const))
            solo_vectors.append(x)
            tops.append((r, high / float(np.vdot(x, x).real)))
        self._pencil_vectors = stack_vectors, solo_vectors
        return tops

    def rayleigh_bound(self, alpha: float) -> tuple[float, np.ndarray]:
        """The smallest scaled Rayleigh quotient p x^dag B(alpha) x / x^dag x over the blocks B, and its x as a unit vector.

        x is the block's pencil eigenvector from the last pencil_tops(), and p
        its high prefactor where the quotient is negative, else its low one.
        By Rayleigh-Ritz the value is at least the block's scaled lambda_min,
        so at least lambda_min(alpha): below -TOL_EIG it certifies alpha.  Each
        block costs one explicit matvec; const is read, not written.
        """
        if self._pencil_vectors is None:
            raise ValueError("rayleigh_bound needs the pencil vectors of pencil_tops()")
        stack_vectors, solo_vectors = self._pencil_vectors
        best, vec = np.inf, None
        for (const, linear, low, high), vectors in zip(self.stacks, stack_vectors):
            products = np.matmul(const + alpha * linear, vectors[:, :, None])[:, :, 0]
            quotients = np.sum(vectors * products, axis=1) / np.sum(vectors * vectors, axis=1)
            scaled = np.where(quotients < 0.0, high, low) * quotients
            b = int(np.argmin(scaled))
            if scaled[b] < best:
                best, vec = scaled[b], vectors[b]
        for (const, term, low, high), x in zip(self.solos, solo_vectors):
            # const x on LAPACK's BLAS, as _term_form; const.T is Fortran-ordered, so gemv reads it in place
            const_x = scipy.linalg.blas.get_blas_funcs("gemv", (const,))(1.0, const.T, x, trans=1)
            form = np.vdot(x, const_x).real + alpha * _term_form(x.reshape(-1, len(term)), term)
            quotient = form / np.vdot(x, x).real
            scaled = (high if quotient < 0.0 else low) * quotient
            if scaled < best:
                best, vec = scaled, x
        return float(best), vec / np.linalg.norm(vec)


def werner_probe(gamma: float, d: int, n: int, k: int) -> BlockProbe:
    """The Werner probe as a BlockProbe, on the I + gamma V scale: (d^2 + gamma d)^n times the probe.

    low and high are a block's smallest and largest prefactor over the one-dimensional labels of its other copies.
    """
    one_dim = (1.0 + gamma, 1.0 - gamma) if d >= k + 2 else (1.0 + gamma,)
    return BlockProbe(
        (const, term, min(one_dim) ** (n - len(mus)), max(one_dim) ** (n - len(mus)))
        for mus, _, _, const, term in werner_blocks(gamma, d, n, k)
    )
