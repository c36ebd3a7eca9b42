"""Probes held as blocks: the symmetry blocks of any state's probe, and of Werner-state probes.

`BlockProbe` solves any probe given as blocks const + alpha I_f (x) term.
`pair_spin_probe` builds the `dense` probe of any state, one block per
spin J of the output qubits' SU(2) and irrep lambda of the permutations of
the k + 1 extension pairs (`pair_spin_sectors`).  `werner_probe` builds the
probe of any Werner state at any number of copies n and extensions k.  Each probe
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

Every block is a polynomial in gamma of degree len(mus) <= n, and nothing
else in it depends on gamma.  `werner_polynomial` holds the coefficients of
the blocks below SOLO_MIN_ROWS rows, made once per (d, n, k), so each point
of a sweep evaluates them with one product; the larger blocks are built at
each gamma by the same recursion (`_werner_terms`).

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
from .states import bell_state


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


@functools.lru_cache(maxsize=None)
def specht_dim(shape: tuple[int, ...]) -> int:
    """f^shape, the dimension of the symmetric-group irrep (hook length formula)."""
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = (row - j + columns[j] - i - 1 for i, row in enumerate(shape) for j in range(row))
    return math.factorial(sum(shape)) // math.prod(hooks)


@functools.lru_cache(maxsize=None)
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
    """np.kron over the last two axes, broadcast over the leading ones, without np.kron's overhead for general shapes."""
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (product.shape[-4] * product.shape[-3], -1))


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


def _kron_poly(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """_kron of two polynomials in gamma, coefficients lowest first on a leading axis: the product's, by convolution."""
    products = _kron(p[:, None], q[None])
    if len(q) == 1:
        return products[:, 0]
    out = np.zeros((len(p) + len(q) - 1,) + products.shape[2:])
    for j in range(len(q)):
        out[j : j + len(p)] += products[:, j]
    return out


def _gl_power(pair: np.ndarray, shape: tuple[int, ...], memo: dict) -> np.ndarray:
    """pi_shape(A) = U_shape^T A^(x j) U_shape for the polynomials A of pair, one copy at a time; memoised in memo by shape.

    pi_shape(A) = V^T (pi_parent(A) (x) A) V, with V = gl_step(f, shape), on each coefficient.
    """
    if sum(shape) == 1:
        return pair
    if shape not in memo:
        step = gl_step(pair.shape[-1], shape)
        memo[shape] = step.T @ _kron_poly(_gl_power(pair, _without_last_box(shape), memo), pair) @ step
    return memo[shape]


def _whole(pair: dict, mus: tuple, memo: dict) -> np.ndarray:
    """R_i = (x)_c A_i over the copies labelled mus, stacked over i, one copy at a time; memoised in memo by multiset."""
    if mus not in memo:
        memo[mus] = _kron_poly(_whole(pair, mus[:-1], memo), pair[mus[-1]])
    return memo[mus]


def _werner_layout(d: int, n: int, k: int) -> tuple[tuple, ...]:
    """(mus, lams, nu, t) of every block and piece of `werner_blocks` at |gamma| < 1, in its order; term has t rows.

    A block of SOLO_MIN_ROWS rows or more in which a label repeats is split
    into one piece per choice of lambda |- j with at most f^mu rows for the j
    copies of each label mu.
    """
    m = k + 2
    shapes = [mu for mu in partitions(m, d) if 1 < len(mu) < m]
    layout = []
    for mus in itertools.chain.from_iterable(
        itertools.combinations_with_replacement(shapes, j) for j in range(n + 1)
    ):
        labels, copies = tuple(dict.fromkeys(mus)), math.prod(specht_dim(mu) for mu in mus)
        for nu in partitions(m, 2):
            if len(labels) < len(mus) and copies * specht_dim(nu) >= SOLO_MIN_ROWS:
                for lams in itertools.product(*(partitions(mus.count(mu), specht_dim(mu)) for mu in labels)):
                    rows = math.prod(unitary_dim(lam, specht_dim(mu)) for mu, lam in zip(labels, lams))
                    layout.append((mus, lams, nu, rows))
            else:
                layout.append((mus, None, nu, copies))
    return tuple(layout)


@functools.lru_cache(maxsize=None)
def _halves(nu: tuple[int, ...]) -> np.ndarray:
    """(I - Y_nu(tau_i)) / 2 stacked over i, the factor of the i-th term on the nu side; read-only."""
    ys = np.array(young_transpositions(nu))
    halves = 0.5 * (_identity(ys.shape[-1]) - ys)
    halves.setflags(write=False)
    return halves


def _werner_const(terms: np.ndarray, nu: tuple[int, ...]) -> np.ndarray:
    """const = -sum_i (I - Y_nu(tau_i)) / 2 (x) R_i for each coefficient of the stack R_i, rows (nu, copies).

    One einsum, with no BLAS call and no array per i.
    """
    half = _halves(nu)
    rows = len(half[0]) * terms.shape[-1]
    return np.einsum("dixy,iab->daxby", terms, -half, order="C").reshape(len(terms), rows, rows)


def _werner_terms(pair: dict, k: int, layout: tuple, chosen):
    """Yield (index, const, term) for each index of chosen, ascending, into layout, as polynomials in gamma.

    pair[mu] holds A_i = I + gamma Y_mu(tau_i), i = 0..k, stacked over i,
    as coefficients on a leading axis: (I, Y_mu(tau_i)), or the one
    coefficient I + gamma Y_mu(tau_i) with gamma applied.  With R_i the
    product of the copies' A_i, or of their pi_lambda(A_i) in a piece, const
    = -sum_i (I - Y_nu(tau_i)) / 2 (x) R_i (`_werner_const`) and term =
    sum_i R_i, on the same leading axis; term is one list of
    coefficients for the blocks of one copy multiset and lams.  Products are
    formed only as chosen needs them, and the pieces of one copy multiset at
    a time.
    """
    wholes = {(): np.ones((1, k + 1, 1, 1))}  # memo of _whole
    powers: dict = {mu: {} for mu in pair}  # memo of _gl_power per label
    pieces, current = {}, None  # lams -> (R_i stacked over i, sum_i R_i) of the current copy multiset
    for index in chosen:
        mus, lams, nu, _ = layout[index]
        if mus != current:
            pieces, current = {}, mus
        if lams not in pieces:
            if lams is None:
                terms = _whole(pair, mus, wholes)
            else:
                factors = (_gl_power(pair[mu], lam, powers[mu]) for mu, lam in zip(dict.fromkeys(mus), lams))
                terms = functools.reduce(_kron_poly, factors)
            pieces[lams] = terms, list(terms.sum(axis=1))
        terms, term = pieces[lams]
        yield index, _werner_const(terms, nu), term


class WernerPolynomial:
    """The blocks and pieces of the n-copy, k-extension probe of a d x d Werner state as polynomials in gamma.

    Made once per (d, n, k) by `werner_polynomial`.  R_i is a product of
    len(mus) factors I + gamma Y, so every block is a polynomial of degree
    len(mus) <= n, and nothing else in it depends on gamma.  The blocks of
    fewer than SOLO_MIN_ROWS rows, which `BlockProbe` stacks, are held in
    coeffs, shape (n + 1, entries), one row per power of gamma: const of
    every stack of one size, block by block in werner_blocks' order, then
    term once per copy multiset and lams.  They are `_werner_terms` on the
    coefficients (I, Y_mu(tau_i)) of A_i: exact, with no fit.  I_f (x) term
    is placed from term by index, so coeffs holds no zero off its diagonal
    (20 MiB instead of 27.5 MiB at d = 3, n = 8, k = 2).  Larger blocks would
    take far more (255 MiB at d = 3, n = k = 3), so they are built for each
    gamma, by the same `_werner_terms` with gamma applied.
    """

    def __init__(self, d: int, n: int, k: int):
        self.n, self.k = n, k
        self.layout = layout = _werner_layout(d, n, k)
        self.exponents = np.array([n - len(mus) for mus, *_ in layout], dtype=int)  # of each block's prefactor
        f = np.array([specht_dim(nu) for _, _, nu, _ in layout])
        t = np.array([rows for *_, rows in layout])
        self.solos = np.flatnonzero(f * t >= SOLO_MIN_ROWS).tolist()
        small = np.flatnonzero(f * t < SOLO_MIN_ROWS)
        small = small[np.argsort((f * t)[small], kind="stable")]  # by size, in layout order within one size
        f, t = f[small], t[small]
        start = np.concatenate(([0], np.cumsum((f * t) ** 2)))  # of each stacked block's const
        sizes, firsts, counts = (a.tolist() for a in np.unique(f * t, return_index=True, return_counts=True))
        self.stacks = [(size, int(start[first]), small[first : first + count]) for size, first, count in zip(sizes, firsts, counts)]
        self._const_entries = entries = int(start[-1])
        term_start = {}
        for index in small.tolist():
            mus, lams, _, rows = layout[index]
            if (mus, lams) not in term_start:
                term_start[mus, lams], entries = entries, entries + rows * rows
        # I_f (x) term of every stacked block, entry e = (i, x, y) of its diagonal blocks: linear[destination] = values[source]
        block = np.repeat(np.arange(len(small)), f * t * t)
        e = np.arange(len(block)) - np.repeat(np.cumsum(f * t * t) - f * t * t, f * t * t)
        square = t[block] ** 2
        i, (x, y) = e // square, np.divmod(e % square, t[block])
        destination = start[block] + (i * t[block] + x) * (f * t)[block] + i * t[block] + y
        source = np.array([term_start[layout[index][:2]] for index in small.tolist()])[block] + e % square
        self._linear = destination, source
        shapes = dict.fromkeys(mu for mus, *_ in layout for mu in mus)
        self._young = {mu: np.array(young_transpositions(mu)) for mu in shapes}
        pair = {mu: np.array([[_identity(len(ys[0]))] * (k + 1), ys]) for mu, ys in self._young.items()}
        self.coeffs = np.zeros((n + 1, entries))
        const_start = dict(zip(small.tolist(), start.tolist()))
        for index, const, term in _werner_terms(pair, k, layout, sorted(const_start)):
            mus, lams, _, rows = layout[index]
            first = const_start[index]
            self.coeffs[: len(const), first : first + const[0].size] = const.reshape(len(const), -1)
            self.coeffs[: len(term), term_start[mus, lams] : term_start[mus, lams] + rows * rows] = np.reshape(term, (len(term), -1))
        self.coeffs.setflags(write=False)
        self._kept_by_sign: dict = {}

    def _kept(self, sign: float) -> tuple[list, list]:
        """(stacks, solos) of the blocks kept at gamma = sign = +-1, or at |gamma| < 1 for sign 0; made once per sign.

        stacks holds (indices, mask) per stack: the kept blocks' layout
        indices, and which blocks of the stack they are, None for all.  At
        gamma = +-1 a piece whose lambda has more rows than the rank of
        A_i = I +- Y_mu(tau_i) is zero and is left out.
        """
        if sign not in self._kept_by_sign:
            rank = {
                mu: int(np.linalg.matrix_rank(_identity(len(ys[0])) + sign * ys[0])) if sign else len(ys[0])
                for mu, ys in self._young.items()
            }
            kept = np.array([
                lams is None or all(len(lam) <= rank[mu] for mu, lam in zip(dict.fromkeys(mus), lams))
                for mus, lams, _, _ in self.layout
            ])
            masks = [kept[indices] for _, _, indices in self.stacks]
            stacks = [(indices[mask], None if mask.all() else mask) for (_, _, indices), mask in zip(self.stacks, masks)]
            self._kept_by_sign[sign] = stacks, [index for index in self.solos if kept[index]]
        return self._kept_by_sign[sign]

    def blocks(self, gamma: float) -> tuple[list, object]:
        """(stacks, solos) of the probe at gamma.

        stacks holds (indices, const, linear) per nonempty stack: the
        blocks' layout indices, and const and linear = I_f (x) term shaped
        (blocks, size, size), evaluated from coeffs with one product, views of
        one array where no block is left out.  solos yields (index, const,
        term) for each larger block, built now with gamma applied.
        """
        gemv = scipy.linalg.blas.get_blas_funcs("gemv", (self.coeffs,))  # coeffs.T is Fortran-ordered: read in place
        values = gemv(1.0, self.coeffs.T, gamma ** np.arange(self.n + 1.0))
        linear_values = np.zeros(self._const_entries)
        destination, source = self._linear
        linear_values[destination] = values[source]
        kept_stacks, kept_solos = self._kept(gamma if abs(gamma) == 1.0 else 0.0)
        stacks = []
        for (size, first, indices), (chosen, mask) in zip(self.stacks, kept_stacks):
            part = slice(first, first + len(indices) * size * size)
            const, linear = values[part].reshape(-1, size, size), linear_values[part].reshape(-1, size, size)
            if mask is not None:
                const, linear = const[mask], linear[mask]
            if len(chosen):
                stacks.append((chosen, const, linear))
        pair = {mu: (_identity(len(ys[0])) + gamma * ys)[None] for mu, ys in self._young.items()} if kept_solos else {}
        solos = ((index, const[0], term[0]) for index, const, term in _werner_terms(pair, self.k, self.layout, kept_solos))
        return stacks, solos


@functools.lru_cache(maxsize=None)
def werner_polynomial(d: int, n: int, k: int) -> WernerPolynomial:
    """The WernerPolynomial of (d, n, k), made on first use and kept: a sweep over gamma builds it once."""
    return WernerPolynomial(d, n, k)


def werner_blocks(gamma: float, d: int, n: int, k: int):
    """Yield (mus, lams, nu, const, term) for every block or piece const + alpha I_{dim nu} (x) term of the Werner probe.

    Every block and piece is on the I + gamma V scale.  mus is a multiset of
    multi-row copy labels (a sorted tuple of at most n partitions of k + 2
    with at most d rows, neither one row nor one column), nu a partition of
    k + 2 with at most 2 rows.  The other n - len(mus)
    copies carry one-dimensional labels, each multiplying the block by
    1 + gamma for (k + 2) or 1 - gamma for (1^(k+2)) when d >= k + 2.
    Rows are ordered (nu, copies).  term is sum_i R_i; a block of
    SOLO_MIN_ROWS rows or more shares one term array with the blocks of its
    copy multiset, or the pieces of its lams.

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

    The smaller blocks are `werner_polynomial` evaluated at gamma, as
    `werner_probe` takes them; the larger ones are built with gamma applied.
    """
    polynomial = werner_polynomial(d, n, k)
    stacks, solos = polynomial.blocks(gamma)
    stacked = {}
    for indices, const, linear in stacks:
        for index, c, l in zip(indices, const, linear):
            t = polynomial.layout[index][3]
            stacked[index] = c, l[:t, :t]
    solo = next(solos, None)
    for index, (mus, lams, nu, _) in enumerate(polynomial.layout):
        if index in stacked:
            yield (mus, lams, nu, *stacked[index])
        elif solo is not None and solo[0] == index:
            yield (mus, lams, nu, *solo[1:])
            solo = next(solos, None)


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
    with linear = I_f (x) term; every other block is a solo.  stacks
    already formed, such as `werner_probe`'s, are passed as stacks and
    taken as they are, ahead of those formed from blocks.  Each alpha
    costs one batched `np.linalg.eigvalsh` per stack, one lowest-eigenpair
    solve per solo, and one for the lowest stacked block.  The slope is p
    v^dag (I_f (x) term) v for the lowest eigenvector v of the lowest block
    and its prefactor p: a supergradient of the concave minimum.
    rayleigh_bound(alpha) bounds lambda_min(alpha) from above with the
    pencil vectors of pencil_tops(), at one matvec per block.  Both return
    lift(i, x) for the vector x of the i-th block yielded, where a lift is
    given (the dense probe's, into the probe's layout), and x itself
    otherwise; a lift indexes blocks alone, so it is not given with stacks.
    """

    def __init__(self, blocks, lift=None, stacks=()):
        stacks = list(stacks)
        by_size: dict[int, list] = {}
        origins: dict[int, list[int]] = {}
        self.solos, self._solo_origins = [], []
        for index, (const, term, low, high) in enumerate(blocks):
            if len(const) < SOLO_MIN_ROWS and not np.iscomplexobj(const):
                linear = _kron(_identity(len(const) // len(term)), term)
                by_size.setdefault(len(const), []).append((const, linear, low, high))
                origins.setdefault(len(const), []).append(index)
            else:
                self.solos.append((const, term, low, high))
                self._solo_origins.append(index)
        self.stacks = stacks + [tuple(map(np.array, zip(*by_size[size]))) for size in sorted(by_size)]
        self._stack_origins = [[None] * len(const) for const, *_ in stacks] + [origins[size] for size in sorted(by_size)]
        self._lift = lift
        # every solo solve, real or complex, works in this one byte array: allocating an array per block
        # and sample left 3.7 MB more resident after a 17-point fig1 sweep
        self._buffer = np.empty(max((const.nbytes for const, *_ in self.solos), default=0), dtype=np.uint8)
        self._pencil_vectors = None  # (per stack, per solo) from pencil_tops

    def _work(self, const: np.ndarray) -> np.ndarray:
        return self._buffer[: const.nbytes].view(const.dtype).reshape(const.shape)

    def _lifted(self, origin: int, vec: np.ndarray) -> np.ndarray:
        """The probe's vector of block origin's vector vec: lift(origin, vec), or vec itself without a lift."""
        return vec if self._lift is None else self._lift(origin, vec)

    def lambda_min(self, alpha: float) -> tuple[float, float, np.ndarray]:
        best, slope, vec, stacked, solo, origin = np.inf, 0.0, None, None, None, None
        for (const, linear, low, high), origins in zip(self.stacks, self._stack_origins):
            lowest = np.linalg.eigvalsh(const + alpha * linear)[:, 0]
            scaled = np.where(lowest < 0.0, high, low) * lowest
            b = int(np.argmin(scaled))
            if scaled[b] < best:
                best, stacked, origin = scaled[b], (const[b], linear[b], low[b], high[b]), origins[b]
        for (const, term, low, high), index in zip(self.solos, self._solo_origins):
            lam, v = _solo_lowest_pair(const, term, alpha, self._work(const))
            pref = high if lam < 0.0 else low
            if pref * lam < best:
                best, vec, stacked, solo, origin = pref * lam, v, None, (term, pref), index
        if solo is not None:
            term, pref = solo
            slope = pref * _term_form(vec.reshape(-1, len(term)), term)
        if stacked is not None:
            const, linear, low, high = stacked
            vals, vecs = np.linalg.eigh(const + alpha * linear)
            pref, vec = (high if vals[0] < 0.0 else low), vecs[:, 0]
            best, slope = pref * vals[0], pref * (vec @ linear @ vec)
        return float(best), float(slope), self._lifted(origin, vec)

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
        best, vec, origin = np.inf, None, None
        for (const, linear, low, high), vectors, origins in zip(self.stacks, stack_vectors, self._stack_origins):
            products = np.matmul(const + alpha * linear, vectors[:, :, None])[:, :, 0]
            quotients = np.sum(vectors * products, axis=1) / np.sum(vectors * vectors, axis=1)
            scaled = np.where(quotients < 0.0, high, low) * quotients
            b = int(np.argmin(scaled))
            if scaled[b] < best:
                best, vec, origin = scaled[b], vectors[b], origins[b]
        for (const, term, low, high), x, index in zip(self.solos, solo_vectors, self._solo_origins):
            # const x on LAPACK's BLAS, as _term_form; const.T is Fortran-ordered, so gemv reads it in place
            const_x = scipy.linalg.blas.get_blas_funcs("gemv", (const,))(1.0, const.T, x, trans=1)
            form = np.vdot(x, const_x).real + alpha * _term_form(x.reshape(-1, len(term)), term)
            quotient = form / np.vdot(x, x).real
            scaled = (high if quotient < 0.0 else low) * quotient
            if scaled < best:
                best, vec, origin = scaled, x, index
        return float(best), self._lifted(origin, vec / np.linalg.norm(vec))


def werner_probe(gamma: float, d: int, n: int, k: int) -> BlockProbe:
    """The Werner probe as a BlockProbe, on the I + gamma V scale: (d^2 + gamma d)^n times the probe.

    low and high are a block's smallest and largest prefactor over the one-dimensional labels of its other copies.
    The stacks are `werner_polynomial(d, n, k)` evaluated at gamma, handed over as they are; only the solos are
    built here.
    """
    one_dim = (1.0 + gamma, 1.0 - gamma) if d >= k + 2 else (1.0 + gamma,)
    # the prefactors by exponent n - len(mus)
    low, high = (np.array([prefactor**e for e in range(n + 1)]) for prefactor in (min(one_dim), max(one_dim)))
    polynomial = werner_polynomial(d, n, k)
    stacks, solos = polynomial.blocks(gamma)
    exponents = polynomial.exponents
    return BlockProbe(
        ((const, term, low[exponents[index]], high[exponents[index]]) for index, const, term in solos),
        stacks=[(const, linear, low[exponents[indices]], high[exponents[indices]]) for indices, const, linear in stacks],
    )


# ---------------------------------------------------------------------------
# blocks of any state's probe: permutations of the extension pairs x the output qubits' SU(2)


def _product(a: np.ndarray, b: np.ndarray, transpose_a: bool = False) -> np.ndarray:
    """a @ b, or a^T @ b, C-ordered, for C-ordered a and b, on scipy's BLAS.

    A C-ordered matrix is its Fortran-ordered transpose, so gemm forms the
    transposed product b^T op(a)^T with no copy.  numpy's own BLAS would
    start its own thread pool on these few hundred rows (+5 MB peak RSS).
    """
    gemm = scipy.linalg.blas.get_blas_funcs("gemm", (a, b))
    return gemm(1.0, b.T, a.T, trans_b=int(transpose_a)).T


@functools.lru_cache(maxsize=None)
def spin_basis(k: int, two_j: int) -> np.ndarray:
    """Q_J: a real isometry from the qubits (s, x0..xk), s first, onto the highest-weight vectors of spin J = two_j / 2; read-only.

    The probe commutes with U_s (x) conj(U)_x0 (x) ... (x) conj(U)_xk, since
    (U (x) conj(U)) Phi+ = Phi+.  Its generators are J_a = (sigma_a^(s) -
    sum_i conj(sigma_a)^(x_i)) / 2: J_z is diagonal, and J_+ = sigma_+^(s) -
    sum_i sigma_-^(x_i) is real.  The columns span the kernel of J_+ on the
    J_z = J states, where J_- J_+ has eigenvalues J'(J'+1) - J(J+1), 0 for
    J' = J and at least 2 above.  Their number is m_J = f^nu, nu = ((k+2)/2 +
    J, (k+2)/2 - J).
    """
    qubits = k + 2
    states = np.arange(2**qubits)
    bits = (states[:, None] >> np.arange(qubits - 1, -1, -1)) & 1
    twice_jz = (1 - 2 * bits[:, 0]) - np.sum(1 - 2 * bits[:, 1:], axis=1)
    columns, rows = np.flatnonzero(twice_jz == two_j), np.flatnonzero(twice_jz == two_j + 2)
    row_of = {int(state): i for i, state in enumerate(rows)}
    raising = np.zeros((len(rows), len(columns)))
    for c, state in enumerate(columns):
        for t, sign in enumerate([1.0] + [-1.0] * (qubits - 1)):
            if bits[state, t] == (1 if t == 0 else 0):  # sigma_+ = |0><1| on s, sigma_- = |1><0| on each x
                raising[row_of[int(state ^ (1 << (qubits - 1 - t)))], c] += sign
    vals, vecs = scipy.linalg.eigh(raising.T @ raising)
    basis = np.zeros((len(states), int(np.sum(vals < 0.5))))
    basis[columns] = vecs[:, vals < 0.5]
    basis.setflags(write=False)
    return basis


def _qubit_swap(spin: np.ndarray, k: int, a: int, b: int) -> np.ndarray:
    """The columns of spin with the qubits x_a and x_b exchanged."""
    tensor = spin.reshape((2,) * (k + 2) + (-1,))
    return np.ascontiguousarray(np.swapaxes(tensor, 1 + a, 1 + b)).reshape(spin.shape)


def _spin_bell(spin: np.ndarray, k: int, i: int, entry: float) -> np.ndarray:
    """Phi_i^J = Q_J^T Phi+_{s,x_i} Q_J, entry being Phi+'s entries on (s, x_i) = 00 and 11."""
    tensor = spin.reshape((2,) * (k + 2) + (-1,))
    slices = [(bit,) + (slice(None),) * i + (bit,) for bit in (0, 1)]  # (s, x_i) = 00 and 11
    half = entry * (tensor[slices[0]] + tensor[slices[1]])
    product = np.zeros_like(tensor)
    for where in slices:
        product[where] = half
    return spin.T @ product.reshape(spin.shape)


def _pair_split(vectors: np.ndarray, tensor: tuple[int, ...], i: int) -> np.ndarray:
    """Columns with rows (m, X0..Xk) as a matrix with rows (m, X_j for j != i) and columns (X_i, column)."""
    moved = np.moveaxis(vectors.reshape(tensor + (-1,)), 1 + i, -2)
    return np.ascontiguousarray(moved).reshape(-1, tensor[1 + i] * vectors.shape[1])


def _pair_transposition(vectors: np.ndarray, rotation: np.ndarray, tensor: tuple[int, ...], a: int, b: int) -> np.ndarray:
    """The pair transposition (a b) on V_J applied to columns with rows (m, X0..Xk): rotation on m, X_a and X_b exchanged."""
    out = _product(rotation, vectors.reshape(tensor[0], -1)).reshape(tensor + (-1,))
    return np.ascontiguousarray(np.swapaxes(out, 1 + a, 1 + b)).reshape(len(vectors), -1)


def _pair_bases(spin: np.ndarray, tensor: tuple[int, ...], k: int) -> dict:
    """{lambda: basis} over lambda |- k + 1 with a nonzero basis: V_J's Jucys-Murphy eigenspace at lambda's row-reading tableau.

    Built one box at a time, for every tableau prefix of one size at once.
    Box j's element X_j = sum_{a<j} (a j) is solved on the span of its
    parent's basis, whose children are the parent with box j ending its
    last row or starting a new one, at content (row length - 1) - row.  Box
    1's eigenspaces are written down from those of its two factors, so the
    largest eigensolve is box 2's, on one of them.  LAPACK's divide and
    conquer (evd) took a quarter of the time of the default (evr) on these
    clustered integer spectra.
    """
    d = tensor[1]
    rotations = {(a, b): spin.T @ _qubit_swap(spin, k, a, b) for b in range(k + 1) for a in range(b)}
    # box 1: (0 1) = R (x) P_X0X1 has eigenvalue +1 on (R = +1, P symmetric) + (R = -1, P antisymmetric), -1 on the
    # other two, so these eigenspaces need no eigensolve of V_J's size
    signs, rotation_vectors = scipy.linalg.eigh(rotations[0, 1])
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    halves = {1.0: np.zeros((d * d, len(pairs))), -1.0: np.zeros((d * d, len(pairs) - d))}
    for c, (a, b) in enumerate(pairs):
        halves[1.0][[a * d + b, b * d + a], c] = math.sqrt(0.5) if a < b else (1.0, 1.0)
    for c, (a, b) in enumerate((a, b) for a, b in pairs if a < b):
        halves[-1.0][[a * d + b, b * d + a], c] = (math.sqrt(0.5), -math.sqrt(0.5))
    rest = _identity(d ** (k - 1))
    level = {}
    for shape, sign in (((2,), 1.0), ((1, 1), -1.0)):
        parts = [_kron(_kron(rotation_vectors[:, signs * s > 0], halves[s * sign]), rest) for s in (1.0, -1.0)]
        if sum(part.shape[1] for part in parts):
            level[shape] = np.ascontiguousarray(np.concatenate(parts, axis=1))
    for box in range(2, k + 1):
        following = {}
        for parent, previous in level.items():
            jucys = sum(_pair_transposition(previous, rotations[a, box], tensor, a, box) for a in range(box))
            vals, vecs = scipy.linalg.eigh(
                _product(previous, jucys, transpose_a=True), driver="evd", overwrite_a=True, check_finite=False
            )
            extend = [parent[:-1] + (parent[-1] + 1,)] if len(parent) == 1 or parent[-1] < parent[-2] else []
            for shape in extend + [parent + (1,)]:
                step = np.ascontiguousarray(vecs[:, np.abs(vals - (shape[-1] - len(shape))) < 0.5])
                if step.shape[1]:
                    following[shape] = _product(previous, step)
        level = following
    return level


@functools.lru_cache(maxsize=None)
def pair_spin_sectors(d: int, k: int) -> tuple:
    """(two_j, lam, basis, const_form, term_form) for every (J, lambda) block of the probe with extended-party dimension d.

    The probe commutes with the spin generators of `spin_basis`, so on the
    highest-weight vectors of spin J it is sum_i rho_i (x) (alpha I -
    Phi_i^J) on V_J = (X0..Xk) (x) R^(m_J), each eigenvalue repeated 2J + 1
    times.  A permutation of the k + 1 extension pairs acts on V_J as the
    permutation of the X factors times Q_J^T P Q_J on the qubits.  basis,
    rows (m, X0..Xk), spans the joint eigenspace of its Jucys-Murphy elements
    X_j = sum_{a<j} (a j) at the contents of lambda's row-reading tableau,
    found one box at a time: each X_j is solved on the span of the previous
    box's eigenvectors.  So it holds one vector of every copy of the irrep
    lambda in V_J, and the probe restricted to I_S (x) basis has every
    eigenvalue of that part of the probe, each f^lambda (2J + 1) times.

    The forms do not depend on the state: with A_i = basis split by pair i
    (`_pair_split`) and B_i the same of Phi_i^J basis, const_form = sum_i A_i^T
    B_i and term_form = sum_i A_i^T A_i, entries (x, a, x', b) stored as
    ((x, x'), (a, b)).  A state's block entries are then sum_{x, x'} rho[s, x,
    s', x'] form[(x, x'), (a, b)] (`pair_spin_blocks`).  Only lambda with a
    nonzero basis appear.  Made once per (d, k): the largest eigensolve is on
    an eigenspace of (0 1), of at most m_J d^(k+1) rows.
    """
    sectors, entry = [], bell_state("phi_plus", 2).matrix[0, 0]  # (1/sqrt(2))^2, as the probe's other builders take it
    for nu in partitions(k + 2, 2):
        two_j = nu[0] - (nu[1] if len(nu) > 1 else 0)
        spin = spin_basis(k, two_j)
        m = spin.shape[1]
        tensor = (m,) + (d,) * (k + 1)
        rows = m * d ** (k + 1)
        bases = _pair_bases(spin, tensor, k)
        bells = [_spin_bell(spin, k, i, entry) for i in range(k + 1)]
        for lam in (lam for lam in partitions(k + 1, k + 1) if lam in bases):
            vectors = bases[lam]
            r = vectors.shape[1]
            const = np.zeros((d * r, d * r))
            term = np.zeros((d * r, d * r))
            for i, bell in enumerate(bells):
                split = _pair_split(vectors, tensor, i)
                term += _product(split, split, transpose_a=True)
                bell_split = _pair_split(_product(bell, vectors.reshape(m, -1)).reshape(rows, r), tensor, i)
                const += _product(split, bell_split, transpose_a=True)
            forms = []
            for form in (const, term):
                form = (0.5 * (form + form.T)).reshape(d, r, d, r).transpose(0, 2, 1, 3)
                forms.append(np.ascontiguousarray(form).reshape(d * d, r * r))
                forms[-1].setflags(write=False)
            vectors.setflags(write=False)
            sectors.append((two_j, lam, vectors, *forms))
    return tuple(sectors)


@functools.lru_cache(maxsize=None)
def _character(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """The character of the symmetric-group irrep shape at a permutation of cycle type cycles, a partition of |shape|.

    The Murnaghan-Nakayama rule on beta-numbers b_i = shape_i + (rows - 1 -
    i): removing a border strip of the first cycle's length moves one b to b
    - length, with sign (-1)^(the b strictly between).  Memoized on (shape,
    cycles), so no matrix of the irrep is formed.
    """
    if not cycles:
        return 1
    length, rest = cycles[0], cycles[1:]
    beta = [part + len(shape) - 1 - i for i, part in enumerate(shape)]
    total = 0
    for b in beta:
        if b >= length and b - length not in beta:
            moved = sorted((b - length if other == b else other for other in beta), reverse=True)
            smaller = tuple(p for p in (x - (len(moved) - 1 - i) for i, x in enumerate(moved)) if p > 0)
            total += (-1) ** sum(b - length < other < b for other in beta) * _character(smaller, rest)
    return total


@functools.lru_cache(maxsize=None)
def pair_spin_multiplicities(d: int, k: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """(two_j, lam, r) for every (J, lambda) block of `pair_spin_sectors(d, k)`, from characters alone.

    r, the multiplicity of lambda in V_J and the block's columns per
    spectator row, is the character inner product sum over cycle types c of
    k + 1 of chi_lambda(c) d^len(c) chi_nu(c + (1,)) / z_c, where nu is J's
    two-row label of S_(k+2), whose last letter, s, every pair permutation
    fixes.  Only r > 0 appear, in the order of `pair_spin_sectors`.
    """
    types = partitions(k + 1, k + 1)
    centralizer = {c: math.prod(length ** c.count(length) * math.factorial(c.count(length)) for length in set(c)) for c in types}
    order = math.factorial(k + 1)
    sizes = []
    for nu in partitions(k + 2, 2):
        for lam in types:
            count = sum(order // centralizer[c] * _character(lam, c) * d ** len(c) * _character(nu, c + (1,)) for c in types)
            if count:
                sizes.append((nu[0] - (nu[1] if len(nu) > 1 else 0), lam, count // order))
    return tuple(sizes)


@functools.lru_cache(maxsize=None)
def pair_spin_bytes(d_s: int, d: int, k: int, itemsize: int, limit: float = math.inf) -> int:
    """Peak bytes of `pair_spin_probe` and its threshold in a fresh process, estimated from dimensions alone.

    itemsize is the state's, 8 or 16.  The estimate adds three parts:
    building a spin sector's Jucys-Murphy bases (`_pair_bases`), about 5
    float64 arrays of its m_J d^(k+1) rows squared; the cached forms, 2
    float64 (d r)^2 per block, and the blocks, 2 (d_s r)^2 entries of
    itemsize, all held at once; and 4 more arrays the size of the largest
    form or block, to form and solve it.  It came within -18 % to +42 % of
    the peak RSS growth of one threshold in a fresh process, 11-1063 MiB on
    twelve problems (2 cores), and above the tracemalloc peak of a build and
    threshold.  Where the bases' build alone passes limit, that part is
    returned, with no character sum.
    """
    build = 5 * 8 * (max(specht_dim(nu) for nu in partitions(k + 2, 2)) * d ** (k + 1)) ** 2
    if build > limit:
        return build
    sizes = [r for *_, r in pair_spin_multiplicities(d, k)]
    held = sum(2 * 8 * (d * r) ** 2 + 2 * itemsize * (d_s * r) ** 2 for r in sizes)
    return build + held + 4 * max(max(8 * (d * r) ** 2, itemsize * (d_s * r) ** 2) for r in sizes)


def pair_spin_blocks(rho: np.ndarray, d_s: int, d: int, k: int):
    """Yield (two_j, lam, const, term): block (J, lambda) of the probe sum_i rho_{S,X_i} (x) (alpha I - Phi+)_{s,x_i}.

    rho is the d_s d x d_s d state on (S, X), the fused state of
    `solver.ProbeAssembly`.  The block is W^dag P(alpha) W = const + alpha
    term with W = I_S (x) Q_J basis, rows (S, basis column), on the probe's
    scale, in the order of `pair_spin_sectors`.  Its entries are one scipy
    gemm of rho, real and imaginary parts stacked, against the sector's
    cached forms.  Every block's eigenvalues are the probe's, each repeated
    f^lambda (2J + 1) times, and together they are the whole spectrum.
    """
    pairs = rho.reshape(d_s, d, d_s, d).transpose(0, 2, 1, 3).reshape(d_s * d_s, d * d)
    stacked = np.concatenate([pairs.real, pairs.imag]) if np.iscomplexobj(rho) else np.ascontiguousarray(pairs)

    def entries(form: np.ndarray, r: int) -> np.ndarray:
        product = _product(stacked, form)
        if np.iscomplexobj(rho):
            product = product[: d_s * d_s] + 1j * product[d_s * d_s :]
        return np.ascontiguousarray(product.reshape(d_s, d_s, r, r).transpose(0, 2, 1, 3)).reshape(d_s * r, -1)

    for two_j, lam, vectors, const_form, term_form in pair_spin_sectors(d, k):
        r = vectors.shape[1]
        yield two_j, lam, -entries(const_form, r), entries(term_form, r)


def pair_spin_probe(rho: np.ndarray, d_s: int, d: int, k: int) -> BlockProbe:
    """The dense backend's probe: `pair_spin_blocks` as a BlockProbe (low = high = 1), every block kept.

    That includes J = (k+2)/2, whose Bell term is 0: its block alpha term is
    never negative, but it can hold lambda_min near alpha = 1.  Vectors are
    lifted through W into `solver.ProbeAssembly`'s layout (S, X0..Xk, s,
    x0..xk): a block vector u, rows (S, column), becomes sum_b u[S, b] Q_J
    basis[:, b].
    """
    sectors = pair_spin_sectors(d, k)

    def lift(index: int, vec: np.ndarray) -> np.ndarray:
        two_j, _, vectors, _, _ = sectors[index]
        spin = spin_basis(k, two_j)
        # (m, X, S) from the block's (S, column), then (qubits, X, S) -> (S, X, qubits)
        mixed = _product(vectors, np.ascontiguousarray(vec.reshape(d_s, -1).T))
        full = _product(spin, mixed.reshape(spin.shape[1], -1))
        return np.ascontiguousarray(full.reshape(len(spin), -1, d_s).transpose(2, 1, 0)).reshape(-1)

    return BlockProbe([(const, term, 1.0, 1.0) for *_, const, term in pair_spin_blocks(rho, d_s, d, k)], lift)
