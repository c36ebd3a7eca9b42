"""Symmetric-group block decompositions of Werner-state probes.

`s3_block_lambda_min` covers one extension: each of the n state triples and
the single target triple decomposes into a totally symmetric scalar, a
totally antisymmetric scalar and a qubit factor.  The full operator
restricted to a label tuple is a sum of two tensor products of the
per-triple components, so its smallest eigenvalue factorizes into a scalar
prefactor times a small dense block.

`WernerBlocks` covers any number of copies n and extensions k.  Each probe
term rho_{S,X_i} x (alpha I - Phi+)_{s,x_i} of a Werner state rho =
c0 I + c1 V, with every x qubit rotated by iY (which turns Phi+ into psi-
and keeps the spectrum), is the group-algebra element

    (x)_c (c0 + c1 tau_i) (x) ((alpha - 1/2) + tau_i / 2)

of S_m^{n+1}, m = k + 2, where tau_i is the transposition of the spectator
and the i-th extension slot.  By Schur-Weyl duality the probe is the direct
sum, over multisets (mu_1, ..., mu_n) of partitions of m with at most d rows
and over nu |- m with at most 2 rows, of the blocks

    B(alpha) = alpha sum_i R_i (x) I - sum_i R_i (x) (I - Y_nu(tau_i)) / 2,
    R_i = (x)_c (c0 I + c1 Y_mu_c(tau_i)),

each repeated by the orderings of its copy labels times the dimensions of
its U(d) and U(2) irreps.  Y_mu is
Young's orthogonal form, so every block is real symmetric and d enters only
through which mu are allowed (Bacon-Chuang-Harrow, quant-ph/0407082).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .analytic import st_coefficients
from .linalg import eig_min_dense_vec


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


def _hooks_and_contents(shape: tuple[int, ...]) -> list[tuple[int, int]]:
    """(hook length, content) of every box of the Young diagram."""
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    return [(row - j + columns[j] - i - 1, j - i) for i, row in enumerate(shape) for j in range(row)]


def specht_dim(shape: tuple[int, ...]) -> int:
    """f^shape, the dimension of the symmetric-group irrep (hook length formula)."""
    return math.factorial(sum(shape)) // math.prod(h for h, _ in _hooks_and_contents(shape))


def unitary_dim(shape: tuple[int, ...], d: int) -> int:
    """Dimension of the U(d) irrep of this shape (hook-content formula); 0 beyond d rows."""
    if len(shape) > d:
        return 0
    boxes = _hooks_and_contents(shape)
    return math.prod(d + c for _, c in boxes) // math.prod(h for h, _ in boxes)


@functools.lru_cache(maxsize=None)
def largest_block(d: int, n: int, k: int) -> int:
    """Rows of the largest block of the n-copy, k-extension probe of a d x d Werner state."""
    m = k + 2
    widest = max(specht_dim(mu) for mu in partitions(m, d))
    return widest**n * max(specht_dim(nu) for nu in partitions(m, 2))


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


def werner_blocks(c0: float, c1: float, d: int, n: int, k: int):
    """Yield (mus, nu, const, linear) for every block const + alpha * linear of the Werner probe.

    mus is a multiset of copy labels (a sorted tuple of partitions of k + 2
    with at most d rows), nu a partition of k + 2 with at most 2 rows.  The
    probe's spectrum is the union of the block spectra, each block repeated
    by the number of orderings of mus times prod_c unitary_dim(mu_c, d) times
    unitary_dim(nu, 2).
    """
    m = k + 2
    shapes = partitions(m, d)
    pair = {mu: [c0 * np.eye(len(y)) + c1 * y for y in young_transpositions(mu)] for mu in shapes}
    for mus in itertools.combinations_with_replacement(shapes, n):
        terms = [functools.reduce(np.kron, [pair[mu][i] for mu in mus]) for i in range(k + 1)]
        term_sum = sum(terms)
        for nu in partitions(m, 2):
            ys = young_transpositions(nu)
            eye = np.eye(len(ys[0]))
            const = -sum(np.kron(r, 0.5 * (eye - y)) for r, y in zip(terms, ys))
            yield mus, nu, const, np.kron(term_sum, eye)


class WernerBlocks:
    """lambda_min(alpha) and its slope for the n-copy, k-extension probe of the Werner state c0 I + c1 V.

    The blocks are built on the first call and stacked by size, so each
    alpha costs one batched `np.linalg.eigvalsh` per block size and one
    `np.linalg.eigh` of the lowest block.  The slope is v^T L v for the
    lowest eigenvector v of that block and its linear part L: a
    supergradient of the concave minimum.
    """

    def __init__(self, c0: float, c1: float, d: int, n: int, k: int):
        self.params = (c0, c1, d, n, k)

    @functools.cached_property
    def stacks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(const, linear) arrays shaped (blocks, size, size), one per block size, smallest first."""
        by_size: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for _, _, const, linear in werner_blocks(*self.params):
            by_size.setdefault(len(const), []).append((const, linear))
        stacks = []
        for size in sorted(by_size):
            group = by_size.pop(size)  # freed as it is stacked
            stacks.append((np.stack([c for c, _ in group]), np.stack([l for _, l in group])))
        return stacks

    def lambda_min(self, alpha: float) -> tuple[float, float]:
        # eigenvalues only for every block, then the vector of the lowest block alone
        lowest = [np.linalg.eigvalsh(const + alpha * linear)[:, 0] for const, linear in self.stacks]
        s = min(range(len(lowest)), key=lambda i: lowest[i].min())
        b = int(np.argmin(lowest[s]))
        const, linear = self.stacks[s]
        vals, vecs = np.linalg.eigh(const[b] + alpha * linear[b])
        v = vecs[:, 0]
        return float(vals[0]), float(v @ linear[b] @ v)
