"""Symmetric-group block fast path for multi-copy Werner thresholds at one extension.

Each of the n state triples and the single target triple decomposes into a
totally symmetric scalar, a totally antisymmetric scalar and a qubit factor.
The full operator restricted to a label tuple is a sum of two tensor products
of the per-triple components, so its smallest eigenvalue factorizes into a
scalar prefactor times a small dense block.
"""

from __future__ import annotations

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
