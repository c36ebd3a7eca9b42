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


def s3_block_lambda_min(gamma: float, alpha: float, n: int) -> float:
    """Smallest eigenvalue over all symmetry blocks of the n-copy, one-extension operator.

    Uses the unnormalized I + gamma*V state: for d >= 3 the value is
    (d^2 + gamma d)^n times the probe's lambda_min.  For d = 2 the state
    triples have no antisymmetric part either, yet its blocks enter the
    minimum, so the value is a lower bound on that multiple (gamma = 0.3,
    alpha = 0.95: 0.0609 against 0.0655); signs and thresholds still agree.
    Label tuples with the target triple on the antisymmetric label are
    skipped: a qubit triple has no totally antisymmetric subspace, so those
    blocks have dimension zero rather than eigenvalue zero.
    """
    if n < 1:
        raise ValueError("need n >= 1 copies")
    x1, x2, y1, y2, c = _qubit_factors(gamma, alpha)
    s_plus, s_minus, t_plus = c.s_plus, c.s_minus, c.t_plus

    best = np.inf
    x1_m = np.eye(1)
    x2_m = np.eye(1)
    for m in range(n + 1):
        # m state triples carry the qubit label; the rest are scalars whose
        # products over all tuples range between the two pure powers
        prefactors = (s_plus ** (n - m), s_minus ** (n - m))
        blocks = [
            t_plus * (x1_m + x2_m),
            np.kron(x1_m, y1) + np.kron(x2_m, y2),
        ]
        for block in blocks:
            lam = float(np.linalg.eigvalsh(block)[0])
            for pref in prefactors:
                best = min(best, pref * lam)
        if m < n:
            x1_m = np.kron(x1_m, x1)
            x2_m = np.kron(x2_m, x2)
    return float(best)
