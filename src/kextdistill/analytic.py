"""Closed-form Werner-state results for single-copy, one-extension distillation.

Everything here reduces the triple-system operators to blocks of the
symmetric-group commutant: scalar components on the totally symmetric and
antisymmetric subspaces plus a single qubit factor on the mixed-symmetry
subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import TOL_EIG, HermitianOperator, eig_min_dense_vec, embed, layout
from .linalg import permutation_matrix, threshold_sup
from .states import DensityOperator

MNP_TOL_EIG = TOL_EIG  # the one certification tolerance; perfbench/checks.py reads it under this name
MNP_TOL_ALPHA = 1e-7
MNP_THETA_POINTS = 720
# angles per batched eigvalsh of the scan: all 720 Z at once (4.2 MB at d = 3, and eigvalsh's copy)
# raised a fresh process's peak RSS by 9.5 MB in its first d = 3 scan, 90 at a time by 2.5 MB, at
# the same speed
MNP_THETA_CHUNK = 90


@dataclass(frozen=True)
class IrrepCoefficients:
    """Block components of the four triple-system operators at (gamma, alpha).

    s/t are the qubit-factor components (index 0 = identity); the tilded rows
    differ only by the sign of index 2.  The plus/minus entries are the scalar
    components on the totally (anti)symmetric subspaces; the target side has
    no antisymmetric component because a qubit triple has no totally
    antisymmetric subspace.
    """

    s: tuple[float, float, float, float]
    s_tilde: tuple[float, float, float, float]
    t: tuple[float, float, float, float]
    t_tilde: tuple[float, float, float, float]
    s_plus: float
    s_minus: float
    t_plus: float


def st_coefficients(gamma: float, alpha: float) -> IrrepCoefficients:
    """Coefficient table for the state-side (s) and target-side (t) operators."""
    if not -1.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [-1, 1], got {gamma}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    r3 = math.sqrt(3.0)
    s = (1.0, 0.5 * gamma, -0.5 * r3 * gamma, 0.0)
    t = (alpha - 0.5, -0.25, 0.25 * r3, 0.0)
    s_tilde = (s[0], s[1], -s[2], s[3])
    t_tilde = (t[0], t[1], -t[2], t[3])
    return IrrepCoefficients(
        s=s,
        s_tilde=s_tilde,
        t=t,
        t_tilde=t_tilde,
        s_plus=1.0 + gamma,
        s_minus=1.0 - gamma,
        t_plus=alpha,
    )


def r_operators(d: int):
    """The six commutant operators on a triple of d-dimensional systems.

    Returns (R_plus, R_minus, R_0, R_1, R_2, R_3).  R_plus/R_minus/R_0 are
    orthogonal projectors summing to the identity; R_1..R_3 act as Pauli
    operators on the qubit factor of the R_0 subspace.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    a, b, c = "x1", "x2", "x3"
    lay = layout((a, d), (b, d), (c, d))

    def v(perm: dict) -> np.ndarray:
        return permutation_matrix(lay, perm)

    ident = np.eye(d**3)
    v12 = v({a: b, b: a})
    v13 = v({a: c, c: a})
    v23 = v({b: c, c: b})
    v123 = v({a: b, b: c, c: a})
    v321 = v({a: c, c: b, b: a})
    r_plus = (ident + v12 + v13 + v23 + v123 + v321) / 6.0
    r_minus = (ident - v12 - v13 - v23 + v123 + v321) / 6.0
    r_0 = ident - r_plus - r_minus
    r_1 = (2.0 * v23 - v13 - v12) / 3.0
    r_2 = (v12 - v13) / math.sqrt(3.0)
    r_3 = 1j / math.sqrt(3.0) * (v123 - v321)
    return tuple(HermitianOperator(lay, m) for m in (r_plus, r_minus, r_0, r_1, r_2, r_3))


def reduced_matrix(c: IrrepCoefficients) -> HermitianOperator:
    """The 4x4 qubit-block operator in terms of the coefficient table."""
    s0, s1, s2, _ = c.s
    t0, t1, t2, _ = c.t
    mat = np.array(
        [
            [s0 * t0, s0 * t1, s1 * t0, s1 * t1 - s2 * t2],
            [s0 * t1, s0 * t0, s2 * t2 + s1 * t1, s1 * t0],
            [s1 * t0, s2 * t2 + s1 * t1, s0 * t0, s0 * t1],
            [s1 * t1 - s2 * t2, s1 * t0, s0 * t1, s0 * t0],
        ]
    )
    return HermitianOperator(layout(("qs", 2), ("qt", 2)), mat)


def reduced_eigenvalues(c: IrrepCoefficients) -> tuple[float, float, float, float]:
    """Closed-form eigenvalues (lam1, lam2, lam3, lam4) of the qubit block."""
    s0, s1, s2, _ = c.s
    t0, t1, t2, _ = c.t
    r_minus = math.sqrt(s2**2 * t2**2 + (s0 * t1 - s1 * t0) ** 2)
    r_plus = math.sqrt(s2**2 * t2**2 + (s0 * t1 + s1 * t0) ** 2)
    base_minus = -s1 * t1 + s0 * t0
    base_plus = s1 * t1 + s0 * t0
    return (r_minus + base_minus, -r_minus + base_minus, r_plus + base_plus, -r_plus + base_plus)


def k1_quadratic_residual(gamma: float, alpha: float) -> float:
    """Residual of (16 - 4g^2) a^2 - (16 - 4g^2) a + (3 - 3g^2) at a = alpha."""
    return (16.0 - 4.0 * gamma**2) * alpha**2 - (16.0 - 4.0 * gamma**2) * alpha + (3.0 - 3.0 * gamma**2)


def alpha_max_k1(gamma: float) -> float:
    """Single-copy, one-extension fidelity threshold for a Werner state.

    The greater root of the block-vanishing quadratic; even in gamma and
    dimension independent in this parametrization.
    """
    if not -1.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [-1, 1], got {gamma}")
    return 0.5 + 0.5 * math.sqrt((1.0 + 2.0 * gamma**2) / (4.0 - gamma**2))


def maxmixed_bound(k: int) -> float:
    """Best two-qubit overlap with the Bell target over k-extendible states: (k+2)/(2(k+1))."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 0.5 * (k + 2.0) / (k + 1.0)


def mnp_f(p: float, d: int) -> float:
    """The measure-and-prepare slope factor f(p, d); zero exactly at p = (d+1)/(2d)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if d < 2:
        raise ValueError("need d >= 2")
    num = math.sqrt(3.0) * abs(-2.0 * d * p + d + 1.0)
    den = math.sqrt((2.0 * (d - 2.0) * p + d + 1.0) * (3.0 * (d + 1.0) - 2.0 * (d + 2.0) * p))
    return num / den


def mnp_alpha_max(p: float, d: int) -> float:
    """Measure-and-prepare threshold maximized over the cloning ellipse boundary."""
    f = mnp_f(p, d)
    return 0.25 * (math.sqrt(3.0 * f**2 + 1.0) + 2.0)


@dataclass(frozen=True)
class MnPTradeoff:
    """A fidelity pair (F1, F2) of two-qubit reductions of a three-qubit state."""

    f1: float
    f2: float

    @property
    def y_plus(self) -> float:
        return (1.0 - self.f1 - self.f2) / 2.0

    @property
    def y_minus(self) -> float:
        return (self.f1 - self.f2) / 2.0

    @classmethod
    def from_angle(cls, theta: float) -> "MnPTradeoff":
        """Boundary point of the tradeoff ellipse y_+^2 + y_-^2/3 = 1/16."""
        f1, f2 = _ellipse_points(np.array([theta]))
        return cls(f1=float(f1[0]), f2=float(f2[0]))

    def is_feasible(self, tol: float = 1e-12) -> bool:
        """Membership in the convex hull of (0, 0) and the ellipse disk."""
        total = self.f1 + self.f2
        diff = self.f1 - self.f2
        if abs(self.f1) <= tol and abs(self.f2) <= tol:
            return True
        # scale the point up by u >= 1 and test the disk inequality, quadratic in u
        a = total**2 / 4.0 + diff**2 / 12.0
        b = -total / 2.0
        c = 3.0 / 16.0
        if a <= tol:
            return False
        u_star = -b / (2.0 * a)
        u = max(u_star, 1.0)
        return a * u**2 + b * u + c <= tol


def _ellipse_points(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_plus = 0.25 * np.cos(thetas)
    y_minus = 0.25 * math.sqrt(3.0) * np.sin(thetas)
    return 0.5 - y_plus + y_minus, 0.5 - y_plus - y_minus


def _z_pieces(state: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    (la, da), (lb, db) = state.layout.subsystems
    if da != db:
        raise ValueError("measure-and-prepare scan needs a state on d x d")
    lay = layout((la, da), (lb, db), ("E_", db))
    k1 = embed(lay, {(la, lb): state.matrix}).entries
    k2 = embed(lay, {(la, "E_"): state.matrix}).entries
    return k1, k2


def _min_over_ellipse(alpha: float, k1: np.ndarray, k2: np.ndarray) -> tuple[float, float]:
    """min over the ellipse boundary of lambda_min(Z), and the supergradient v^dag (K1 + K2) v.

    v is the lowest eigenvector of Z at the minimizing angle.  Z is affine in
    alpha with the PSD derivative K1 + K2 at every angle, so the minimum is
    concave and nondecreasing in alpha.
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, MNP_THETA_POINTS, endpoint=False)
    f1, f2 = _ellipse_points(thetas)
    chunks = MNP_THETA_POINTS // MNP_THETA_CHUNK
    lams = np.concatenate([
        np.linalg.eigvalsh((alpha - a)[:, None, None] * k1 + (alpha - b)[:, None, None] * k2)[:, 0]
        for a, b in zip(np.split(f1, chunks), np.split(f2, chunks))
    ])
    i_best = int(np.argmin(lams))

    def z_at(theta: float) -> np.ndarray:
        f1s, f2s = _ellipse_points(np.array([theta]))
        return (alpha - f1s[0]) * k1 + (alpha - f2s[0]) * k2

    def lam_at(theta: float) -> float:
        return float(np.linalg.eigvalsh(z_at(theta))[0])

    # golden-section refine inside the bracketing grid cells
    step = 2.0 * math.pi / MNP_THETA_POINTS
    lo, hi = thetas[i_best] - step, thetas[i_best] + step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    v1, v2 = lam_at(x1), lam_at(x2)
    while hi - lo > 1e-10:
        if v1 <= v2:
            hi, x2, v2 = x2, x1, v1
            x1 = hi - invphi * (hi - lo)
            v1 = lam_at(x1)
        else:
            lo, x1, v1 = x1, x2, v2
            x2 = lo + invphi * (hi - lo)
            v2 = lam_at(x2)
    theta_best = min((lams[i_best], thetas[i_best]), (v1, x1), (v2, x2))[1]
    lam, v = eig_min_dense_vec(z_at(theta_best))
    return lam, float(np.vdot(v, (k1 + k2) @ v).real)


def mnp_min_lambda(state: DensityOperator, alpha: float) -> float:
    """Infimum over the ellipse boundary of the smallest eigenvalue of Z."""
    k1, k2 = _z_pieces(state)
    return _min_over_ellipse(alpha, k1, k2)[0]


def mnp_threshold_numeric(state: DensityOperator) -> float:
    """The largest fidelity certified achievable by one-extension M&P maps, to MNP_TOL_ALPHA.

    linalg.threshold_sup searches alpha with the slope of _min_over_ellipse.
    For each candidate alpha the inner scan walks the ellipse boundary (the
    infimum is attained there; the origin contributes a PSD operator and can
    be skipped).
    """
    k1, k2 = _z_pieces(state)
    return threshold_sup(lambda alpha: _min_over_ellipse(alpha, k1, k2), MNP_TOL_ALPHA)
