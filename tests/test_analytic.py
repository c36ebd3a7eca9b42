import math

import numpy as np
import pytest

from kextdistill import analytic
from kextdistill.analytic import (
    IrrepCoefficients,
    MnPTradeoff,
    alpha_max_k1,
    k1_quadratic_residual,
    maxmixed_bound,
    mnp_alpha_max,
    mnp_f,
    mnp_min_lambda,
    mnp_threshold_numeric,
    r_operators,
    reduced_eigenvalues,
    reduced_matrix,
    st_coefficients,
)
from kextdistill.linalg import eig_min_dense, embed, layout, permutation_matrix
from kextdistill.states import WernerParams, from_matrix, gamma_from_p, werner

SIGMA = (
    np.eye(2),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
)


# ---------------------------------------------------------------------------
# commutant operators


def test_r_projectors_sum_to_identity():
    for d in (2, 3):
        r_plus, r_minus, r_0, *_ = r_operators(d)
        total = r_plus.entries + r_minus.entries + r_0.entries
        assert np.abs(total - np.eye(d**3)).max() < 1e-12


def test_r_minus_vanishes_for_qubits():
    r_plus, r_minus, *_ = r_operators(2)
    # rank formula (d^3 - 3d^2 + 2d)/6 is zero at d = 2
    assert np.abs(r_minus.entries).max() < 1e-13
    assert round(r_plus.trace()) == 4
    _, r_minus3, *_ = r_operators(3)
    assert round(r_minus3.trace()) == 1


@pytest.mark.parametrize("d", [2, 3])
def test_r_pauli_algebra(d):
    r_plus, r_minus, r_0, r_1, r_2, r_3 = r_operators(d)
    for r in (r_1, r_2, r_3):
        assert np.abs(r.entries @ r.entries - r_0.entries).max() < 1e-12
        # supported on the mixed-symmetry subspace only
        assert np.abs(r.entries @ r_plus.entries).max() < 1e-12
        assert np.abs(r.entries @ r_minus.entries).max() < 1e-12
    for a, b in ((r_1, r_2), (r_1, r_3), (r_2, r_3)):
        anti = a.entries @ b.entries + b.entries @ a.entries
        assert np.abs(anti).max() < 1e-12
    for p in (r_plus, r_minus, r_0):
        assert np.abs(p.entries @ p.entries - p.entries).max() < 1e-12


# ---------------------------------------------------------------------------
# coefficient table


def test_coefficient_table_at_gamma_one():
    c = st_coefficients(1.0, 0.5)
    assert c.s == (1.0, 0.5, -math.sqrt(3.0) / 2.0, 0.0)
    assert c.s_tilde[2] == -c.s[2]
    assert c.s_plus == 2.0 and c.s_minus == 0.0


def test_coefficient_table_target_row():
    c = st_coefficients(0.0, 0.75)
    assert c.t[0] == pytest.approx(0.25, abs=1e-15)
    assert c.t == (0.25, -0.25, math.sqrt(3.0) / 4.0, 0.0)
    assert c.t_plus == 0.75


def test_coefficient_invariants():
    c = st_coefficients(-0.4, 0.8)
    assert c.s[3] == 0.0 and c.t[3] == 0.0
    assert c.s_tilde == (c.s[0], c.s[1], -c.s[2], c.s[3])
    assert c.t_tilde == (c.t[0], c.t[1], -c.t[2], c.t[3])


def coefficients_from_traces(gamma, alpha, d=3):
    """Recompute the coefficient table from dense commutant-operator traces.

    The qubit factor of the mixed-symmetry subspace carries a basis freedom;
    the state-side triple is read out in the reflected basis (R_1, R_2
    negated) so that both rows land in the standard table form.  Eigenvalues
    of any assembled block are independent of this choice.
    """

    def expand(x, ops, flip):
        r_plus, r_minus, r_0, r_1, r_2, _ = ops
        sign = -1.0 if flip else 1.0

        def coef(r):
            den = float(np.trace(r.entries.conj().T @ r.entries).real)
            if den == 0.0:  # empty subspace (qubit triple has no antisymmetric part)
                return 0.0
            return float(np.trace(x @ r.entries).real) / den

        comp = (coef(r_0), sign * coef(r_1), sign * coef(r_2), 0.0)
        return comp, coef(r_plus), coef(r_minus)

    ops_state = r_operators(d)
    lay_s = ops_state[0].layout
    v12_s = permutation_matrix(lay_s, {"x1": "x2", "x2": "x1"})
    v13_s = permutation_matrix(lay_s, {"x1": "x3", "x3": "x1"})
    x1 = np.eye(d**3) + gamma * v12_s
    x2 = np.eye(d**3) + gamma * v13_s
    s, s_plus, s_minus = expand(x1, ops_state, flip=True)
    s_tilde, _, _ = expand(x2, ops_state, flip=True)

    ops_target = r_operators(2)
    lay_t = ops_target[0].layout
    v12_t = permutation_matrix(lay_t, {"x1": "x2", "x2": "x1"})
    v13_t = permutation_matrix(lay_t, {"x1": "x3", "x3": "x1"})
    y1 = (alpha - 0.5) * np.eye(8) + 0.5 * v12_t
    y2 = (alpha - 0.5) * np.eye(8) + 0.5 * v13_t
    t, t_plus, _ = expand(y1, ops_target, flip=False)
    t_tilde, _, _ = expand(y2, ops_target, flip=False)
    return IrrepCoefficients(
        s=s, s_tilde=s_tilde, t=t, t_tilde=t_tilde,
        s_plus=s_plus, s_minus=s_minus, t_plus=t_plus,
    )


def test_trace_recomputation_matches_table():
    rng = np.random.default_rng(0)
    for _ in range(10):
        gamma = float(rng.uniform(-1.0, 1.0))
        alpha = float(rng.uniform(0.0, 1.0))
        table = st_coefficients(gamma, alpha)
        traced = coefficients_from_traces(gamma, alpha, d=3)
        for name in ("s", "s_tilde", "t", "t_tilde"):
            assert np.abs(np.array(getattr(table, name)) - np.array(getattr(traced, name))).max() < 1e-12
        assert abs(table.s_plus - traced.s_plus) < 1e-12
        assert abs(table.s_minus - traced.s_minus) < 1e-12
        assert abs(table.t_plus - traced.t_plus) < 1e-12


# ---------------------------------------------------------------------------
# reduced 4x4 block


def _pauli_assembly(c):
    def q(coefs):
        return sum(co * si for co, si in zip(coefs, SIGMA))

    return 0.5 * (np.kron(q(c.s), q(c.t)) + np.kron(q(c.s_tilde), q(c.t_tilde)))


def test_reduced_matrix_matches_pauli_assembly():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = st_coefficients(float(rng.uniform(-1, 1)), float(rng.uniform(0, 1)))
        assembled = _pauli_assembly(c)
        assert np.abs(assembled.imag).max() < 1e-14
        assert np.abs(assembled.real - reduced_matrix(c).entries).max() < 1e-13


def test_reduced_matrix_at_gamma_zero():
    c = st_coefficients(0.0, 0.6)
    m = reduced_matrix(c).entries
    s0, t0, t1 = 1.0, 0.1, -0.25
    expected = np.array(
        [
            [s0 * t0, s0 * t1, 0.0, 0.0],
            [s0 * t1, s0 * t0, 0.0, 0.0],
            [0.0, 0.0, s0 * t0, s0 * t1],
            [0.0, 0.0, s0 * t1, s0 * t0],
        ]
    )
    assert np.abs(m - expected).max() < 1e-14


def test_reduced_eigenvalues_match_dense():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = st_coefficients(float(rng.uniform(-1, 1)), float(rng.uniform(0, 1)))
        closed = np.sort(reduced_eigenvalues(c))
        dense = np.sort(np.linalg.eigvalsh(reduced_matrix(c).entries))
        assert np.abs(closed - dense).max() < 1e-12


def test_reduced_eigenvalue_vanishes_at_boundary():
    c = st_coefficients(1.0, 1.0)
    assert c.s[2] * c.t[2] == pytest.approx(-3.0 / 8.0, abs=1e-15)
    assert c.s[0] * c.t[1] - c.s[1] * c.t[0] == pytest.approx(-0.5, abs=1e-15)
    assert -c.s[1] * c.t[1] + c.s[0] * c.t[0] == pytest.approx(5.0 / 8.0, abs=1e-15)
    lam = reduced_eigenvalues(c)
    assert lam[1] == pytest.approx(0.0, abs=1e-15)


def test_reduced_spectrum_contains_zero_at_maximally_mixed_threshold():
    lam = reduced_eigenvalues(st_coefficients(0.0, 0.75))
    assert min(abs(v) for v in lam) < 1e-14


# ---------------------------------------------------------------------------
# closed-form thresholds


def test_alpha_max_values():
    assert alpha_max_k1(0.0) == pytest.approx(0.75, abs=1e-15)
    assert alpha_max_k1(1.0) == pytest.approx(1.0, abs=1e-15)
    assert alpha_max_k1(-1.0) == pytest.approx(1.0, abs=1e-15)
    assert alpha_max_k1(0.5) == pytest.approx(0.8162277660168379, abs=1e-12)


def test_alpha_max_symmetric_and_in_range():
    for g in np.linspace(0.0, 1.0, 51):
        assert alpha_max_k1(g) == alpha_max_k1(-g)
        assert 0.75 <= alpha_max_k1(g) <= 1.0


def test_alpha_max_solves_quadratic():
    for g in np.linspace(-1.0, 1.0, 101):
        assert abs(k1_quadratic_residual(g, alpha_max_k1(g))) < 1e-12


def alpha_max_k1_d4_p(p):
    """The d = 4 threshold in the symmetric-weight parametrization."""
    return 0.5 + math.sqrt(0.25 - 15.0 * p * (1.0 - p) / (25.0 - 16.0 * p**2))


def test_alpha_max_d4_parametrization():
    assert alpha_max_k1_d4_p(1.0) == pytest.approx(1.0, abs=1e-14)
    assert alpha_max_k1_d4_p(0.0) == pytest.approx(1.0, abs=1e-14)
    assert alpha_max_k1_d4_p(0.5) == pytest.approx(0.7672612419124244, abs=1e-12)
    for p in np.linspace(0.0, 1.0, 21):
        assert abs(alpha_max_k1_d4_p(p) - alpha_max_k1(gamma_from_p(p, 4))) < 1e-12


def test_maxmixed_bound():
    assert maxmixed_bound(0) == 1.0
    assert maxmixed_bound(1) == 0.75
    assert maxmixed_bound(7) == 0.5625
    values = [maxmixed_bound(k) for k in range(8)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert maxmixed_bound(10**6) == pytest.approx(0.5, abs=1e-5)


# ---------------------------------------------------------------------------
# measure-and-prepare pieces


def test_mnp_f_values():
    assert mnp_f(0.0, 3) == pytest.approx(1.0, abs=1e-14)
    assert mnp_f(2.0 / 3.0, 3) == pytest.approx(0.0, abs=1e-14)
    # d = 4, p = 1: numerator sqrt(3)*3, denominator sqrt(9*3)
    assert mnp_f(1.0, 4) == pytest.approx(3.0 * math.sqrt(3.0) / math.sqrt(27.0), abs=1e-14)
    assert mnp_f((4 + 1) / (2 * 4), 4) == pytest.approx(0.0, abs=1e-14)


def test_mnp_alpha_max_values():
    assert mnp_alpha_max(2.0 / 3.0, 3) == pytest.approx(0.75, abs=1e-14)
    assert mnp_alpha_max(0.0, 3) == pytest.approx(1.0, abs=1e-14)
    assert mnp_alpha_max(0.5, 4) == pytest.approx(alpha_max_k1_d4_p(0.5), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_mnp_equals_general_one_extension(d):
    for p in np.linspace(0.0, 1.0, 21):
        assert abs(mnp_alpha_max(p, d) - alpha_max_k1(gamma_from_p(p, d))) < 1e-10


def test_tradeoff_coordinates_and_feasibility():
    pt = MnPTradeoff(0.75, 0.75)
    assert pt.y_plus == pytest.approx(-0.25, abs=1e-15)
    assert pt.y_minus == pytest.approx(0.0, abs=1e-15)
    assert pt.is_feasible()
    assert MnPTradeoff(0.0, 0.0).is_feasible()
    assert MnPTradeoff(1.0, 0.25).is_feasible()
    assert not MnPTradeoff(0.9, 0.9).is_feasible()
    assert not MnPTradeoff(1.0, 0.5).is_feasible()
    # scaled-down boundary points stay inside the hull
    for theta in np.linspace(0.0, 2.0 * math.pi, 17):
        pt = MnPTradeoff.from_angle(theta)
        assert pt.is_feasible(tol=1e-9)
        assert MnPTradeoff(0.5 * pt.f1, 0.5 * pt.f2).is_feasible(tol=1e-9)
        assert pt.y_plus**2 + pt.y_minus**2 / 3.0 == pytest.approx(1.0 / 16.0, abs=1e-14)


def test_mnp_threshold_numeric_on_werner():
    state = werner(WernerParams(d=3, gamma=0.0))
    assert abs(mnp_threshold_numeric(state) - 0.75) < 1e-6
    state = werner(WernerParams(d=2, gamma=0.5))
    assert abs(mnp_threshold_numeric(state) - 0.8162277660168379) < 1e-6
    state = werner(WernerParams(d=3, gamma=-1.0))
    assert mnp_threshold_numeric(state) >= 1.0 - 1e-6


@pytest.mark.parametrize("d", [2, 3])
def test_ellipse_slope_is_a_supergradient(d, assert_supergradient):
    for gamma in (-1.0, -0.3, 0.5):
        k1, k2 = analytic._z_pieces(werner(WernerParams(d=d, gamma=gamma)))
        assert_supergradient(
            lambda alpha: analytic._min_over_ellipse(alpha, k1, k2), np.linspace(0.0, 1.0, 5)
        )


def test_mnp_threshold_takes_tangent_steps(monkeypatch):
    scans = []
    scan = analytic._min_over_ellipse

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(analytic, "_min_over_ellipse", counted)
    assert abs(mnp_threshold_numeric(werner(WernerParams(d=3, p=0.2))) - mnp_alpha_max(0.2, 3)) < 1e-6
    assert len(scans) <= 10  # bisection takes 25


def mnp_pencil_threshold(state):
    """0.5 + 0.25 sqrt(1 + 3 m^2), m the largest |mu| of the pencil (K1 - K2, K1 + K2) on range(K1 + K2)."""
    k1, k2 = analytic._z_pieces(state)
    w, u = np.linalg.eigh(k1 + k2)
    keep = w > 1e-12 * w[-1]
    basis = u[:, keep] / np.sqrt(w[keep])  # basis^dag (K1 + K2) basis = I
    m = np.abs(np.linalg.eigvalsh(basis.conj().T @ (k1 - k2) @ basis)).max()
    return 0.5 + 0.25 * math.sqrt(1.0 + 3.0 * m * m)


def random_dxd_state(d, rank, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d * d, rank)) + 1j * rng.standard_normal((d * d, rank))
    return from_matrix(g @ g.conj().T, layout(("A", d), ("B", d)))


@pytest.mark.parametrize(
    "state",
    [random_dxd_state(d, rank, 10 * d + rank) for d in (2, 3) for rank in (1, 2, d * d)]
    + [werner(WernerParams(d=d, p=p)) for d in (2, 3) for p in (0.0, 1.0)],
    ids=[f"random-d{d}-rank{rank}" for d in (2, 3) for rank in (1, 2, d * d)]
    + [f"werner-d{d}-p{p}" for d in (2, 3) for p in (0, 1)],
)
def test_mnp_threshold_is_the_pencil_identity(state):
    # the scan's certified alpha* lies within its tolerance below the closed form of the pencil (K1 - K2, K1 + K2)
    identity = mnp_pencil_threshold(state)
    assert identity - analytic.MNP_TOL_ALPHA <= mnp_threshold_numeric(state) <= identity + 1e-12


def test_mnp_inner_scan_sign():
    state = werner(WernerParams(d=3, gamma=0.4))
    threshold = alpha_max_k1(0.4)
    assert mnp_min_lambda(state, threshold - 1e-3) < 0.0
    assert mnp_min_lambda(state, threshold + 1e-3) > 0.0


def z_operator(state, alpha, f1, f2):
    """(alpha - F1) rho_AB x I_E + (alpha - F2) rho_AE x I_B for the M&P criterion."""
    (la, d), (lb, _) = state.layout.subsystems
    lay = layout((la, d), (lb, d), ("E", d))
    k1 = embed(lay, {(la, lb): state.matrix}).entries
    k2 = embed(lay, {(la, "E"): state.matrix}).entries
    return (alpha - f1) * k1 + (alpha - f2) * k2


def test_beta_criterion_matches_dense_positivity():
    # on the ellipse boundary with alpha >= 3/4 the scalar blocks are
    # nonnegative, so positivity reduces to the qubit block inequality
    rng = np.random.default_rng(3)
    agreements = 0
    for _ in range(50):
        gamma = float(rng.uniform(-1.0, 1.0))
        alpha = float(rng.uniform(0.75, 1.0))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        pt = MnPTradeoff.from_angle(theta)
        state = werner(WernerParams(d=3, gamma=gamma))
        z = z_operator(state, alpha, pt.f1, pt.f2)
        dense_psd = eig_min_dense(z) >= -1e-11
        c = st_coefficients(gamma, alpha)
        betas = [
            (alpha - pt.f1) * si + (alpha - pt.f2) * ti
            for si, ti in zip(c.s, c.s_tilde)
        ]
        criterion = betas[1] ** 2 + betas[2] ** 2 + betas[3] ** 2 <= betas[0] ** 2 + 1e-11
        if abs(betas[1] ** 2 + betas[2] ** 2 + betas[3] ** 2 - betas[0] ** 2) < 1e-9:
            continue  # too close to the boundary to compare robustly
        assert dense_psd == criterion
        agreements += 1
    assert agreements >= 40
