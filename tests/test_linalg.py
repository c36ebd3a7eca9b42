import numpy as np
import pytest

from kextdistill import linalg
from kextdistill.linalg import (
    TOL_EIG,
    HermitianOperator,
    LinearMapHandle,
    SolverConvergenceError,
    SystemLayout,
    eig_min_dense,
    eig_min_dense_vec,
    eig_min_iterative,
    embed,
    kron,
    layout,
    partial_trace,
    permute_subsystems,
    reorder_to,
    swap_op,
    threshold_sup,
)
from kextdistill.states import bell_state, probe_operator, werner, WernerParams


def random_hermitian(rng, lay, real=False):
    d = lay.total_dim
    g = rng.standard_normal((d, d))
    if not real:
        g = g + 1j * rng.standard_normal((d, d))
    return HermitianOperator(lay, g + g.conj().T)


def test_layout_rejects_duplicates_and_bad_dims():
    with pytest.raises(ValueError):
        layout(("A", 2), ("A", 3))
    with pytest.raises(ValueError):
        layout(("A", 0))
    lay = layout(("A", 2), ("B", 3))
    assert lay.total_dim == 6
    assert lay.dim_of("B") == 3
    with pytest.raises(KeyError):
        lay.index("C")


def test_hermitian_operator_validation():
    lay = layout(("A", 2))
    with pytest.raises(ValueError):
        HermitianOperator(lay, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        HermitianOperator(lay, np.eye(3))
    real = HermitianOperator(lay, np.eye(2) + 0j)
    assert real.is_real
    cplx = HermitianOperator(lay, np.array([[1.0, 1j], [-1j, 0.0]]))
    assert not cplx.is_real


def test_kron_identity_and_pauli():
    i2 = HermitianOperator(layout(("A", 2)), np.eye(2))
    i2b = HermitianOperator(layout(("B", 2)), np.eye(2))
    assert np.array_equal(kron(i2, i2b).entries, np.eye(4))
    sz = HermitianOperator(layout(("A", 2)), np.diag([1.0, -1.0]))
    assert np.array_equal(kron(sz, i2b).entries, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_kron_matches_double_loop_oracle():
    a = werner(WernerParams(d=2, gamma=-1.0)).op
    b = probe_operator(0.5)
    got = kron(a, b).entries
    da, db = a.dim, b.dim
    expected = np.zeros((da * db, da * db))
    for i in range(da):
        for j in range(da):
            for r in range(db):
                for s in range(db):
                    expected[i * db + r, j * db + s] = a.entries[i, j] * b.entries[r, s]
    assert np.abs(got - expected).max() == 0.0


def test_swap_two_qubits_maps_01_to_10():
    v = swap_op(layout(("A", 2), ("B", 2)), "A", "B").entries
    e01 = np.zeros(4)
    e01[1] = 1.0
    e10 = np.zeros(4)
    e10[2] = 1.0
    assert np.array_equal(v @ e01, e10)


def test_swap_is_involution_on_qutrits():
    v = swap_op(layout(("A", 3), ("B", 3)), "A", "B").entries
    assert np.abs(v @ v - np.eye(9)).max() == 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_swap_trace_equals_dimension(d):
    v = swap_op(layout(("A", d), ("B", d)), "A", "B").entries
    # independent oracle: tr V = sum over (i, j) of delta_{ij} delta_{ji}
    oracle = sum(1.0 for i in range(d) for j in range(d) if i == j)
    assert np.trace(v) == oracle == d


def test_swap_dimension_mismatch():
    with pytest.raises(ValueError):
        swap_op(layout(("A", 2), ("B", 3)), "A", "B")


def test_permute_identity_is_noop():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, layout(("A", 2), ("B", 3)))
    out = permute_subsystems(h, {})
    assert np.array_equal(out.entries, h.entries)


def test_permute_transposition_equals_swap_conjugation():
    rng = np.random.default_rng(1)
    lay = layout(("A", 2), ("B", 2), ("C", 2))
    h = random_hermitian(rng, lay)
    v = swap_op(lay, "A", "C").entries
    expected = v @ h.entries @ v
    got = permute_subsystems(h, {"A": "C", "C": "A"}).entries
    assert np.abs(got - expected).max() < 1e-14


def test_permute_three_cycle_cubed_is_identity():
    rng = np.random.default_rng(2)
    lay = layout(("A", 2), ("B", 2), ("C", 2))
    h = random_hermitian(rng, lay)
    cycle = {"A": "B", "B": "C", "C": "A"}
    out = h
    for _ in range(3):
        out = permute_subsystems(out, cycle)
    assert np.abs(out.entries - h.entries).max() < 1e-14


def test_permute_composition_matches_composed_permutation():
    rng = np.random.default_rng(3)
    lay = layout(("A", 2), ("B", 3), ("C", 2), ("D", 3))
    h = random_hermitian(rng, lay)
    p1 = {"A": "C", "C": "A"}
    p2 = {"B": "D", "D": "B"}
    combined = {"A": "C", "C": "A", "B": "D", "D": "B"}
    got = permute_subsystems(permute_subsystems(h, p1), p2)
    expected = permute_subsystems(h, combined)
    assert np.abs(got.entries - expected.entries).max() < 1e-14


def test_partial_trace_bell_marginal():
    for d in (2, 3):
        phi = bell_state("phi_plus", d, labels=("A", "B"))
        marg = partial_trace(phi.op, ("A",))
        assert np.abs(marg.entries - np.eye(d) / d).max() < 1e-14


def test_partial_trace_of_product():
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, layout(("A", 2)))
    b = random_hermitian(rng, layout(("B", 3)))
    prod = kron(a, b)
    kept_a = partial_trace(prod, ("A",))
    assert np.abs(kept_a.entries - a.entries * b.trace()).max() < 1e-12
    kept_b = partial_trace(prod, ("B",))
    assert np.abs(kept_b.entries - b.entries * a.trace()).max() < 1e-12


def test_partial_trace_matches_triple_loop_oracle():
    rng = np.random.default_rng(5)
    lay = layout(("A", 2), ("B", 2), ("E", 2))
    h = random_hermitian(rng, lay)
    got = partial_trace(h, ("A", "B")).entries
    t = h.entries.reshape(2, 2, 2, 2, 2, 2)
    expected = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    for e in range(2):
                        expected[a * 2 + b, a2 * 2 + b2] += t[a, b, e, a2, b2, e]
    assert np.abs(got - expected).max() < 1e-14


def test_partial_trace_preserves_trace_and_unknown_label():
    rng = np.random.default_rng(6)
    h = random_hermitian(rng, layout(("A", 2), ("B", 3)))
    assert abs(partial_trace(h, ("A",)).trace() - h.trace()) < 1e-12
    with pytest.raises(KeyError):
        partial_trace(h, ("Z",))


def test_embed_places_joint_operators():
    rng = np.random.default_rng(7)
    lay = layout(("A", 2), ("B", 3), ("C", 2))
    ab = random_hermitian(rng, layout(("A", 2), ("B", 3)))
    got = embed(lay, {("A", "B"): ab.entries}).entries
    expected = np.kron(ab.entries, np.eye(2))
    assert np.abs(got - expected).max() < 1e-14
    # same operator placed on the outer pair, middle identity
    lay2 = layout(("A", 2), ("C", 2), ("B", 3))
    got2 = embed(lay2, {("A", "B"): ab.entries}).entries
    back = reorder_to(HermitianOperator(lay2, got2), layout(("A", 2), ("B", 3), ("C", 2)))
    assert np.abs(back.entries - expected).max() < 1e-14


def test_kron_associativity():
    rng = np.random.default_rng(8)
    a = random_hermitian(rng, layout(("A", 2)))
    b = random_hermitian(rng, layout(("B", 3)))
    c = random_hermitian(rng, layout(("C", 2)))
    left = kron(kron(a, b), c).entries
    right = kron(a, kron(b, c)).entries
    assert np.abs(left - right).max() < 1e-12


def test_swap_is_hermitian_and_orthogonal():
    v = swap_op(layout(("A", 3), ("B", 3)), "A", "B").entries
    assert np.abs(v - v.T).max() == 0.0
    assert np.abs(v @ v.T - np.eye(9)).max() == 0.0


def test_eig_min_dense_diagonal():
    h = HermitianOperator(layout(("A", 3)), np.diag([3.0, -1.0, 2.0]))
    assert eig_min_dense(h) == pytest.approx(-1.0, abs=1e-12)


def test_eig_min_dense_one_by_one():
    assert eig_min_dense(np.array([[-0.25]])) == -0.25
    value, vector = eig_min_dense_vec(np.array([[2.0 + 0.0j]]))
    assert value == 2.0 and abs(vector[0]) == 1.0


def test_eig_min_dense_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_min_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_probe_operator_spectrum():
    for alpha in (0.0, 0.3, 0.6, 1.0):
        m = probe_operator(alpha)
        vals = np.sort(np.linalg.eigvalsh(m.entries))
        expected = np.sort([alpha - 1.0, alpha, alpha, alpha])
        assert np.abs(vals - expected).max() < 1e-12
        assert eig_min_dense(m) == pytest.approx(alpha - 1.0, abs=1e-12)


def test_probe_sum_eigenvalues_on_three_qubits():
    # M_ab x I_e + M_ae x I_b at alpha = 3/4 touches zero from above
    lay = layout(("a", 2), ("b", 2), ("e", 2))
    alpha = 0.75
    m = probe_operator(alpha).entries
    total = embed(lay, {("a", "b"): m}).entries + embed(lay, {("a", "e"): m}).entries
    assert eig_min_dense(HermitianOperator(lay, total)) == pytest.approx(0.0, abs=1e-12)
    # full triple {2a, (4a-3)/2, (4a-1)/2} at a generic alpha
    alpha = 0.6
    m = probe_operator(alpha).entries
    total = embed(lay, {("a", "b"): m}).entries + embed(lay, {("a", "e"): m}).entries
    vals = set(np.round(np.linalg.eigvalsh(total), 10))
    expected = {2 * alpha, (4 * alpha - 3) / 2, (4 * alpha - 1) / 2}
    assert vals == set(np.round(sorted(expected), 10))


def test_eig_min_shift_invariance():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, layout(("A", 2), ("B", 3)))
    base = eig_min_dense(h)
    for c in (-1.0, 0.5, 2.0):
        shifted = HermitianOperator(h.layout, h.entries + c * np.eye(h.dim))
        assert eig_min_dense(shifted) == pytest.approx(base + c, abs=1e-10)


def _diag_handle(values):
    values = np.asarray(values, dtype=float)

    def apply(v):
        return values * v

    return LinearMapHandle(dim=len(values), apply=apply, norm_bound=np.abs(values).max(), is_real=True)


def test_eig_min_iterative_diagonal():
    handle = _diag_handle(np.arange(1, 1001))
    assert eig_min_iterative(handle)[0] == pytest.approx(1.0, abs=1e-8)


def test_eig_min_iterative_matches_dense():
    rng = np.random.default_rng(10)
    lay = layout(("A", 4), ("B", 4), ("C", 4))
    h = random_hermitian(rng, lay)

    def apply(v):
        return h.entries @ v

    handle = LinearMapHandle(dim=h.dim, apply=apply, norm_bound=np.linalg.norm(h.entries, 2), is_real=False)
    dense = eig_min_dense(h)
    iterative = eig_min_iterative(handle)[0]
    assert abs(dense - iterative) < 1e-8


def test_eig_min_iterative_is_deterministic():
    rng = np.random.default_rng(11)
    lay = layout(("A", 5), ("B", 5))
    h = random_hermitian(rng, lay, real=True)

    def apply(v):
        return h.entries @ v

    handle = LinearMapHandle(dim=h.dim, apply=apply, norm_bound=np.linalg.norm(h.entries, 2), is_real=True)
    first_value, first_vector = eig_min_iterative(handle)
    second_value, second_vector = eig_min_iterative(handle)
    assert first_value == second_value
    assert np.array_equal(first_vector, second_vector)


def test_eig_min_iterative_reports_non_convergence(monkeypatch):
    # eigenvalues clustered at zero with a vanishing edge gap stall the
    # restarted Lanczos iteration when the budget is tiny; the first failed
    # attempt raises, with no second attempt
    eigsh = linalg.spla.eigsh
    calls = []

    def stalling_eigsh(*args, **kwargs):
        calls.append(kwargs)
        return eigsh(*args, **{**kwargs, "maxiter": 2, "tol": 0.0})

    monkeypatch.setattr(linalg.spla, "eigsh", stalling_eigsh)
    handle = _diag_handle(1.0 / np.arange(1, 4001))
    with pytest.raises(SolverConvergenceError):
        eig_min_iterative(handle)
    assert len(calls) == 1


def test_handle_self_adjointness_on_random_pairs():
    rng = np.random.default_rng(13)
    lay = layout(("A", 3), ("B", 3), ("C", 2))
    h = random_hermitian(rng, lay)

    def apply(v):
        return h.entries @ v

    handle = LinearMapHandle(dim=h.dim, apply=apply, norm_bound=np.linalg.norm(h.entries, 2), is_real=False)
    for _ in range(100):
        u = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
        v = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
        lhs = np.vdot(u, handle.apply(v))
        rhs = np.vdot(handle.apply(u), v)
        assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-10


def test_eig_min_iterative_warm_start_orthogonal_to_the_lowest_eigenvector():
    # as a warm start from another symmetry sector is: the Krylov space of v0
    # alone never reaches the lowest eigenvector, the seeded part must
    values = np.arange(1.0, 1001.0)
    v0 = np.ones(len(values))
    v0[0] = 0.0
    lam, vec = eig_min_iterative(_diag_handle(values), v0=v0)
    assert lam == pytest.approx(1.0, abs=1e-8)
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# threshold_sup on minima of affine functions, where the root and kinks are exact

TOL_ALPHA = 1e-8


def min_of_affine(pieces, samples, window=0.0):
    """f(alpha) = min_j (a_j + b_j alpha), recording every sample.

    The slope is the largest among the pieces within `window` of the minimum.
    With window 0 that is the left derivative at a kink, the worst
    supergradient for a step to the right; a wider window keeps feeding the
    steeper slope past the kink, as an eigenvector from a near-degenerate
    eigenspace can.
    """

    def f(alpha):
        values = [a + b * alpha for a, b in pieces]
        low = min(values)
        samples.append(alpha)
        slope = max(b for (a, b), v in zip(pieces, values) if v <= low + window)
        return low, slope

    return f


def through(root, slope):
    """The affine piece with this slope that equals -TOL_EIG at root."""
    return (-TOL_EIG - slope * root, slope)


def assert_certified_and_tight(pieces, alpha_star):
    f = min_of_affine(pieces, [])
    assert f(alpha_star)[0] < -TOL_EIG
    above = min(1.0, alpha_star + TOL_ALPHA)
    assert above == alpha_star or f(above)[0] >= -TOL_EIG


@pytest.mark.parametrize("left,right", [(4.0, 0.25), (50.0, 0.02), (0.3, 0.001), (1.0, 1.0)])
@pytest.mark.parametrize("root", [0.6, 0.75, 0.123456789])
def test_threshold_sup_root_at_a_kink(root, left, right):
    # a third, steeper piece puts a second kink at root / 2
    steep = (through(root, left)[0] - 2.0 * left * 0.5 * root, 3.0 * left)
    pieces = [through(root, left), through(root, right), steep]
    samples = []
    alpha_star = threshold_sup(min_of_affine(pieces, samples), TOL_ALPHA)
    assert root - TOL_ALPHA <= alpha_star < root
    assert alpha_star in samples
    assert_certified_and_tight(pieces, alpha_star)
    assert len(samples) <= 28


@pytest.mark.parametrize("left,right", [(4.0, 0.25), (50.0, 0.02), (1.0, 0.001)])
@pytest.mark.parametrize("kink", [0.5, 0.9, 0.99])
def test_threshold_sup_slope_stuck_past_a_kink(kink, left, right):
    root = 0.6
    flat = through(root, right)
    at_kink = flat[0] + right * kink * root
    pieces = [(at_kink - left * kink * root, left), flat]
    samples = []
    alpha_star = threshold_sup(min_of_affine(pieces, samples, window=10.0), TOL_ALPHA)
    assert root - TOL_ALPHA <= alpha_star < root
    assert_certified_and_tight(pieces, alpha_star)
    assert len(samples) <= 28


@pytest.mark.parametrize("order", [3, 12, 30])
@pytest.mark.parametrize("root", [0.6, 1.3])
def test_threshold_sup_high_order_root_costs_no_more_than_bisection(order, root):
    # -(root - alpha)^order flattens towards its root, so tangent steps shrink
    # slowly there and the midpoint safeguard must take over
    samples = []

    def f(alpha):
        samples.append(alpha)
        return -((root - alpha) ** order), order * (root - alpha) ** (order - 1)

    alpha_star = threshold_sup(f, TOL_ALPHA)
    assert len(samples) <= 28
    assert f(alpha_star)[0] < -TOL_EIG
    above = alpha_star + TOL_ALPHA
    assert above >= 1.0 or f(above)[0] >= -TOL_EIG


def test_threshold_sup_takes_tangent_steps(reference_bisection):
    # 200 tangents of the concave 0.05 - 0.3 (1 - alpha)^2, which crosses zero near 0.59
    pieces = [
        (0.05 - 0.3 * (1 - t) ** 2 - 0.6 * (1 - t) * t, 0.6 * (1 - t)) for t in np.linspace(0, 1, 200)
    ]
    samples = []
    alpha_star = threshold_sup(min_of_affine(pieces, samples), TOL_ALPHA)
    bisection = reference_bisection(lambda a: min_of_affine(pieces, [])(a)[0] < -TOL_EIG, TOL_ALPHA)
    assert abs(alpha_star - bisection) <= TOL_ALPHA
    assert_certified_and_tight(pieces, alpha_star)
    assert len(samples) <= 10


def test_threshold_sup_negative_everywhere_stays_below_one():
    pieces = [(-0.5, 0.1), (-0.2, 0.0)]
    samples = []
    alpha_star = threshold_sup(min_of_affine(pieces, samples), TOL_ALPHA)
    assert 1.0 - TOL_ALPHA <= alpha_star < 1.0
    assert 1.0 not in samples


def test_threshold_sup_nonnegative_at_zero_returns_zero():
    for value in (0.0, -TOL_EIG, 0.3):
        samples = []
        assert threshold_sup(min_of_affine([(value, 1.0)], samples), TOL_ALPHA) == 0.0
        assert samples == [0.0]
