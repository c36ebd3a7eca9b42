import dataclasses
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kextdistill import solver
from kextdistill.analytic import alpha_max_k1, maxmixed_bound
from kextdistill.linalg import (
    HermitianOperator,
    LinearMapHandle,
    eig_min_dense,
    embed,
    layout,
    partial_trace,
    permute_subsystems,
    relabel,
    reorder_to,
)
from kextdistill.solver import (
    BELLS,
    SIDES,
    TOL_EIG,
    CJOperator,
    KExtProblem,
    ProbeAssembly,
    SingularOutputError,
    build_probe,
    cj_of_mnp,
    construct_f1_strategy,
    evaluate_map_fidelity,
    fidelity_threshold,
    lambda_min_alpha,
    symmetrize,
)
from kextdistill.states import (
    WernerParams,
    bell_state,
    from_matrix,
    maximally_mixed,
    probe_operator,
    projectors,
    werner,
)


def random_state(rng, d_a, d_b):
    dim = d_a * d_b
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return from_matrix(g @ g.conj().T, layout(("A", d_a), ("B", d_b)))


def identity_channel_cj(d=2):
    lay = layout(("A", d), ("B", d), ("a", d), ("b", d))
    phi = bell_state("phi_plus", d).matrix
    mat = embed(lay, {("A", "a"): phi, ("B", "b"): phi}).entries
    return CJOperator(from_matrix(mat, lay, normalized=False).op)


def discard_and_prepare_cj(d_a=2, d_b=2):
    lay = layout(("A", d_a), ("B", d_b), ("a", 2), ("b", 2))
    phi = bell_state("phi_plus", 2).matrix
    mat = embed(lay, {"A": np.eye(d_a) / d_a, "B": np.eye(d_b) / d_b, ("a", "b"): phi}).entries
    return CJOperator(from_matrix(mat, lay, normalized=False).op)


# ---------------------------------------------------------------------------
# problem construction


def test_problem_dimension_formula():
    for d, n, k in itertools.product((2, 3), (1, 2), (1, 2)):
        prob = KExtProblem.for_werner(d=d, gamma=0.1, n=n, k=k)
        assert prob.total_dim == d ** (n * (k + 2)) * 2 ** (k + 2)


def test_problem_validation():
    state = maximally_mixed(2, 2)
    with pytest.raises(ValueError):
        KExtProblem(state=state, n=0)
    with pytest.raises(ValueError):
        KExtProblem(state=state, side="carol")
    with pytest.raises(ValueError):
        KExtProblem(state=state, bell="phi_minus")
    with pytest.raises(ValueError):
        KExtProblem.for_werner(d=3, gamma=0.0, n=2, k=2, backend="dense")  # 104976 dims


def test_backend_resolution():
    assert KExtProblem.for_werner(d=2, gamma=0.0).resolved_backend() == "dense"
    assert KExtProblem.for_werner(d=3, gamma=0.0, n=2).resolved_backend() == "iterative"


# ---------------------------------------------------------------------------
# probe assembly


def test_probe_of_maximally_mixed_factorizes():
    prob = KExtProblem(state=maximally_mixed(2, 2), n=1, k=1)
    probe = build_probe(prob, 0.6)
    m = probe_operator(0.6).entries
    lay = probe.layout
    expected = (
        embed(lay, {("a", "b0"): m}).entries + embed(lay, {("a", "b1"): m}).entries
    ) / 4.0
    assert np.abs(probe.entries - expected).max() < 1e-13


def test_probe_is_psd_at_alpha_one():
    rng = np.random.default_rng(0)
    states = [
        maximally_mixed(2, 2),
        werner(WernerParams(d=2, gamma=-0.7)),
        random_state(rng, 2, 2),
    ]
    for state in states:
        prob = KExtProblem(state=state, n=1, k=1)
        probe = build_probe(prob, 1.0)
        assert eig_min_dense(probe) > -1e-11


def test_probe_negative_below_threshold_for_singlet():
    prob = KExtProblem.for_werner(d=2, gamma=-1.0)
    probe = build_probe(prob, 0.9)
    assert eig_min_dense(probe) < -1e-6


def test_probe_real_fast_path():
    probe = build_probe(KExtProblem.for_werner(d=2, gamma=0.5), 0.5)
    assert probe.is_real


def embed_reference_pieces(assembly):
    """The probe pieces built term by term from full Kronecker products."""
    dim = assembly.layout.total_dim
    dtype = np.float64 if assembly.is_real else np.complex128
    const = np.zeros((dim, dim), dtype=dtype)
    linear = np.zeros((dim, dim), dtype=dtype)
    for big, small in assembly.pairs:
        linear += embed(assembly.layout, {big: assembly.rho_fused}).entries
        const -= embed(assembly.layout, {big: assembly.rho_fused, small: assembly.bell}).entries
    return const, linear


@pytest.mark.parametrize("bell", ["phi_plus", "psi_minus"])
@pytest.mark.parametrize("kind", ["werner", "complex"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("side", ["bob", "alice"])
def test_dense_pieces_match_embed_reference(side, n, kind, bell):
    if kind == "werner":
        state = werner(WernerParams(d=2, gamma=-0.3))
    else:
        state = random_state(np.random.default_rng(7), 2, 2)
    assembly = ProbeAssembly(KExtProblem(state=state, n=n, k=1, side=side, bell=bell))
    const, linear = assembly.dense_pieces()
    ref_const, ref_linear = embed_reference_pieces(assembly)
    assert assembly.is_real == (kind == "werner")
    assert const.dtype == ref_const.dtype
    assert np.array_equal(const, ref_const)
    assert np.array_equal(linear, ref_linear)


@pytest.mark.parametrize("side,n", [("bob", 1), ("alice", 1), ("bob", 2), ("alice", 2)])
def test_dense_and_handle_agree(side, n):
    rng = np.random.default_rng(1)
    state = random_state(rng, 2, 2)
    prob_dense = KExtProblem(state=state, n=n, k=1, side=side, backend="dense")
    prob_iter = KExtProblem(state=state, n=n, k=1, side=side, backend="iterative")
    probe = build_probe(prob_dense, 0.7)
    handle = build_probe(prob_iter, 0.7)
    assert isinstance(handle, LinearMapHandle)
    v = rng.standard_normal(probe.dim) + 1j * rng.standard_normal(probe.dim)
    assert np.abs(probe.entries @ v - handle.apply(v)).max() < 1e-10


def test_alice_side_probe_matches_swapped_state():
    rng = np.random.default_rng(2)
    state = random_state(rng, 2, 2)
    swapped = from_matrix(
        permute_subsystems(state.op, {"A": "B", "B": "A"}).entries, state.layout
    )
    a_side = lambda_min_alpha(KExtProblem(state=state, side="alice"), 0.7)
    b_side = lambda_min_alpha(KExtProblem(state=swapped, side="bob"), 0.7)
    assert abs(a_side - b_side) < 1e-10


# ---------------------------------------------------------------------------
# lambda_min and thresholds


def test_lambda_min_matches_triple_for_maximally_mixed():
    prob = KExtProblem(state=maximally_mixed(2, 2), n=1, k=1)
    assert lambda_min_alpha(prob, 0.6) == pytest.approx(-0.3 / 4.0, abs=1e-12)
    assert lambda_min_alpha(prob, 0.75) == pytest.approx(0.0, abs=1e-10)


def test_lambda_min_positive_above_werner_threshold():
    prob = KExtProblem.for_werner(d=3, gamma=0.5)
    assert lambda_min_alpha(prob, 0.82) > 0.0


def test_threshold_maximally_mixed():
    for k, expected in ((1, 0.75), (2, 2.0 / 3.0), (3, 0.625)):
        prob = KExtProblem(state=maximally_mixed(2, 2), k=k)
        result = fidelity_threshold(prob)
        assert abs(result.alpha_star - expected) < 1e-6
        assert result.full_rank


def test_threshold_werner_both_signs():
    for gamma in (0.5, -0.5):
        result = fidelity_threshold(KExtProblem.for_werner(d=3, gamma=gamma))
        assert abs(result.alpha_star - 0.8162277660168379) < 1e-6


def test_threshold_result_invariants():
    result = fidelity_threshold(KExtProblem.for_werner(d=2, gamma=-0.3))
    alphas = [a for a, _ in result.samples]
    lams = [v for _, v in result.samples]
    assert alphas == sorted(alphas)
    assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
    assert result.lambda_residual < 0.0
    assert result.certificate is not None
    assert result.certificate.shape == (64,)


@pytest.mark.parametrize(
    "problem",
    [
        KExtProblem.for_werner(d=2, gamma=-0.3, k=1, backend="dense"),
        KExtProblem(state=random_state(np.random.default_rng(4), 2, 2), k=1, backend="iterative"),
    ],
    ids=["dense", "iterative"],
)
def test_threshold_certificate_is_a_negative_eigenvector(problem):
    result = fidelity_threshold(problem)
    v = result.certificate
    probe = build_probe(problem, result.alpha_star)
    pv = probe.entries @ v if isinstance(probe, HermitianOperator) else probe.apply(v)
    lam = result.lambda_residual
    assert (result.alpha_star, lam) in result.samples
    assert np.vdot(v, pv).real / np.vdot(v, v).real < -TOL_EIG
    assert np.linalg.norm(pv - lam * v) <= 1e-8


@pytest.mark.parametrize("backend", ["dense", "iterative"])
def test_threshold_past_a_kink(backend):
    # lambda_min bends near alpha = 0.5, where its slope falls from 0.53 to
    # 0.40, and the threshold is 3/4; a slope from the wrong side of the bend
    # would stall short of it
    problem = KExtProblem.for_werner(d=3, gamma=-0.5, k=2, backend=backend)
    result = fidelity_threshold(problem)
    assert abs(result.alpha_star - 0.75) <= 1e-8
    assert len(result.samples) <= 12


def test_threshold_certified_by_a_fresh_solve():
    # with steps aimed at exactly -TOL_EIG, alpha* sat on -TOL_EIG: fresh
    # solves there gave -0.99999989e-09 in one process, -1.0000000584e-09 in another
    problem = KExtProblem.for_werner(d=2, gamma=0.0, k=3, backend="iterative")
    result = fidelity_threshold(problem)
    assert lambda_min_alpha(problem, result.alpha_star) < -TOL_EIG


def test_iterative_matches_dense_where_lambda_min_is_zero():
    # at this kink lambda_min is exactly 0; with a stopping test relative to
    # |lambda|, ARPACK returned 9.59e-3, a higher eigenvalue
    iterative = KExtProblem.for_werner(d=3, gamma=-0.5, k=2, backend="iterative")
    dense = KExtProblem.for_werner(d=3, gamma=-0.5, k=2, backend="dense")
    assert abs(lambda_min_alpha(iterative, 0.75) - lambda_min_alpha(dense, 0.75)) < 1e-10


def test_iterative_solves_are_bit_identical():
    # a degenerate probe at lambda_min ~ -TOL_EIG.  With a stopping test relative
    # to |lambda|, ARPACK drew unseeded restart vectors and this test failed in
    # most runs, not all, with values from -9.9999984e-10 to -1.0000001e-09
    problem = KExtProblem.for_werner(d=2, gamma=0.0, k=3, backend="iterative")
    values = {lambda_min_alpha(problem, 0.624999999) for _ in range(6)}
    assert len(values) == 1


@pytest.mark.parametrize("d_b,rank", [(2, 1), (2, 4), (3, 1), (3, 6)])
def test_norm_bound_bounds_the_probe(d_b, rank):
    # the probe is const + alpha * linear with linear PSD, so on alpha in [0, 1]
    # its spectrum lies between the lowest eigenvalue at 0 and the highest at 1;
    # d_B = 3 leaves out n = 2 (dims 1152 and 2592) for time
    rng = np.random.default_rng(5 + d_b + rank)
    g = rng.standard_normal((2 * d_b, rank)) + 1j * rng.standard_normal((2 * d_b, rank))
    state = from_matrix(g @ g.conj().T, layout(("A", 2), ("B", d_b)))
    shapes = [(1, 1), (1, 2), (2, 1)] if d_b == 2 else [(1, 1), (1, 2)]
    for (n, k), side in itertools.product(shapes, SIDES):
        assembly = ProbeAssembly(KExtProblem(state=state, n=n, k=k, side=side))
        const, linear = assembly.dense_pieces()
        top = max(-np.linalg.eigvalsh(const)[0], np.linalg.eigvalsh(const + linear)[-1])
        assert top <= assembly.handle(0.5).norm_bound * (1 + 1e-12), (n, k, side)


# every (d_B, k, side) but (3, 2, bob), whose dimension 864 makes one example take seconds
SHAPES = [
    (d_b, k, side)
    for d_b in (2, 3)
    for k in (1, 2)
    for side in SIDES
    if (d_b, k, side) != (3, 2, "bob")
]


@st.composite
def threshold_problems(draw):
    d_b, k, side = draw(st.sampled_from(SHAPES))
    dim = 2 * d_b
    rank = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    state = from_matrix(g @ g.conj().T, layout(("A", 2), ("B", d_b)))
    return KExtProblem(
        state=state,
        k=k,
        side=side,
        bell=draw(st.sampled_from(BELLS)),
        backend=draw(st.sampled_from(["dense", "iterative"])),
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(problem=threshold_problems())
def test_threshold_matches_bisection_and_is_certified(problem, reference_bisection):
    # the reference and the checks use dense solves: exact at these dimensions,
    # and cheaper than ARPACK, which is slow near lambda = 0, where
    # rank-deficient states end up as alpha nears 1; a coarse width keeps the
    # bisection short
    tol_alpha = 1e-3
    alpha_star = fidelity_threshold(problem, tol_alpha=tol_alpha).alpha_star
    exact = solver._lambda_min_solver(dataclasses.replace(problem, backend="dense"))
    bisection = reference_bisection(lambda alpha: exact(alpha)[0] < -TOL_EIG, tol_alpha)
    assert abs(alpha_star - bisection) <= tol_alpha
    if alpha_star > 0.0:
        assert exact(alpha_star)[0] < -TOL_EIG
    above = min(1.0, alpha_star + tol_alpha)
    assert above == alpha_star or exact(above)[0] >= -TOL_EIG


@st.composite
def dense_two_qubit_problems(draw):
    # a random state of any rank, mixed with I/4 by a drawn weight: at weight 0
    # the threshold is the maximally mixed bound itself
    rank = draw(st.integers(1, 4))
    weight = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = weight * g @ g.conj().T / np.linalg.norm(g) ** 2 + (1.0 - weight) * np.eye(4) / 4.0
    state = from_matrix(rho, layout(("A", 2), ("B", 2)))
    return KExtProblem(state=state, k=draw(st.sampled_from([1, 2])), backend="dense")


@settings(max_examples=8, deadline=None, derandomize=True)
@given(problem=dense_two_qubit_problems())
def test_lambda_min_is_nondecreasing_and_concave_in_alpha(problem):
    solve = solver._lambda_min_solver(problem)
    lams = [solve(alpha)[0] for alpha in np.linspace(0.0, 1.0, 9)]
    assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
    assert all(b >= 0.5 * (a + c) - 1e-12 for a, b, c in zip(lams, lams[1:], lams[2:]))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(problem=dense_two_qubit_problems())
def test_threshold_is_at_least_the_maximally_mixed_bound(problem):
    tol_alpha = 1e-6
    alpha_star = fidelity_threshold(problem, tol_alpha=tol_alpha).alpha_star
    assert alpha_star >= maxmixed_bound(problem.k) - tol_alpha


def test_threshold_tolerance_validation():
    for tol_alpha in (1e-12, 0.0, 1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            fidelity_threshold(KExtProblem.for_werner(d=2, gamma=-0.5), tol_alpha=tol_alpha)


def test_lambda_monotone_in_alpha():
    rng = np.random.default_rng(3)
    for prob in (
        KExtProblem.for_werner(d=2, gamma=0.4),
        KExtProblem(state=random_state(rng, 2, 2), k=1),
    ):
        lams = [lambda_min_alpha(prob, a) for a in np.linspace(0.0, 1.0, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))


def test_dense_probe_slope_is_a_supergradient(assert_supergradient):
    problem = KExtProblem(state=random_state(np.random.default_rng(7), 2, 2), k=1, backend="dense")
    solve = solver._lambda_min_solver(problem)
    assert_supergradient(lambda alpha: solve(alpha)[:2], np.linspace(0.0, 1.0, 11))


def test_threshold_nonincreasing_in_k():
    values = [
        fidelity_threshold(KExtProblem.for_werner(d=2, gamma=-0.5, k=k), tol_alpha=1e-7).alpha_star
        for k in (1, 2, 3)
    ]
    assert all(a >= b - 1e-6 for a, b in zip(values, values[1:]))


def test_universal_floor_over_states():
    rng = np.random.default_rng(5)
    states = [
        werner(WernerParams(d=2, gamma=0.1)),
        random_state(rng, 2, 2),
    ]
    for state in states:
        for k in (1, 2):
            result = fidelity_threshold(KExtProblem(state=state, k=k), tol_alpha=1e-7)
            assert result.alpha_star >= maxmixed_bound(k) - 1e-6


def test_bell_choice_equivalence():
    r_phi = fidelity_threshold(KExtProblem.for_werner(d=2, gamma=-0.5, bell="phi_plus"))
    r_psi = fidelity_threshold(KExtProblem.for_werner(d=2, gamma=-0.5, bell="psi_minus"))
    assert abs(r_phi.alpha_star - r_psi.alpha_star) < 1e-8


def test_threshold_dimension_independence():
    for gamma in (-0.5, 0.3):
        r2 = fidelity_threshold(KExtProblem.for_werner(d=2, gamma=gamma))
        r3 = fidelity_threshold(KExtProblem.for_werner(d=3, gamma=gamma))
        assert abs(r2.alpha_star - r3.alpha_star) < 1e-6


def test_many_copy_thresholds_increase():
    for gamma in (-0.25, 0.25):
        values = [
            fidelity_threshold(
                KExtProblem.for_werner(d=2, gamma=gamma, n=n, k=1)
            ).alpha_star
            for n in (1, 2, 3)
        ]
        assert values[0] < values[1] < values[2]


def test_embedding_instability():
    embedded = from_matrix(
        np.kron(np.eye(2) / 2.0, np.diag([0.5, 0.5, 0.0])), layout(("A", 2), ("B", 3))
    )
    result = fidelity_threshold(KExtProblem(state=embedded, k=1))
    assert result.alpha_star >= 0.99
    assert not result.full_rank
    square = fidelity_threshold(KExtProblem(state=maximally_mixed(2, 2), k=1))
    assert abs(square.alpha_star - 0.75) < 1e-6


# ---------------------------------------------------------------------------
# symmetrizer properties


def test_symmetrizer_preserves_psd():
    rng = np.random.default_rng(6)
    lay = layout(("B0", 2), ("b0", 2), ("B1", 2), ("b1", 2))
    for _ in range(5):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = HermitianOperator(lay, g @ g.conj().T)
        assert eig_min_dense(symmetrize(h, [("B0", "b0"), ("B1", "b1")])) > -1e-10


def test_symmetrizer_is_self_adjoint():
    rng = np.random.default_rng(7)
    lay = layout(("B0", 2), ("b0", 2), ("B1", 2), ("b1", 2))
    groups = [("B0", "b0"), ("B1", "b1")]
    for _ in range(5):
        ga = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        gb = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a = HermitianOperator(lay, ga + ga.conj().T)
        b = HermitianOperator(lay, gb + gb.conj().T)
        lhs = np.trace(symmetrize(a, groups).entries @ b.entries)
        rhs = np.trace(a.entries @ symmetrize(b, groups).entries)
        assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-10


# ---------------------------------------------------------------------------
# CJ evaluation


def test_discard_and_prepare_reaches_unit_fidelity():
    rng = np.random.default_rng(8)
    cj = discard_and_prepare_cj()
    for state in (maximally_mixed(2, 2), random_state(rng, 2, 2)):
        assert evaluate_map_fidelity(cj, state) == pytest.approx(1.0, abs=1e-12)


def test_identity_channel_on_bell_state():
    cj = identity_channel_cj(2)
    phi = bell_state("phi_plus", 2, labels=("A", "B"))
    assert evaluate_map_fidelity(cj, phi) == pytest.approx(1.0, abs=1e-12)


def test_identity_channel_matches_direct_overlap():
    cj = identity_channel_cj(2)
    for gamma in (-0.8, 0.0, 0.3):
        state = werner(WernerParams(d=2, gamma=gamma))
        direct = float(np.trace(state.matrix @ bell_state("phi_plus", 2).matrix).real)
        assert abs(evaluate_map_fidelity(cj, state) - direct) < 1e-12


def test_singular_output_is_reported():
    lay = layout(("A", 2), ("B", 2), ("a", 2), ("b", 2))
    phi = bell_state("phi_plus", 2).matrix
    proj = np.diag([0.0, 1.0])
    mat = embed(lay, {"A": proj, "B": proj, ("a", "b"): phi}).entries
    cj = CJOperator(from_matrix(mat, lay, normalized=False).op)
    zero_overlap = from_matrix(np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), layout(("A", 2), ("B", 2)))
    with pytest.raises(SingularOutputError):
        evaluate_map_fidelity(cj, zero_overlap)


def test_cj_of_mnp_product_measurement_action():
    rng = np.random.default_rng(9)

    def local(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        return m / np.trace(m).real

    sig_a, sig_b, sig_e = local(2), local(2), local(2)
    sigma_in = from_matrix(
        np.kron(sig_a, np.kron(sig_b, sig_e)), layout(("S", 2), ("X0", 2), ("X1", 2))
    )
    lay_out = layout(("s", 2), ("x0", 2), ("x1", 2))
    phi = bell_state("phi_plus", 2).matrix
    sigma_out = from_matrix(
        embed(lay_out, {("s", "x0"): phi, "x1": np.eye(2) / 2.0}).entries, lay_out
    )
    cj = cj_of_mnp(sigma_in, sigma_out)
    rho = random_state(rng, 2, 2)
    out = 4.0 * np.einsum("ixjy,ji->xy", cj.matrix.reshape(4, 4, 4, 4), rho.matrix.T)
    w1 = float(np.trace(rho.matrix @ np.kron(sig_a, sig_b)).real)
    w2 = float(np.trace(rho.matrix @ np.kron(sig_a, sig_e)).real)
    direct = w1 * phi + w2 * np.eye(4) / 4.0
    scale = np.trace(out).real / np.trace(direct).real
    assert np.abs(out - scale * direct).max() < 1e-10


def test_cj_of_mnp_discard_and_prepare_special_case():
    # measuring the identity on every slot and preparing the same Bell output
    lay_in = layout(("S", 2), ("X0", 2), ("X1", 2))
    sigma_in = from_matrix(np.eye(8), lay_in)
    lay_out = layout(("s", 2), ("x0", 2), ("x1", 2))
    phi = bell_state("phi_plus", 2).matrix
    sigma_out = from_matrix(
        embed(lay_out, {("s", "x0"): phi, "x1": np.eye(2) / 2.0}).entries, lay_out
    )
    cj = cj_of_mnp(sigma_in, sigma_out)
    rng = np.random.default_rng(10)
    state = random_state(rng, 2, 2)
    fid = evaluate_map_fidelity(cj, state)
    # outcome 0 prepares the Bell state, outcome 1 the maximally mixed one,
    # both with equal weight on any state
    assert fid == pytest.approx(0.5 * 1.0 + 0.5 * 0.25, abs=1e-10)


def test_cj_of_mnp_two_evaluation_paths_agree():
    rng = np.random.default_rng(11)
    rho = random_state(rng, 2, 2)

    def local(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        return m / np.trace(m).real

    sig_a, sig_b, sig_e = local(2), local(2), local(2)
    sigma_in = from_matrix(
        np.kron(sig_a, np.kron(sig_b, sig_e)), layout(("S", 2), ("X0", 2), ("X1", 2))
    )
    phi = bell_state("phi_plus", 2).matrix
    lay_out = layout(("s", 2), ("x0", 2), ("x1", 2))
    sigma_out = from_matrix(
        embed(lay_out, {("s", "x0"): phi, "x1": np.eye(2) / 2.0}).entries, lay_out
    )
    cj = cj_of_mnp(sigma_in, sigma_out)
    via_cj = evaluate_map_fidelity(cj, rho)
    w1 = float(np.trace(rho.matrix @ np.kron(sig_a, sig_b)).real)
    w2 = float(np.trace(rho.matrix @ np.kron(sig_a, sig_e)).real)
    direct = (w1 * 1.0 + w2 * 0.25) / (w1 + w2)
    assert abs(via_cj - direct) < 1e-10


def test_cj_is_k_extendible_by_construction():
    # the Choi state sums sigma_in^T x sigma_out over the two-slot marginals of
    # every slot: the slot-0 reduction of a slot-symmetric PSD operator
    rng = np.random.default_rng(12)
    state = random_state(rng, 2, 2)
    kernel_vec = np.linalg.eigh(state.matrix)[1][:, 0]
    lay_in = layout(("S", 2), ("X0", 2), ("X1", 2))
    sigma_in = from_matrix(
        embed(lay_in, {("S", "X1"): np.outer(kernel_vec, kernel_vec.conj()), "X0": np.eye(2) / 2}).entries,
        lay_in,
    )
    phi = bell_state("phi_plus", 2).matrix
    lay_out = layout(("s", 2), ("x0", 2), ("x1", 2))
    sigma_out = from_matrix(
        embed(lay_out, {("s", "x0"): phi, "x1": np.eye(2) / 2.0}).entries, lay_out
    )
    cj = cj_of_mnp(sigma_in, sigma_out)
    assert eig_min_dense(cj.op) > -1e-10


def full_space_cj_of_mnp(sigma_in, sigma_out, side):
    """cj_of_mnp as sigma_in^T x sigma_out on every slot, symmetrized and traced down to slot 0."""
    subs_in, subs_out = sigma_in.layout.subsystems, sigma_out.layout.subsystems
    k = len(subs_in) - 2
    in_labels = ["S"] + [f"X{i}" for i in range(k + 1)]
    out_labels = ["s"] + [f"x{i}" for i in range(k + 1)]
    lay = layout(*zip(in_labels, [d for _, d in subs_in]), *zip(out_labels, [d for _, d in subs_out]))
    big = embed(lay, {tuple(in_labels): sigma_in.matrix.T, tuple(out_labels): sigma_out.matrix})
    sym = symmetrize(big, [(f"X{i}", f"x{i}") for i in range(k + 1)])
    core = partial_trace(sym, ("S", "X0", "s", "x0"))
    if side == "bob":
        named = relabel(core, {"S": "A", "X0": "B", "s": "a", "x0": "b"})
    else:
        named = relabel(core, {"S": "B", "X0": "A", "s": "b", "x0": "a"})
    target = layout(("A", named.layout.dim_of("A")), ("B", named.layout.dim_of("B")), ("a", 2), ("b", 2))
    return reorder_to(named, target).entries


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("k", [1, 2])
def test_cj_of_mnp_matches_the_full_space_construction(k, side, kind):
    rng = np.random.default_rng([13, k])

    def random_density(dims):
        dim = int(np.prod(dims))
        g = rng.standard_normal((dim, dim))
        if kind == "complex":
            g = g + 1j * rng.standard_normal((dim, dim))
        labels = [f"q{i}" for i in range(len(dims))]
        return from_matrix(g @ g.conj().T, layout(*zip(labels, dims)))

    sigma_in = random_density((2,) + (3,) * (k + 1))
    sigma_out = random_density((2,) * (k + 2))
    cj = cj_of_mnp(sigma_in, sigma_out, side=side)
    assert np.abs(cj.matrix - full_space_cj_of_mnp(sigma_in, sigma_out, side)).max() <= 1e-12


# ---------------------------------------------------------------------------
# unit-fidelity strategies


def test_f1_strategy_is_the_mnp_map_of_its_full_measured_state():
    # each route's marginal sums match cj_of_mnp of the k + 1 slot states it measures
    k = 2
    p0, q0 = np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 0.0])
    p_s, p_as = projectors(3)
    antisym, sym = from_matrix(p_as.entries, p_as.layout), from_matrix(p_s.entries, p_s.layout)
    alice = from_matrix(np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2.0), layout(("A", 2), ("B", 2)))
    vec = np.zeros(27)
    for perm in itertools.permutations(range(3)):
        vec[perm[0] * 9 + perm[1] * 3 + perm[2]] = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
    det = np.outer(vec, vec) / 6.0
    det_ext = from_matrix(det, layout(("A", 3), ("E1", 3), ("E2", 3)))
    routes = [
        # (state, extension, side, slot dimension, pieces of sigma_in on (S, X0, X1, X2))
        (antisym, None, "bob", 3, {"S": p0, "X0": np.eye(3) / 3, "X1": p0, "X2": p0}),
        (alice, None, "alice", 2, {"S": np.eye(2) / 2, "X0": np.eye(2) - q0, "X1": q0, "X2": q0}),
        (sym, det_ext, "bob", 3, {("S", "X1", "X2"): det, "X0": np.eye(3) / 3}),
    ]
    lay_out = layout(("s", 2), ("x0", 2), ("x1", 2), ("x2", 2))
    out_pieces = {("s", "x0"): bell_state("phi_plus", 2).matrix, "x1": np.eye(2) / 2, "x2": np.eye(2) / 2}
    sigma_out = from_matrix(embed(lay_out, out_pieces).entries, lay_out)
    for state, extension, side, d_x, pieces in routes:
        d_s = state.layout.total_dim // d_x
        lay_in = layout(("S", d_s), ("X0", d_x), ("X1", d_x), ("X2", d_x))
        sigma_in = from_matrix(embed(lay_in, pieces).entries, lay_in)
        cj, got_side = construct_f1_strategy(state, k, kernel_extension=extension)
        assert got_side == side
        assert np.abs(cj.matrix - cj_of_mnp(sigma_in, sigma_out, side=side).matrix).max() <= 1e-12


def test_f1_strategy_unit_fidelity_at_many_extensions():
    # the maps are built from two-slot marginals, so k = 4 and 6 cost what k = 1 does
    start = time.perf_counter()
    _, p_as = projectors(3)
    antisym = from_matrix(p_as.entries, p_as.layout)
    cj, side = construct_f1_strategy(antisym, 6)
    assert side == "bob"
    assert evaluate_map_fidelity(cj, antisym) == pytest.approx(1.0, abs=1e-10)

    alice = from_matrix(np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2.0), layout(("A", 2), ("B", 2)))
    cj, side = construct_f1_strategy(alice, 6)
    assert side == "alice"
    assert evaluate_map_fidelity(cj, alice) == pytest.approx(1.0, abs=1e-10)

    # |0>^5 on (A, E1..E4) extends |00>, a symmetric vector in the kernel of P_as
    zeros = np.zeros(3**5)
    zeros[0] = 1.0
    ext_layout = layout(("A", 3), *((f"E{i}", 3) for i in range(1, 5)))
    extension = from_matrix(np.outer(zeros, zeros), ext_layout)
    cj, side = construct_f1_strategy(antisym, 4, kernel_extension=extension)
    assert side == "bob"
    assert evaluate_map_fidelity(cj, antisym) == pytest.approx(1.0, abs=1e-10)
    assert time.perf_counter() - start < 1.0


def test_f1_strategy_pure_product_state():
    pure = from_matrix(
        np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), layout(("A", 2), ("B", 2))
    )
    for k in (1, 2, 3):
        cj, side = construct_f1_strategy(pure, k)
        assert side == "bob"
        assert evaluate_map_fidelity(cj, pure) == pytest.approx(1.0, abs=1e-10)


def test_f1_strategy_antisymmetric_projector():
    _, p_as = projectors(3)
    state = from_matrix(p_as.entries, p_as.layout)
    for k in (1, 2):
        cj, _ = construct_f1_strategy(state, k)
        assert evaluate_map_fidelity(cj, state) == pytest.approx(1.0, abs=1e-10)


def test_f1_strategy_alice_side():
    state = from_matrix(np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2.0), layout(("A", 2), ("B", 2)))
    cj, side = construct_f1_strategy(state, 1)
    assert side == "alice"
    assert evaluate_map_fidelity(cj, state) == pytest.approx(1.0, abs=1e-10)


def test_f1_strategy_symmetric_projector_via_kernel_state():
    p_s, _ = projectors(3)
    state = from_matrix(p_s.entries, p_s.layout)
    cj, side = construct_f1_strategy(state, 1)
    assert side == "bob"
    assert evaluate_map_fidelity(cj, state) == pytest.approx(1.0, abs=1e-10)


def test_f1_strategy_full_rank_returns_none():
    assert construct_f1_strategy(werner(WernerParams(d=3, gamma=0.3)), 1) is None
    assert construct_f1_strategy(maximally_mixed(2, 2), 2) is None


def test_f1_strategy_supplied_extension():
    vec = np.zeros(27)
    for perm in itertools.permutations(range(3)):
        sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        vec[perm[0] * 9 + perm[1] * 3 + perm[2]] = sign
    vec /= np.linalg.norm(vec)
    extension = from_matrix(np.outer(vec, vec), layout(("A", 3), ("E1", 3), ("E2", 3)))
    p_s, p_as = projectors(3)
    # the extension's two-party marginals are the antisymmetric state
    marg = partial_trace(extension.op, ("A", "E1")).entries
    assert np.abs(marg - p_as.entries / 3.0).max() < 1e-12
    state = from_matrix(p_s.entries, p_s.layout)
    cj, side = construct_f1_strategy(state, 2, kernel_extension=extension)
    assert side == "bob"
    assert evaluate_map_fidelity(cj, state) == pytest.approx(1.0, abs=1e-10)


def test_symmetric_projector_still_distills_at_k3():
    # d = 3 symmetric projector: the probe stays negative all the way up at
    # three extensions, so the threshold sits at 1 despite the kernel being
    # only 1-extendible
    p_s, _ = projectors(3)
    state = from_matrix(p_s.entries, p_s.layout)
    prob = KExtProblem(state=state, k=3)
    result = fidelity_threshold(prob, tol_alpha=1e-6)
    assert result.alpha_star >= 1.0 - 1e-4
    assert not result.full_rank


def test_cj_serialization_round_trip(tmp_path):
    from kextdistill.states import load_state, save_state

    pure = from_matrix(
        np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), layout(("A", 2), ("B", 2))
    )
    cj, _ = construct_f1_strategy(pure, 1)
    path = tmp_path / "strategy.cj"
    save_state(path, cj.op)
    loaded = load_state(path, require_normalized=False)
    assert loaded.layout.labels == ("A", "B", "a", "b")
    assert np.array_equal(loaded.matrix, cj.matrix)


def test_f1_strategy_rejects_bad_extension():
    full = werner(WernerParams(d=3, gamma=-0.2))
    p_s, _ = projectors(3)
    state = from_matrix(p_s.entries, p_s.layout)
    bad = from_matrix(np.eye(27), layout(("A", 3), ("E1", 3), ("E2", 3)))
    with pytest.raises(ValueError):
        construct_f1_strategy(state, 2, kernel_extension=bad)
    assert construct_f1_strategy(full, 2) is None
