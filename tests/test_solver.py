import dataclasses
import functools
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kextdistill import blocks
from kextdistill.analytic import alpha_max_k1, maxmixed_bound
from kextdistill.linalg import (
    HermitianOperator,
    LinearMapHandle,
    SystemLayout,
    eig_min_dense,
    embed,
    layout,
    partial_trace,
    pencil_bracket,
    reorder_to,
    threshold_sup,
)
from kextdistill.solver import (
    DEFAULT_TOL_ALPHA,
    MIN_TOL_ALPHA,
    SIDES,
    TOL_EIG,
    CJOperator,
    KExtProblem,
    ProbeAssembly,
    SingularOutputError,
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
    projectors,
    werner,
    werner_params_of,
)


def random_state(rng, d_a, d_b):
    dim = d_a * d_b
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return from_matrix(g @ g.conj().T, layout(("A", d_a), ("B", d_b)))


def rank5_2x3_state():
    """The complex rank-5 2 x 3 state of validate.check_pencil_vs_newton."""
    rng = np.random.default_rng(1109)
    g = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    return from_matrix(g @ g.conj().T, layout(("A", 2), ("B", 3)))


def reference_2x3_state(rank):
    """perfbench's complex reference state of this rank on 2 x 3, in its own frame (drawn from seed 1109)."""
    rng = np.random.default_rng([1109, rank])
    g = rng.standard_normal((6, rank)) + 1j * rng.standard_normal((6, rank))
    mat = g @ g.conj().T
    return from_matrix(0.5 * (mat + mat.conj().T), layout(("A", 2), ("B", 3)))


# q agrees with lambda_min to second order in the bracket width, so rounding can put it a few ulps of
# the block's norm below lambda_min; TOL_EIG is 1e-9
RAYLEIGH_ROUNDING = 1e-12


def pencil_start(probe, tol_alpha):
    """(bracket, certified) as fidelity_threshold starts on probe; bracket is None where a Cholesky factor fails.

    certified is (lo, q) where the search takes its one sample from the pencil
    vectors, else None: where the pencil bracket (lo, hi) is no wider than
    tol_alpha and q, the probe's rayleigh_bound at lo, is below -TOL_EIG.
    """
    try:
        lo, hi = pencil_bracket(probe.pencil_tops())
    except np.linalg.LinAlgError:
        return None, None
    if hi - lo <= tol_alpha and (q := probe.rayleigh_bound(lo)[0]) < -TOL_EIG:
        return (lo, hi), (lo, q)
    return (lo, hi), None


def threshold_on_eigensolves(probe, tol_alpha, bracket):
    """alpha* and sorted samples of threshold_sup from bracket on probe.lambda_min alone."""
    samples = []

    def solve(alpha):
        value, slope, _ = probe.lambda_min(alpha)
        samples.append((alpha, value))
        return value, slope

    return threshold_sup(solve, tol_alpha, bracket), tuple(sorted(samples))


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
        KExtProblem.for_werner(d=3, gamma=0.0, n=2, k=2, backend="dense")  # 104976 dims, blocks of 6561 rows
    with pytest.raises(ValueError, match="dense limited to 1024 MiB"):
        KExtProblem(state=mixed_2x3(6), k=5, backend="dense")  # 186624 dims, bases of 10206 rows: about 3.9 GiB


@pytest.mark.parametrize("n,k", [(1, 2.0), (1.5, 1), (np.float64(2.0), 1), (1, "2")])
def test_problem_rejects_non_integer_copies_and_extensions(n, k):
    # k = 2.0 gave total_dim 256.0 and n = 1.5 gave 181.02, then a TypeError inside the solve
    with pytest.raises(ValueError, match="integers"):
        KExtProblem(state=maximally_mixed(2, 2), n=n, k=k)
    assert KExtProblem(state=maximally_mixed(2, 2), n=np.int64(1), k=2).total_dim == 256


def mixed_2x3(rank, eps=0.0):
    """A random complex 2x3 state of the given rank, mixed with eps * I/6."""
    rng = np.random.default_rng(rank)
    g = rng.standard_normal((6, rank)) + 1j * rng.standard_normal((6, rank))
    rho = g @ g.conj().T
    return from_matrix((1 - eps) * rho / np.trace(rho).real + eps * np.eye(6) / 6, layout(("A", 2), ("B", 3)))


def framed_werner(d, gamma, seed=0):
    """A Werner state seen in a random local frame U_A x V_B: same probe spectrum, no longer of Werner form."""
    rng = np.random.default_rng(seed)
    u_a, u_b = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0] for _ in "AB")
    u = np.kron(u_a, u_b)
    return from_matrix(u @ werner(WernerParams(d=d, gamma=gamma)).matrix @ u.conj().T, layout(("A", d), ("B", d)))


def test_backend_resolution():
    cases = [
        # every Werner state whose largest Schur-Weyl block fits the dense cap goes to blocks
        (KExtProblem.for_werner(d=2, gamma=0.0), "schur_weyl"),  # dim 64
        (KExtProblem(state=maximally_mixed(2, 2), n=2, k=1), "schur_weyl"),  # the gamma = 0 Werner state
        (KExtProblem.for_werner(d=3, gamma=-0.5, k=2, side="alice"), "schur_weyl"),
        (KExtProblem.for_werner(d=3, gamma=0.0, n=2), "schur_weyl"),  # dim 5832
        (KExtProblem.for_werner(d=3, gamma=0.5, k=6), "schur_weyl"),  # largest block 1960 rows
        # past the Schur-Weyl cap the dense budget decides: d = 3, k = 7 has a block of 8064 rows, and dense bases of
        # 3^8 * 42 = 275562 rows
        (KExtProblem.for_werner(d=3, gamma=0.5, k=7), "iterative"),
        # the same Werner states in a U_A x V_B frame are not of Werner form: dense wherever its estimated peak fits
        # the 1 GiB budget, whatever the probe dimension and the state's spectrum
        (KExtProblem(state=framed_werner(2, 0.5), k=1), "dense"),  # dim 64
        (KExtProblem(state=maximally_mixed(2, 3), k=2, side="alice"), "dense"),  # dim 384
        (KExtProblem(state=framed_werner(2, 0.5), n=2, k=1), "dense"),  # dim 512
        (KExtProblem(state=framed_werner(3, -0.5), k=2), "dense"),  # dim 1296
        (KExtProblem(state=mixed_2x3(5), k=2), "dense"),  # dim 864, rank 5
        (KExtProblem(state=mixed_2x3(3, eps=1e-4), k=2), "dense"),  # dim 864, near-singular
        (KExtProblem(state=mixed_2x3(3, eps=3e-2), n=2, k=1), "dense"),  # dim 2592
        (KExtProblem(state=framed_werner(2, -1.0), k=4), "dense"),  # dim 4096, rank 1; about 4 MiB
        (KExtProblem(state=mixed_2x3(5), k=3), "dense"),  # dim 5184, rank 5; about 11 MiB
        (KExtProblem(state=framed_werner(3, 0.3), n=2), "dense"),  # dim 5832; about 94 MiB
        (KExtProblem(state=mixed_2x3(6), k=6, side="alice"), "dense"),  # dim 98304; about 494 MiB (509 measured)
        (KExtProblem(state=mixed_2x3(6), n=2, k=3, side="alice"), "dense"),  # dim 73728; about 543 MiB (470)
        # past the budget only ARPACK is left
        (KExtProblem(state=mixed_2x3(6), k=5), "iterative"),  # dim 186624; bases of 10206 rows
        (KExtProblem(state=framed_werner(2, 0.5), k=7), "iterative"),  # dim 262144; bases of 12288 rows
        (KExtProblem(state=maximally_mixed(2, 4), n=2, k=1), "iterative"),  # dim 8192; about 1203 MiB
    ]
    for problem, expected in cases:
        assert problem.resolved_backend() == expected, (problem.total_dim, expected)
    # past the budget the bases' build alone, 5 float64 arrays of 14 * 3^6 rows squared, decides
    assert KExtProblem(state=mixed_2x3(6), k=5).dense_bytes() == 5 * 8 * 10206**2


# ---------------------------------------------------------------------------
# probe assembly


def test_probe_of_maximally_mixed_factorizes(probe_operator):
    prob = KExtProblem(state=maximally_mixed(2, 2), n=1, k=1)
    probe = ProbeAssembly(prob).dense(0.6)
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
        probe = ProbeAssembly(prob).dense(1.0)
        assert eig_min_dense(probe) > -1e-11


def test_probe_negative_below_threshold_for_singlet():
    prob = KExtProblem.for_werner(d=2, gamma=-1.0)
    probe = ProbeAssembly(prob).dense(0.9)
    assert eig_min_dense(probe) < -1e-6


def test_probe_real_fast_path():
    probe = ProbeAssembly(KExtProblem.for_werner(d=2, gamma=0.5)).dense(0.5)
    assert probe.is_real


def embed_reference_pieces(assembly, bell):
    """The probe pieces toward the given Bell target, built term by term from full Kronecker products."""
    dim = assembly.layout.total_dim
    dtype = np.float64 if assembly.is_real else np.complex128
    const = np.zeros((dim, dim), dtype=dtype)
    linear = np.zeros((dim, dim), dtype=dtype)
    for big, small in assembly.pairs:
        linear += embed(assembly.layout, {big: assembly.rho_fused}).entries
        const -= embed(assembly.layout, {big: assembly.rho_fused, small: bell}).entries
    return const, linear


# (side, n, kind, bell): the 2 x 2 states at k = 1, and the complex 2 x 3 state at k = 2 and 3, whose
# pairs add into shared entries of both pieces; bob at k = 3 has 5184 rows, above the dense cap
EMBED_CASES = [
    (side, n, kind, bell)
    for side in SIDES
    for n in (1, 2)
    for kind in ("werner", "complex")
    for bell in ("phi_plus", "psi_minus")
] + [
    (side, 1, kind, bell)
    for side, kind in (("bob", "complex_2x3_k2"), ("alice", "complex_2x3_k2"), ("alice", "complex_2x3_k3"))
    for bell in ("phi_plus", "psi_minus")
]


@pytest.mark.parametrize("side,n,kind,bell", EMBED_CASES)
def test_dense_pieces_match_embed_reference(side, n, kind, bell):
    # the assembly targets phi_plus; toward psi_minus the probe is the same
    # one with each b qubit rotated by iY, since (I x iY) phi_plus (I x iY)^dag
    # is psi_minus, so every Bell target has the phi_plus spectrum
    if kind == "werner":
        state, k = werner(WernerParams(d=2, gamma=-0.3)), 1
    elif kind == "complex":
        state, k = random_state(np.random.default_rng(7), 2, 2), 1
    else:
        state, k = random_state(np.random.default_rng(7), 2, 3), int(kind[-1])
    assembly = ProbeAssembly(KExtProblem(state=state, n=n, k=k, side=side))
    const, linear = assembly.dense_pieces()
    if bell == "psi_minus":
        iy = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rotation = functools.reduce(
            np.kron, [iy if lab.startswith("b") else np.eye(dim) for lab, dim in assembly.layout.subsystems]
        )
        const, linear = rotation @ const @ rotation.T, rotation @ linear @ rotation.T
    ref_const, ref_linear = embed_reference_pieces(assembly, bell_state(bell, 2).matrix)
    assert assembly.is_real == (kind == "werner")
    assert const.dtype == ref_const.dtype
    assert np.array_equal(const, ref_const)
    assert np.array_equal(linear, ref_linear)


def tensordot_apply(assembly, alpha, v):
    """probe(alpha) v as the sum over pairs of alpha rho_i v - Bell_i rho_i v, one np.tensordot per factor."""
    lay = assembly.layout
    big_s, big_x = (lay.dim_of(lab) for lab in assembly.pairs[0][0])
    rho = assembly.rho_fused.reshape(big_s, big_x, big_s, big_x)
    bell = bell_state("phi_plus", 2).matrix.reshape(2, 2, 2, 2)

    def contract(op, tensor, labels):
        axes = [lay.index(lab) for lab in labels]
        return np.moveaxis(np.tensordot(op, tensor, axes=([2, 3], axes)), (0, 1), axes)

    tensor = v.reshape(lay.dims)
    out = np.zeros(tensor.shape, dtype=np.result_type(rho, v))
    for big, small in assembly.pairs:
        rv = contract(rho, tensor, big)
        out += alpha * rv - contract(bell, rv, small)
    return out.reshape(-1)


@pytest.mark.parametrize("side,n", [("bob", 1), ("alice", 1), ("bob", 2), ("alice", 2)])
def test_dense_and_handle_agree(side, n):
    # k = 1..3 on a complex 2 x 2, a real Werner and a complex 2 x 3 state: the handle against the dense
    # probe up to 1536 rows, and everywhere (up to 839808 rows) against a term-by-term tensordot reference
    rng = np.random.default_rng(1)
    states = [random_state(rng, 2, 2), werner(WernerParams(d=2, gamma=-0.3)), random_state(rng, 2, 3)]
    for state, k in itertools.product(states, (1, 2, 3)):
        assembly = ProbeAssembly(KExtProblem(state=state, n=n, k=k, side=side))
        handle = assembly.handle(0.7)
        assert isinstance(handle, LinearMapHandle)
        dim = assembly.layout.total_dim
        complex_v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        # a vector of the probe's own dtype, as ARPACK passes it; a complex vector on a real probe is refused
        v = complex_v.real if assembly.is_real else complex_v
        if assembly.is_real:
            with pytest.raises(TypeError):
                handle.apply(complex_v)
        applied = handle.apply(v)
        assert applied.dtype == assembly.rho_fused.dtype
        assert np.abs(tensordot_apply(assembly, 0.7, v) - applied).max() < 1e-10, (k, dim)
        if dim <= 1536:
            assert np.abs(assembly.dense(0.7).entries @ v - applied).max() < 1e-10, (k, dim)


def test_dense_pieces_hold_little_besides_the_pieces():
    # besides const and linear, the slab build holds 4.25 slabs of 64 columns: 0.18 of a piece at these 1536 rows
    assembly = ProbeAssembly(KExtProblem(state=random_state(np.random.default_rng(3), 2, 3), k=3, side="alice"))
    tracemalloc.start()
    try:
        const, linear = assembly.dense_pieces()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert const.shape == (1536, 1536) and const.dtype == np.complex128
    assert peak < 2.25 * const.nbytes


def test_alice_side_probe_matches_swapped_state():
    # the alice side of rho_AB is the bob side of rho_BA, bit for bit;
    # d_A != d_B pins which party the probe puts first
    rng = np.random.default_rng(2)
    state = random_state(rng, 2, 3)
    swapped = from_matrix(
        reorder_to(state.op, layout(("B", 3), ("A", 2))).entries, layout(("A", 3), ("B", 2))
    )
    for n, k in itertools.product((1, 2), (1, 2)):
        alice = ProbeAssembly(KExtProblem(state=state, n=n, k=k, side="alice"))
        bob = ProbeAssembly(KExtProblem(state=swapped, n=n, k=k, side="bob"))
        for assembly in (alice, bob):
            assert assembly.problem.total_dim == assembly.layout.total_dim
        v = rng.standard_normal(alice.layout.total_dim) + 1j * rng.standard_normal(alice.layout.total_dim)
        assert np.array_equal(alice.handle(0.7).apply(v), bob.handle(0.7).apply(v))
        if (n, k) != (2, 2):  # n = k = 2 has 9216 rows: its dense pieces take 1.4 GB each
            for a_piece, b_piece in zip(alice.dense_pieces(), bob.dense_pieces()):
                assert np.array_equal(a_piece, b_piece)


def test_dense_pieces_refuse_a_probe_above_the_dense_cap(monkeypatch):
    # the complex 2x3 state at n = k = 2, alice has 9216 rows: its pieces would take 1.4 GB each
    assembly = ProbeAssembly(KExtProblem(state=random_state(np.random.default_rng(2), 2, 3), n=2, k=2, side="alice"))

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(np, "zeros", no_allocation)
    monkeypatch.setattr(np, "eye", no_allocation)
    with pytest.raises(ValueError, match="9216"):
        assembly.dense(0.5)


# ---------------------------------------------------------------------------
# lambda_min and thresholds


def test_lambda_min_matches_triple_for_maximally_mixed():
    # the probe, and auto's Schur-Weyl blocks of the gamma = 0 Werner state I on the scale d^2 = 4
    for backend, scale in (("dense", 1.0), ("auto", 4.0)):
        prob = KExtProblem(state=maximally_mixed(2, 2), n=1, k=1, backend=backend)
        assert lambda_min_alpha(prob, 0.6) == pytest.approx(-0.3 / 4.0 * scale, abs=1e-12)
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
    problem = KExtProblem.for_werner(d=2, gamma=-0.3, backend="dense")
    result = fidelity_threshold(problem)
    alphas = [a for a, _ in result.samples]
    lams = [v for _, v in result.samples]
    assert alphas == sorted(alphas)
    assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
    # a plain float: the sweep CSV writes its repr
    assert type(result.lambda_residual) is float and result.lambda_residual < -TOL_EIG
    assert result.certificate is not None
    assert result.certificate.shape == (64,)
    # the pencil certifies alpha*: its one sample bounds lambda_min from above
    assert result.samples == (pencil_start(problem.probe(), DEFAULT_TOL_ALPHA)[1],)
    assert problem.probe().lambda_min(result.alpha_star)[0] <= result.lambda_residual + RAYLEIGH_ROUNDING


@pytest.mark.parametrize("backend", ["schur_weyl", "dense"])
@pytest.mark.parametrize("d", [2, 3])
def test_pencil_bound_certifies_the_alpha_star_of_the_eigensolves(d, backend):
    # against threshold_sup on eigensolves alone from the same bracket: alpha* is bit-identical, and
    # only a sample the eigensolve certifies too is replaced, by the pencil bound q >= lambda_min.
    # MIN_TOL_ALPHA is below every bracket width 2 TOL_EIG / g here, and at gamma = +-1 a Cholesky
    # factor fails on most of these probes: both keep every eigensolve sample
    kinds = set()
    for n, k in itertools.product((1, 2, 3), repeat=2):
        # (3, 3) takes 0.25-0.5 s per threshold at d = 2 and 2.4-4.5 s at d = 3; dense is taken up to 512 rows
        if (n, k) == (3, 3) or backend == "dense" and d ** (n * (k + 2)) * 2 ** (k + 2) > 512:
            continue
        for gamma, tol_alpha in itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), (DEFAULT_TOL_ALPHA, MIN_TOL_ALPHA)):
            problem = KExtProblem.for_werner(d=d, gamma=gamma, n=n, k=k, backend=backend)
            result = fidelity_threshold(problem, tol_alpha)
            probe = problem.probe()
            bracket, certified = pencil_start(probe, tol_alpha)
            alpha_star, samples = threshold_on_eigensolves(probe, tol_alpha, bracket or (0.0, 1.0))
            assert result.alpha_star == alpha_star
            if certified is None:
                assert result.samples == samples
            else:
                assert tol_alpha == DEFAULT_TOL_ALPHA and result.samples == (certified,)
                assert samples[0][0] == certified[0] and samples[0][1] <= certified[1] + RAYLEIGH_ROUNDING
                lam = lambda_min_alpha(problem, result.alpha_star)
                assert lam <= result.lambda_residual + RAYLEIGH_ROUNDING and result.lambda_residual < -TOL_EIG
            kinds.add("singular" if bracket is None else "solved" if certified is None else "bound")
    assert kinds == {"bound", "solved", "singular"}


@pytest.mark.parametrize("backend", ["schur_weyl", "dense"])
def test_a_pencil_bound_that_does_not_certify_falls_back_to_the_eigensolve(monkeypatch, backend):
    # q is -2 TOL_EIG by construction unless lo is clipped to 0; a bound that does not certify lo
    # must leave the sample at lo to the eigensolve, and the search to run as on eigensolves alone
    problem = KExtProblem.for_werner(d=2, gamma=-0.5, k=1, backend=backend)
    probe = problem.probe()
    bracket, certified = pencil_start(probe, DEFAULT_TOL_ALPHA)
    assert certified is not None
    alpha_star, samples = threshold_on_eigensolves(probe, DEFAULT_TOL_ALPHA, bracket)
    bounds, rayleigh_bound = [], blocks.BlockProbe.rayleigh_bound

    def uncertified(self, alpha):
        bounds.append(alpha)
        return -0.5 * TOL_EIG, rayleigh_bound(self, alpha)[1]

    monkeypatch.setattr(blocks.BlockProbe, "rayleigh_bound", uncertified)
    result = fidelity_threshold(problem)
    assert bounds == [bracket[0]]
    assert result.alpha_star == alpha_star and result.samples == samples


@pytest.mark.parametrize(
    "problem, solved",
    [
        (KExtProblem.for_werner(d=2, gamma=-0.3, k=1, backend="dense"), False),
        (KExtProblem(state=rank5_2x3_state(), k=1, side="bob", backend="dense"), True),
        (KExtProblem(state=rank5_2x3_state(), k=1, side="alice", backend="dense"), True),
        (KExtProblem(state=random_state(np.random.default_rng(4), 2, 2), k=1, backend="iterative"), True),
    ],
    ids=["dense", "dense-complex-bob", "dense-complex-alice", "iterative"],
)
def test_threshold_certificate_is_a_negative_eigenvector(problem, solved, probe_log):
    # a certificate is a unit vector v with v^dag P(alpha*) v = lambda_residual < -TOL_EIG; it is an
    # eigenvector where lambda_residual was solved, and the pencil vector where the pencil certified it.
    # On iterative, alpha* is solved where it came from a full solve, and is a loose vector's quotient elsewhere
    result = fidelity_threshold(problem)
    if problem.backend == "iterative":
        solved = result.alpha_star in probe_log.full
    v = result.certificate
    pv = ProbeAssembly(problem).handle(result.alpha_star).apply(v)
    lam = result.lambda_residual
    assert (result.alpha_star, lam) in result.samples
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert abs(np.vdot(v, pv).real - lam) <= 1e-12 and lam < -TOL_EIG
    if solved:
        assert np.linalg.norm(pv - lam * v) <= 1e-8
    else:
        assert lambda_min_alpha(problem, result.alpha_star) <= lam + RAYLEIGH_ROUNDING


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("state", [werner(WernerParams(d=3, gamma=-0.5)), rank5_2x3_state()], ids=["werner", "complex"])
def test_dense_lambda_and_slope_match_the_reference_probe(state, side):
    # the dense backend solves its pieces in place as one block; the reference is
    # eig_min_dense of ProbeAssembly.dense and the slope v^dag L v, L = dense_pieces()[1]
    problem = KExtProblem(state=state, k=1, side=side, backend="dense")
    solve, assembly = problem.probe().lambda_min, ProbeAssembly(problem)
    linear = assembly.dense_pieces()[1]
    for alpha in (0.0, 0.5, 0.9, 1.0):
        lam, slope, v = solve(alpha)
        assert abs(lam - eig_min_dense(assembly.dense(alpha))) <= 1e-12 * assembly.norm_bound
        assert abs(slope - np.vdot(v, linear @ v).real) <= 1e-12


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize(
    "state,k",
    [(werner(WernerParams(d=3, gamma=-0.5)), 1), (werner(WernerParams(d=3, gamma=-0.5)), 2),
     (random_state(np.random.default_rng(4), 2, 3), 1), (random_state(np.random.default_rng(4), 2, 3), 2)],
    ids=["werner-k1", "werner-k2", "complex-k1", "complex-k2"],
)
def test_iterative_slope_matches_the_dense_linear_piece(state, k, side):
    # the iterative backend's slope is one kernel pass over the pairs; the reference is v^dag L v, L = dense_pieces()[1]
    assembly = ProbeAssembly(KExtProblem(state=state, k=k, side=side, backend="iterative"))
    assert assembly.layout.total_dim <= 1536 and assembly.is_real == (state.matrix.dtype == np.float64)
    linear = assembly.dense_pieces()[1]
    for alpha in (0.3, 0.6, 0.9):
        _, slope, v = assembly.lambda_min(alpha)
        assert abs(slope - np.vdot(v, linear @ v).real) <= 1e-12, alpha


@pytest.mark.parametrize("k", [1, 3])
def test_a_one_by_one_state_is_no_werner_state(k):
    # a 1 x 1 state has no rho[01,01] to read gamma from, so it is no Werner state, and auto sends it to dense
    state = maximally_mixed(1, 1)
    with pytest.raises(ValueError, match="d >= 2"):
        werner_params_of(state)
    problem = KExtProblem(state=state, k=k)
    assert problem.werner_params is None and problem.resolved_backend() == "dense"
    assert abs(fidelity_threshold(problem).alpha_star - maxmixed_bound(k)) <= 1e-8


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


@pytest.mark.parametrize(
    "state, k, side",
    [
        (reference_2x3_state(6), 2, "bob"),  # dim 864
        (reference_2x3_state(6), 2, "alice"),  # dim 384
        (rank5_2x3_state(), 1, "bob"),
        (rank5_2x3_state(), 2, "bob"),
        (random_state(np.random.default_rng(4), 2, 2), 2, "bob"),
    ],
    ids=["rank6-k2-bob", "rank6-k2-alice", "rank5-k1", "rank5-k2", "random-2x2-k2"],
)
def test_iterative_samples_bound_the_dense_lambda_min(state, k, side, probe_log):
    # a loose sample is the Rayleigh quotient of an unconverged vector, so it may lie above lambda_min but
    # never below it; a full solve is lambda_min, and only a full solve may set the upper end
    problem = KExtProblem(state=state, k=k, side=side, backend="iterative")
    result = fidelity_threshold(problem)
    full = set(probe_log.full)
    assembly = ProbeAssembly(problem)
    # the reference probe, not the dense backend's blocks: eig_min_dense of ProbeAssembly.dense
    exact = lambda alpha: (eig_min_dense(assembly.dense(alpha)),)
    for alpha, value in result.samples:
        lam = exact(alpha)[0]
        assert value >= lam - 1e-12 * assembly.norm_bound, alpha
        if alpha in full:
            assert abs(value - lam) <= 1e-10, alpha
        else:
            assert value < -TOL_EIG, alpha
    assert len(full) < len(result.samples)
    # certified and tight by dense solves
    assert exact(result.alpha_star)[0] < -TOL_EIG
    above = min(1.0, result.alpha_star + DEFAULT_TOL_ALPHA)
    assert above == result.alpha_star or exact(above)[0] >= -TOL_EIG


@pytest.mark.parametrize("side", SIDES)
def test_iterative_threshold_matvecs(side, probe_log):
    # every sample a full solve took 757 (bob) and 687 (alice) matvecs; with loose samples only the first and
    # the closing sample solve to ITER_EIG_TOL: 327 and 297.  A chord cap through loose values took 2628 on alice
    fidelity_threshold(KExtProblem(state=reference_2x3_state(6), k=2, side=side, backend="iterative"))
    assert probe_log.matvecs <= 450
    assert len(probe_log.full) <= 3


def test_an_uncertified_loose_sample_is_solved_again(monkeypatch, probe_log):
    # a loose q that does not certify its alpha is solved again to ITER_EIG_TOL before the search uses it,
    # so it cannot set the upper end: alpha* is still certified and tight
    lambda_bound, loose = ProbeAssembly.lambda_bound, []

    def uncertified(self, alpha, residual):
        loose.append(alpha)
        return -0.5 * TOL_EIG, *lambda_bound(self, alpha, residual)[1:]

    monkeypatch.setattr(ProbeAssembly, "lambda_bound", uncertified)
    problem = KExtProblem(state=reference_2x3_state(6), k=2, side="alice", backend="iterative")
    result = fidelity_threshold(problem)
    assert loose and set(loose) <= set(probe_log.full)
    assembly = ProbeAssembly(problem)
    exact = lambda alpha: eig_min_dense(assembly.dense(alpha))
    assert exact(result.alpha_star) < -TOL_EIG <= exact(result.alpha_star + DEFAULT_TOL_ALPHA)


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
    assembly = ProbeAssembly(problem)
    exact = lambda alpha: eig_min_dense(assembly.dense(alpha))  # the reference probe, which no backend samples
    bisection = reference_bisection(lambda alpha: exact(alpha) < -TOL_EIG, tol_alpha)
    assert abs(alpha_star - bisection) <= tol_alpha
    if alpha_star > 0.0:
        assert exact(alpha_star) < -TOL_EIG
    above = min(1.0, alpha_star + tol_alpha)
    assert above == alpha_star or exact(above) >= -TOL_EIG


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
    solve = problem.probe().lambda_min
    lams = [solve(alpha)[0] for alpha in np.linspace(0.0, 1.0, 9)]
    assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
    assert all(b >= 0.5 * (a + c) - 1e-12 for a, b, c in zip(lams, lams[1:], lams[2:]))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(problem=dense_two_qubit_problems())
def test_threshold_is_at_least_the_maximally_mixed_bound(problem):
    tol_alpha = 1e-6
    alpha_star = fidelity_threshold(problem, tol_alpha=tol_alpha).alpha_star
    assert alpha_star >= maxmixed_bound(problem.k) - tol_alpha


@pytest.mark.parametrize("alpha", [1.5, -0.5, np.nan])
@pytest.mark.parametrize("backend", ["dense", "iterative", "schur_weyl"])
def test_lambda_min_rejects_alpha_outside_the_unit_interval(backend, alpha):
    # dense returned 0.303 at alpha = 1.5, and ARPACK raised a raw ArpackError at NaN
    with pytest.raises(ValueError, match="alpha must lie in"):
        lambda_min_alpha(KExtProblem.for_werner(d=2, gamma=0.2, backend=backend), alpha)


def test_threshold_tolerance_validation():
    for tol_alpha in (1e-12, 0.0, 1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            fidelity_threshold(KExtProblem.for_werner(d=2, gamma=-0.5), tol_alpha=tol_alpha)


@pytest.mark.parametrize(
    "backend, kind", [("dense", blocks.BlockProbe), ("iterative", ProbeAssembly), ("schur_weyl", blocks.BlockProbe)]
)
def test_every_backend_is_one_probe_object(backend, kind, probe_log):
    problem = KExtProblem.for_werner(d=2, gamma=-0.5, k=2, backend=backend)
    assert type(problem.probe()) is kind
    result = fidelity_threshold(problem)
    full = set(probe_log.full)
    # iterative holds no explicit pieces, so its search starts from [0, 1]
    assert (problem.probe().pencil_tops() == []) == (backend == "iterative")
    assert (result.samples[0][0] == 0.0) == (backend == "iterative")
    # the pencil certifies dense and schur_weyl: that one sample bounds lambda_min from above
    certified = pencil_start(problem.probe(), DEFAULT_TOL_ALPHA)[1]
    assert (certified is None) == (backend == "iterative")
    # a warm-started ARPACK solve differs from a cold one within its tolerance; the block solves are exact
    tol = 1e-10 if backend == "iterative" else 0.0
    for alpha, value in result.samples:
        lam = problem.probe().lambda_min(alpha)[0]
        if (alpha, value) == certified:
            assert lam <= value + RAYLEIGH_ROUNDING and value < -TOL_EIG
        elif backend == "iterative" and alpha not in full:
            # a loose sample is the Rayleigh quotient of an unconverged vector: an upper bound that certifies alpha
            assert lam <= value + RAYLEIGH_ROUNDING and value < -TOL_EIG
        else:
            assert abs(value - lam) <= tol


def test_lambda_monotone_in_alpha():
    rng = np.random.default_rng(3)
    for prob in (
        KExtProblem.for_werner(d=2, gamma=0.4),
        KExtProblem(state=random_state(rng, 2, 2), k=1),
    ):
        probe = prob.probe()
        lams = [probe.lambda_min(a)[0] for a in np.linspace(0.0, 1.0, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))


def test_dense_probe_slope_is_a_supergradient(assert_supergradient):
    problem = KExtProblem(state=random_state(np.random.default_rng(7), 2, 2), k=1, backend="dense")
    solve = problem.probe().lambda_min
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
    # rename (S, X0, s, x0) to the parties of the side
    labels = ("A", "B", "a", "b") if side == "bob" else ("B", "A", "b", "a")
    named = HermitianOperator(SystemLayout(tuple(zip(labels, core.layout.dims))), core.entries)
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


@pytest.mark.parametrize("k", [1, 3])
def test_f1_strategy_supplied_extension_falls_back_to_alice(k):
    # the state annihilates |0> x anything on (A, B), so a supplied extension
    # whose spectator is |0> cannot serve Bob's side
    state = from_matrix(np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2.0), layout(("A", 2), ("B", 2)))
    zeros = np.zeros(2 ** (k + 1))
    zeros[0] = 1.0
    extension = from_matrix(np.outer(zeros, zeros), layout(("A", 2), *((f"E{i}", 2) for i in range(1, k + 1))))
    cj, side = construct_f1_strategy(state, k, kernel_extension=extension)
    assert side == "alice"
    assert evaluate_map_fidelity(cj, state) == pytest.approx(1.0, abs=1e-10)
    assert np.array_equal(cj.matrix, construct_f1_strategy(state, k)[0].matrix)


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
