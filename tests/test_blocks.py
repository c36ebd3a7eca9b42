import numpy as np
import pytest

from kextdistill.analytic import alpha_max_k1
from kextdistill.blocks import s3_block_lambda_min
from kextdistill import solver
from kextdistill.solver import TOL_EIG, KExtProblem, fidelity_threshold, lambda_min_alpha


def block_threshold(gamma, n, tol=1e-8):
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if s3_block_lambda_min(gamma, mid, n) < -1e-9:
            lo = mid
        else:
            hi = mid
    return lo


def test_block_minimum_vanishes_at_symmetric_boundary():
    assert s3_block_lambda_min(1.0, 1.0, 1) == pytest.approx(0.0, abs=1e-12)


def test_single_copy_thresholds_match_closed_form():
    for gamma in np.linspace(-1.0, 1.0, 21):
        got = block_threshold(float(gamma), 1)
        assert abs(got - alpha_max_k1(float(gamma))) < 1e-6


def test_block_sign_matches_dense_probe():
    rng = np.random.default_rng(4)
    for _ in range(25):
        gamma = float(rng.uniform(-0.95, 0.95))
        alpha = float(rng.uniform(0.0, 1.0))
        block = s3_block_lambda_min(gamma, alpha, 1)
        if abs(block) < 1e-8:
            continue  # at a crossing both solvers sit at numerical zero
        dense = lambda_min_alpha(KExtProblem.for_werner(d=2, gamma=gamma), alpha)
        assert np.sign(block) == np.sign(dense)


@pytest.mark.parametrize("d, n", [(3, 1), (4, 1), (2, 1), (2, 2)])
def test_block_lambda_is_the_dense_lambda_times_the_trace_scale(d, n):
    # the blocks take I + gamma V unnormalized, whose trace is d^2 + gamma d per copy
    for gamma in (-1.0, -0.5, 0.0, 0.3, 1.0):
        dense_solve = solver._lambda_min_solver(KExtProblem.for_werner(d, gamma=gamma, n=n, backend="dense"))
        for alpha in (0.3, 0.6, 0.95):
            dense = dense_solve(alpha)[0]
            block = s3_block_lambda_min(gamma, alpha, n) / (d * d + gamma * d) ** n
            assert (block < -TOL_EIG) == (dense < -TOL_EIG)
            if d > 2:
                assert abs(block - dense) < 1e-10
            else:
                # qubit triples have no antisymmetric part, but its blocks still enter the minimum
                assert block < dense + 1e-10


def test_two_copy_threshold_exceeds_single_copy():
    one = block_threshold(-0.5, 1)
    two = block_threshold(-0.5, 2)
    assert two > one + 1e-3
    dense_two = fidelity_threshold(KExtProblem.for_werner(d=2, gamma=-0.5, n=2, k=1)).alpha_star
    assert abs(two - dense_two) < 1e-6


def test_block_lambda_is_monotone_in_alpha():
    for gamma in (-0.7, 0.0, 0.4):
        values = [s3_block_lambda_min(gamma, a, 3) for a in np.linspace(0.0, 1.0, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_block_backend_through_problem_api():
    problem = KExtProblem.for_werner(d=3, gamma=-0.25, n=4, k=1, backend="s3_blocks")
    result = fidelity_threshold(problem)
    assert result.backend == "s3_blocks"
    assert result.alpha_star > block_threshold(-0.25, 3)
    assert result.certificate is None


def test_block_backend_has_no_explicit_probe():
    from kextdistill.solver import build_probe

    problem = KExtProblem.for_werner(d=2, gamma=0.2, backend="s3_blocks")
    with pytest.raises(ValueError):
        build_probe(problem, 0.5)
    with pytest.raises(ValueError):
        build_probe(KExtProblem.for_werner(d=2, gamma=0.2), 1.5)


def test_block_backend_requires_werner_and_k1():
    from kextdistill.linalg import layout
    from kextdistill.states import from_matrix, maximally_mixed

    with pytest.raises(ValueError):
        KExtProblem.for_werner(d=2, gamma=0.3, k=2, backend="s3_blocks")
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    full_rank = from_matrix(g @ g.conj().T, layout(("A", 2), ("B", 2)))
    for state in (full_rank, maximally_mixed(2, 3)):
        with pytest.raises(ValueError):
            KExtProblem(state=state, backend="s3_blocks")
    # the maximally mixed two-qubit state is the gamma = 0 Werner state
    square = fidelity_threshold(KExtProblem(state=maximally_mixed(2, 2), backend="s3_blocks"))
    assert abs(square.alpha_star - 0.75) < 1e-7


def test_block_backend_reads_gamma_from_the_state():
    from kextdistill.states import WernerParams, werner

    problem = KExtProblem(state=werner(WernerParams(d=3, p=0.3)), backend="s3_blocks")
    derived = fidelity_threshold(problem)
    declared = fidelity_threshold(KExtProblem.for_werner(d=3, p=0.3, backend="s3_blocks"))
    assert derived.alpha_star == declared.alpha_star
