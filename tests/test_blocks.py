import functools
import itertools
import math
import os
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from kextdistill import blocks as blocks_mod
from kextdistill.analytic import alpha_max_k1, maxmixed_bound
from kextdistill.blocks import (
    SOLO_MIN_ROWS,
    BlockProbe,
    gl_step,
    largest_block,
    partitions,
    s3_block_lambda_min,
    specht_dim,
    unitary_dim,
    werner_blocks,
    werner_probe,
    young_orthogonal_form,
    young_transpositions,
)
from kextdistill import solver
from kextdistill.linalg import threshold_sup
from kextdistill.solver import TOL_EIG, KExtProblem, fidelity_threshold, lambda_min_alpha


@pytest.fixture
def block_threshold(reference_bisection):
    def threshold(gamma, n, d=2):
        return reference_bisection(lambda a: s3_block_lambda_min(gamma, a, n, d)[0] < -TOL_EIG, 1e-8)

    return threshold


def test_block_minimum_vanishes_at_symmetric_boundary():
    assert s3_block_lambda_min(1.0, 1.0, 1, 2)[0] == pytest.approx(0.0, abs=1e-12)


def test_single_copy_thresholds_match_closed_form(block_threshold):
    for gamma in np.linspace(-1.0, 1.0, 21):
        got = block_threshold(float(gamma), 1)
        assert abs(got - alpha_max_k1(float(gamma))) < 1e-6


def test_block_sign_matches_dense_probe():
    rng = np.random.default_rng(4)
    for _ in range(25):
        gamma = float(rng.uniform(-0.95, 0.95))
        alpha = float(rng.uniform(0.0, 1.0))
        block = s3_block_lambda_min(gamma, alpha, 1, 2)[0]
        if abs(block) < 1e-8:
            continue  # at a crossing both solvers sit at numerical zero
        dense = lambda_min_alpha(KExtProblem.for_werner(d=2, gamma=gamma, backend="dense"), alpha)
        assert np.sign(block) == np.sign(dense)


@pytest.mark.parametrize("d, n", [(3, 1), (4, 1), (2, 1), (2, 2)])
def test_block_lambda_is_the_dense_lambda_times_the_trace_scale(d, n):
    # the blocks take I + gamma V unnormalized, whose trace is d^2 + gamma d per copy
    for gamma in (-1.0, -0.5, 0.0, 0.3, 1.0):
        dense_solve = KExtProblem.for_werner(d, gamma=gamma, n=n, backend="dense").probe().lambda_min
        for alpha in (0.3, 0.6, 0.95):
            dense = dense_solve(alpha)[0]
            block = s3_block_lambda_min(gamma, alpha, n, d)[0] / (d * d + gamma * d) ** n
            assert abs(block - dense) < 1e-10


@pytest.mark.parametrize("d, n", [(2, 1), (2, 3), (2, 8), (3, 1), (3, 3), (3, 8)])
def test_block_slope_is_a_supergradient(d, n, assert_supergradient):
    for gamma in (-1.0, -0.4, 0.3, 1.0):
        assert_supergradient(lambda alpha: s3_block_lambda_min(gamma, alpha, n, d), np.linspace(0.0, 1.0, 4))


@pytest.mark.parametrize("n", [1, 8])
def test_block_threshold_takes_tangent_steps(n):
    for gamma in (-0.9, -0.4, 0.0, 0.5, 0.9):
        problem = KExtProblem.for_werner(d=3, gamma=gamma, n=n, backend="schur_weyl")
        assert len(fidelity_threshold(problem, tol_alpha=1e-6).samples) <= 10  # bisection takes 21


def test_two_copy_threshold_exceeds_single_copy(block_threshold):
    one = block_threshold(-0.5, 1)
    two = block_threshold(-0.5, 2)
    assert two > one + 1e-3
    dense_two = fidelity_threshold(KExtProblem.for_werner(d=2, gamma=-0.5, n=2, k=1, backend="dense")).alpha_star
    assert abs(two - dense_two) < 1e-6


def test_block_lambda_is_monotone_in_alpha():
    for gamma in (-0.7, 0.0, 0.4):
        values = [s3_block_lambda_min(gamma, a, 3, 2)[0] for a in np.linspace(0.0, 1.0, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_block_backend_through_problem_api(block_threshold):
    problem = KExtProblem.for_werner(d=3, gamma=-0.25, n=4, k=1, backend="schur_weyl")
    result = fidelity_threshold(problem)
    assert result.backend == "schur_weyl"
    assert result.alpha_star > block_threshold(-0.25, 3, d=3)
    assert result.certificate is None


def test_block_backend_has_no_explicit_probe():
    # the schur_weyl probe returns one block's eigenvector, no probe vector, so no certificate is kept
    problem = KExtProblem.for_werner(d=2, gamma=0.2, backend="schur_weyl")
    value, _, vector = problem.probe().lambda_min(0.5)
    assert len(vector) < problem.total_dim
    assert value == lambda_min_alpha(problem, 0.5)
    result = fidelity_threshold(problem)
    assert result.lambda_residual < -TOL_EIG and result.certificate is None
    with pytest.raises(ValueError):
        lambda_min_alpha(problem, 1.5)


def test_block_backend_reads_gamma_from_the_state():
    from kextdistill.states import WernerParams, werner

    problem = KExtProblem(state=werner(WernerParams(d=3, p=0.3)), backend="schur_weyl")
    derived = fidelity_threshold(problem)
    declared = fidelity_threshold(KExtProblem.for_werner(d=3, p=0.3, backend="schur_weyl"))
    assert derived.alpha_star == declared.alpha_star


@pytest.mark.parametrize("n", [4, 8])
def test_auto_threshold_at_many_copies_is_exact(n):
    # the blocks used to solve on the probe's scale, where TOL_EIG cut alpha* to 0.7284764 at n = 8
    result = fidelity_threshold(KExtProblem.for_werner(d=3, gamma=0.0, n=n, k=1), tol_alpha=1e-6)
    assert result.backend == "schur_weyl"
    assert abs(result.alpha_star - 0.75) <= 1e-6
    if n == 8:
        for gamma in (-0.7, -0.2, 0.4, 0.9):
            blocks = fidelity_threshold(KExtProblem.for_werner(d=3, gamma=gamma, n=8, k=1), tol_alpha=1e-6)
            reference = threshold_sup(lambda alpha: s3_block_lambda_min(gamma, alpha, 8, 3), 1e-6)
            # the pencil's bracket puts alpha* within tol_alpha above the Newton search from [0, 1]
            assert reference - 1e-14 <= blocks.alpha_star <= reference + 1e-6


# ---------------------------------------------------------------------------
# Schur-Weyl blocks at any n and k


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_young_orthogonal_form_is_a_representation(m):
    for shape in partitions(m, m):
        adjacent = young_orthogonal_form(shape)
        eye = np.eye(specht_dim(shape))
        for y in adjacent + young_transpositions(shape):
            # symmetric orthogonal involutions
            assert np.abs(y - y.T).max() < 1e-14
            assert np.abs(y @ y - eye).max() < 1e-14
        for i, a in enumerate(adjacent):
            for j, b in enumerate(adjacent):
                if j == i + 1:
                    assert np.abs(a @ b @ a - b @ a @ b).max() < 1e-14, (shape, i)
                elif j > i + 1:
                    assert np.abs(a @ b - b @ a).max() < 1e-14, (shape, i, j)
        # the one-row shape is the trivial representation, the one-column shape the sign
        if len(shape) == 1:
            assert all(y[0, 0] == 1.0 for y in adjacent)
        if shape[0] == 1:
            assert all(y[0, 0] == -1.0 for y in adjacent)


def whole_werner_blocks(gamma, d, n, k):
    """(mus, nu, const, term) of every unsplit Schur-Weyl block: the reference for the pieces of werner_blocks.

    R_i = (x)_c (I + gamma Y_mu_c(tau_i)) over every copy, term = sum_i R_i and
    const = -sum_i (I - Y_nu(tau_i)) / 2 (x) R_i, rows ordered (nu, copies).
    """
    m = k + 2
    shapes = [mu for mu in partitions(m, d) if 1 < len(mu) < m]
    for j in range(n + 1):
        for mus in itertools.combinations_with_replacement(shapes, j):
            pairs = [[np.eye(specht_dim(mu)) + gamma * y for y in young_transpositions(mu)] for mu in mus]
            terms = [functools.reduce(np.kron, [pair[i] for pair in pairs], np.ones((1, 1))) for i in range(k + 1)]
            for nu in partitions(m, 2):
                ys = young_transpositions(nu)
                const = -sum(np.kron(0.5 * (np.eye(len(y)) - y), r) for r, y in zip(terms, ys))
                yield mus, nu, const, sum(terms)


def piece_multiplicity(lams):
    """f^lambda over the copy groups of a piece: how often its spectrum repeats in its block."""
    return 1 if lams is None else math.prod(specht_dim(lam) for lam in lams)


def block_multiplicity(mus, nu, d, n):
    """Orderings of the copy labels times the U(d) and U(2) irrep dimensions."""
    orderings = math.factorial(n) // math.prod(math.factorial(c) for c in Counter(mus).values())
    return orderings * math.prod(unitary_dim(mu, d) for mu in mus) * unitary_dim(nu, 2)


def full_labels(mus, d, n, k):
    """(copy labels, a, b) for each multiset of one-dimensional labels that completes the multi-row mus.

    a copies carry (k + 2) and b copies (1^(k+2)), which multiplies the block by (1 + gamma)^a (1 - gamma)^b.
    """
    m, rest = k + 2, n - len(mus)
    for b in range(rest + 1 if d >= m else 1):
        yield mus + ((m,),) * (rest - b) + ((1,) * m,) * b, rest - b, b


@pytest.mark.parametrize("d, n, k", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2), (4, 1, 1)])
def test_block_spectra_are_the_probe_spectrum(d, n, k):
    # every block at every prefactor, repeated by its irrep dimensions: a missing or spurious block changes the union
    gamma = -0.35
    problem = KExtProblem.for_werner(d=d, gamma=gamma, n=n, k=k)
    scale = (d * d + gamma * d) ** n
    assembly = solver.ProbeAssembly(problem)
    for alpha in (0.25, 0.8):
        probe = np.linalg.eigvalsh(assembly.dense(alpha).entries)
        union = []
        for mus, lams, nu, const, term in werner_blocks(gamma, d, n, k):
            assert all(1 < len(mu) < k + 2 for mu in mus)
            linear = np.kron(np.eye(len(const) // len(term)), term)
            values = np.linalg.eigvalsh(const + alpha * linear) / scale
            for labels, a, b in full_labels(mus, d, n, k):
                pref = (1 + gamma) ** a * (1 - gamma) ** b
                union.extend(np.repeat(pref * values, block_multiplicity(labels, nu, d, n) * piece_multiplicity(lams)))
        assert len(union) == len(probe)
        assert np.abs(np.sort(union) - probe).max() < 1e-13


# (d, n, k): rows of the largest whole block, and of the largest block or piece werner_blocks yields
LARGEST = {
    (2, 3, 3): (625, 300),
    (3, 2, 3): (180, 150),
    (3, 3, 2): (81, 54),
    (4, 2, 2): (27, 27),  # no label repeats in a block of 26 rows or more
    (3, 1, 7): (8064, 8064),  # one copy: nothing to split
    (3, 8, 1): (512, 18),
    (3, 3, 3): (1080, 750),
    (3, 4, 3): (6480, 3000),
    (3, 8, 2): (19683, 900),
}


@pytest.mark.parametrize("d, n, k", list(LARGEST))
def test_block_dimensions_add_up_to_the_probe(d, n, k):
    m = k + 2
    sizes = {mu: specht_dim(mu) for mu in partitions(m, m)}
    total = 0
    for mus in itertools.combinations_with_replacement(partitions(m, d), n):
        for nu in partitions(m, 2):
            total += block_multiplicity(mus, nu, d, n) * math.prod(sizes[mu] for mu in mus) * sizes[nu]
    assert total == KExtProblem.for_werner(d=d, gamma=0.1, n=n, k=k).total_dim
    whole, piece = LARGEST[d, n, k]
    assert max(sizes[mu] for mu in partitions(m, d)) ** n * max(sizes[nu] for nu in partitions(m, 2)) == whole
    assert largest_block(d, n, k) == piece
    if whole <= 625:
        assert max(len(const) for *_, const, _ in werner_blocks(0.1, d, n, k)) == piece


def test_auto_takes_schur_weyl_where_the_largest_piece_fits():
    # the largest blocks at (4, 3) and (8, 2) pass the cap, their pieces do not
    for n, k in ((4, 3), (8, 2)):
        problem = KExtProblem.for_werner(d=3, gamma=0.5, n=n, k=k)
        assert problem.resolved_backend() == "schur_weyl"
        assert KExtProblem.for_werner(d=3, gamma=0.5, n=n, k=k, backend="schur_weyl").backend == "schur_weyl"


def jucys_murphy_basis(f, lam):
    """U_lam from the chain of gl_step isometries, U_lam = (U_parent (x) I_f) V, as an f^j-row array."""
    if sum(lam) == 1:
        return np.eye(f)
    return np.kron(jucys_murphy_basis(f, blocks_mod._without_last_box(lam)), np.eye(f)) @ gl_step(f, lam)


def row_reading_contents(lam):
    """Contents (column - row) of the entries 1..j of the row-reading tableau of lam."""
    return [c - r for r, row in enumerate(lam) for c in range(row)]


@pytest.mark.parametrize("f, j", [(2, 2), (2, 4), (2, 6), (3, 3), (3, 5), (4, 4)])
def test_jucys_murphy_basis_spans_one_copy_of_each_gl_irrep(f, j):
    # U is orthonormal, as wide as the hook-content dimension, and X_b U = c_b U for X_b = sum_{a<b} (a b)
    for lam in partitions(j, f):
        u = jucys_murphy_basis(f, lam)
        assert u.shape == (f**j, unitary_dim(lam, f))
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() < 1e-12
        tensor = u.reshape((f,) * j + (-1,))
        for b, content in enumerate(row_reading_contents(lam)):
            x_u = sum(np.swapaxes(tensor, a, b).reshape(u.shape) for a in range(b))
            assert np.abs(x_u - content * u).max() < 1e-11, (lam, b)
    # the copies of every irrep fill the tensor power: sum_lam f^lam dim_lam = f^j
    assert sum(specht_dim(lam) * unitary_dim(lam, f) for lam in partitions(j, f)) == f**j


@pytest.mark.parametrize("d, n, k", [(3, 8, 1), (3, 4, 1), (3, 3, 2), (2, 4, 2), (4, 3, 2)])
@pytest.mark.parametrize("gamma", [-1.0, -0.35, 0.5, 1.0])
def test_pieces_repeat_the_spectra_of_their_blocks(d, n, k, gamma):
    # each block's spectrum is the union of its pieces' spectra, each repeated f^lambda times; at gamma = +-1
    # the pieces left out are zero, so the block's spectrum is the union and that many zeros
    pieces = {}
    for alpha in (0.25, 0.8):
        for mus, lams, nu, const, term in werner_blocks(gamma, d, n, k):
            assert np.abs(term).max() > 1e-12, (mus, lams, nu)  # no zero piece is yielded
            linear = np.kron(np.eye(len(const) // len(term)), term)
            pieces.setdefault((mus, nu), []).append((lams, np.linalg.eigvalsh(const + alpha * linear)))
        split = 0
        for mus, nu, const, term in whole_werner_blocks(gamma, d, n, k):
            block = np.linalg.eigvalsh(const + alpha * np.kron(np.eye(len(const) // len(term)), term))
            found = pieces.pop((mus, nu))
            split += any(len(values) < len(block) for _, values in found)
            union = np.concatenate([np.repeat(values, piece_multiplicity(lams)) for lams, values in found])
            assert len(union) <= len(block) and (len(union) == len(block) or abs(gamma) == 1.0)
            union = np.sort(np.concatenate([union, np.zeros(len(block) - len(union))]))
            assert np.abs(union - block).max() <= 1e-12 * np.abs(block).max(), (mus, nu)
        assert not pieces and split > 0


def direct_werner_blocks(gamma, d, n, k):
    """(mus, lams, nu, const, term) of every block and piece, in werner_blocks' order, from its products at gamma.

    The reference for the blocks made from polynomials in gamma.  A piece's R_i
    is the Kronecker product, over the distinct labels mu, of
    U_lam^T A_i^(x j) U_lam, with A_i = I + gamma Y_mu(tau_i) and U_lam from
    the gl_step chain; lam runs over the partitions of the label's j copies
    with at most rank(A_i) rows.  Blocks of SOLO_MIN_ROWS rows or more where a
    label repeats are split.
    """
    m = k + 2
    shapes = [mu for mu in partitions(m, d) if 1 < len(mu) < m]
    for j in range(n + 1):
        for mus in itertools.combinations_with_replacement(shapes, j):
            labels = list(dict.fromkeys(mus))
            pairs = {mu: [np.eye(specht_dim(mu)) + gamma * y for y in young_transpositions(mu)] for mu in labels}
            ranks = [int(np.linalg.matrix_rank(pairs[mu][0])) for mu in labels]
            for nu in partitions(m, 2):
                ys = young_transpositions(nu)
                if len(labels) < len(mus) and math.prod(specht_dim(mu) for mu in mus) * len(ys[0]) >= SOLO_MIN_ROWS:
                    choices = itertools.product(*(partitions(mus.count(mu), r) for mu, r in zip(labels, ranks)))
                else:
                    choices = [None]
                for lams in choices:
                    terms = []
                    for i in range(k + 1):
                        if lams is None:
                            factors = [pairs[mu][i] for mu in mus]
                        else:
                            bases = [jucys_murphy_basis(specht_dim(mu), lam) for mu, lam in zip(labels, lams)]
                            powers = [functools.reduce(np.kron, [pairs[mu][i]] * mus.count(mu)) for mu in labels]
                            factors = [u.T @ power @ u for u, power in zip(bases, powers)]
                        terms.append(functools.reduce(np.kron, factors, np.ones((1, 1))))
                    const = -sum(np.kron(0.5 * (np.eye(len(y)) - y), r) for r, y in zip(terms, ys))
                    yield mus, lams, nu, const, sum(terms)


@pytest.mark.parametrize(
    "d, n, k",
    [(2, n, k) for n in (1, 2, 3) for k in (1, 2, 3)] + [(3, n, k) for n in (1, 2, 3, 4) for k in (1, 2)] + [(3, 8, 1)],
)
def test_werner_polynomial_blocks_equal_the_direct_build(d, n, k):
    # the stacked blocks are evaluated from coefficients in gamma and the solos built at gamma: both must be the
    # products at gamma, with the same keys in the same order and the same pieces left out at gamma = +-1
    for gamma in (-1.0, -0.6, 0.0, 0.35, 1.0):
        got, reference = list(werner_blocks(gamma, d, n, k)), list(direct_werner_blocks(gamma, d, n, k))
        assert [block[:3] for block in got] == [block[:3] for block in reference]
        for (mus, lams, nu, const, term), (*_, ref_const, ref_term) in zip(got, reference):
            assert const.shape == ref_const.shape and term.shape == ref_term.shape
            scale = max(np.abs(ref_const).max(), np.abs(ref_term).max())
            assert np.abs(const - ref_const).max() <= 1e-13 * scale, (gamma, mus, lams, nu)
            assert np.abs(term - ref_term).max() <= 1e-13 * scale, (gamma, mus, lams, nu)


def test_werner_polynomial_is_made_once_per_shape(monkeypatch):
    made = []
    init = blocks_mod.WernerPolynomial.__init__

    def counted(polynomial, d, n, k):
        made.append((d, n, k))
        init(polynomial, d, n, k)

    monkeypatch.setattr(blocks_mod.WernerPolynomial, "__init__", counted)
    blocks_mod.werner_polynomial.cache_clear()
    for gamma in np.linspace(-1.0, 1.0, 17):
        fidelity_threshold(KExtProblem.for_werner(d=3, gamma=float(gamma), n=8, k=1))
    assert made == [(3, 8, 1)] and blocks_mod.werner_polynomial.cache_info().currsize == 1
    werner_probe(0.35, 3, 2, 1)
    assert made == [(3, 8, 1), (3, 2, 1)] and blocks_mod.werner_polynomial.cache_info().currsize == 2


def test_werner_polynomial_holds_only_the_small_blocks():
    # the solos' coefficients would take 6.5 GiB at (3, 8, 2); the stacked blocks' take 20.2 MiB
    polynomial = blocks_mod.werner_polynomial(3, 8, 2)
    assert polynomial.solos and polynomial.coeffs.nbytes <= 25 * 2**20


def test_import_makes_no_werner_polynomial():
    # nothing is built before the first Werner probe, so the set-up time of an import cannot grow
    src = Path(__file__).resolve().parents[1] / "src"
    code = "from kextdistill import blocks; print(blocks.werner_polynomial.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("d, n, k", [(2, 1, 3), (3, 2, 2), (3, 1, 4), (3, 8, 1)])
def test_schur_weyl_slope_is_a_supergradient(d, n, k, assert_supergradient):
    for gamma in (-1.0, -0.4, 0.5):
        solve = KExtProblem.for_werner(d=d, gamma=gamma, n=n, k=k, backend="schur_weyl").probe().lambda_min
        assert_supergradient(lambda alpha: solve(alpha)[:2], np.linspace(0.0, 1.0, 6))


@pytest.mark.parametrize(
    "d, n, k, gamma, alphas",
    [
        (3, 1, 2, -0.35, (0.7, 0.9)),  # stacked winners
        (3, 1, 2, 0.4, (0.2, 0.5)),
        (3, 8, 1, -0.35, (0.7, 0.8)),  # solo winners
        (3, 8, 1, 0.4, (0.7, 0.8)),
        (3, 1, 4, -0.35, (0.3, 0.5)),
        (3, 1, 4, 0.4, (0.7, 0.9)),
    ],
)
def test_werner_slope_matches_the_lowest_reference_block(d, n, k, gamma, alphas):
    # p v^dag L v of the lowest block rebuilt from werner_blocks' const and I_f (x) term, at every prefactor.
    # At (3, 1, 4) the lowest solo eigenvalue is 4- to 6-fold (an irrep of the extensions' S_5): there L
    # compressed to the lowest eigenspace must be a multiple of the identity, and that multiple is v^dag L v.
    probe = werner_probe(gamma, d, n, k)
    for alpha in alphas:
        value, slope, _ = probe.lambda_min(alpha)
        candidates = []
        for mus, nu, const, term in whole_werner_blocks(gamma, d, n, k):
            linear = np.kron(np.eye(len(const) // len(term)), term)
            vals, vecs = np.linalg.eigh(const + alpha * linear)
            for _, a, b in full_labels(mus, d, n, k):
                candidates.append(((1 + gamma) ** a * (1 - gamma) ** b, vals, vecs, linear))
        candidates.sort(key=lambda c: c[0] * c[1][0])
        (pref, vals, vecs, linear), runner_up = candidates[:2]
        lowest = vals <= vals[0] + 1e-9 * abs(vals[0])
        assert runner_up[0] * runner_up[1][0] - pref * vals[0] > 1e-4 * abs(value)
        assert (~lowest).any() and vals[~lowest][0] - vals[0] > 1e-4 * abs(vals[0])
        compressed = np.linalg.eigvalsh(vecs[:, lowest].T @ linear @ vecs[:, lowest])
        reference = pref * compressed.mean()
        assert np.ptp(compressed) <= 1e-12 * abs(compressed.mean())
        assert abs(value - pref * vals[0]) <= 1e-12 * abs(value)
        assert abs(slope - reference) <= 1e-12 * abs(reference), (alpha, slope, reference)


@pytest.mark.parametrize("d, n, k", [(3, 8, 1), (3, 2, 3)])
def test_werner_slope_takes_one_product_per_sample(d, n, k, monkeypatch):
    # the slope's gemm runs once, on the final lowest solo block, not each time a solo lowers the minimum
    get_blas_funcs, products = scipy.linalg.blas.get_blas_funcs, []

    def spied(names, arrays=(), *args, **kwargs):
        func = get_blas_funcs(names, arrays, *args, **kwargs)
        if names != "gemm":
            return func

        def counted(*a, **kw):
            products.append(1)
            return func(*a, **kw)

        return counted

    monkeypatch.setattr(scipy.linalg.blas, "get_blas_funcs", spied)
    probe = werner_probe(0.4, d, n, k)
    counts = []
    for alpha in np.linspace(0.0, 1.0, 11):
        products.clear()
        probe.lambda_min(float(alpha))
        counts.append(len(products))
    # at (3, 8, 1) every piece has at most 18 rows and is stacked, so no sample runs the solo gemm
    assert bool(probe.solos) == ((d, n, k) == (3, 2, 3))
    assert max(counts) == (1 if probe.solos else 0), counts


@pytest.mark.parametrize("side", ["bob", "alice"])
def test_schur_weyl_threshold_matches_the_probe(side):
    for d, gamma, n, k in ((2, -0.5, 1, 2), (2, 0.3, 2, 1), (3, -1.0, 1, 1), (3, 0.6, 1, 1)):
        blocks = fidelity_threshold(KExtProblem.for_werner(d=d, gamma=gamma, n=n, k=k, side=side))
        dense = fidelity_threshold(KExtProblem.for_werner(d=d, gamma=gamma, n=n, k=k, side=side, backend="dense"))
        assert blocks.backend == "schur_weyl" and blocks.certificate is None
        assert abs(blocks.alpha_star - dense.alpha_star) <= 1e-8
        assert blocks.lambda_residual < -TOL_EIG


def test_schur_weyl_builds_its_blocks_once_when_the_solver_is_made(monkeypatch):
    # counted at the evaluation of one gamma's blocks: the polynomial's coefficients are made once per (d, n, k)
    built = []
    real = blocks_mod.WernerPolynomial.blocks

    def counted(polynomial, gamma):
        built.append((polynomial, gamma))
        return real(polynomial, gamma)

    monkeypatch.setattr(blocks_mod.WernerPolynomial, "blocks", counted)
    problem = KExtProblem.for_werner(d=3, gamma=-0.5, k=3, backend="schur_weyl")
    assert problem.resolved_backend() == "schur_weyl"
    assert built == []
    solve = problem.probe().lambda_min
    assert built == [(blocks_mod.werner_polynomial(3, 1, 3), -0.5)]
    values = [solve(alpha)[0] for alpha in (0.3, 0.9)]
    assert len(built) == 1 and values[0] < values[1]


def test_block_backend_requires_werner_and_k1():
    from kextdistill.linalg import layout
    from kextdistill.states import from_matrix, maximally_mixed

    # one Werner block backend: the k = 1 one is gone, schur_weyl takes every k
    with pytest.raises(ValueError, match="backend must be one of"):
        KExtProblem.for_werner(d=2, gamma=0.3, k=2, backend="s3_blocks")
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    full_rank = from_matrix(g @ g.conj().T, layout(("A", 2), ("B", 2)))
    for state in (full_rank, maximally_mixed(2, 3)):
        with pytest.raises(ValueError):
            KExtProblem(state=state, backend="schur_weyl")
    # the maximally mixed two-qubit state is the gamma = 0 Werner state
    square = fidelity_threshold(KExtProblem(state=maximally_mixed(2, 2), backend="schur_weyl"))
    assert abs(square.alpha_star - 0.75) < 1e-7


def test_schur_weyl_requires_a_werner_state_and_the_block_cap():
    from kextdistill.linalg import layout
    from kextdistill.states import from_matrix, maximally_mixed

    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for state in (from_matrix(g @ g.conj().T, layout(("A", 2), ("B", 2))), maximally_mixed(2, 3)):
        with pytest.raises(ValueError):
            KExtProblem(state=state, backend="schur_weyl")
    # d = 3, k = 7 has a block of 8064 rows; auto keeps the dimension rule there
    with pytest.raises(ValueError, match="8064"):
        KExtProblem.for_werner(d=3, gamma=0.5, k=7, backend="schur_weyl")
    assert KExtProblem.for_werner(d=3, gamma=0.5, k=7).resolved_backend() == "iterative"


def newton_from_unit_interval(problem, tol_alpha):
    solve = problem.probe().lambda_min
    return threshold_sup(lambda alpha: solve(alpha)[:2], tol_alpha)


@pytest.mark.parametrize("gamma", [-1.0, -0.975, -0.5, 0.0, 0.5, 0.975, 1.0])
def test_schur_weyl_pencil_threshold_is_certified_and_within_tol_of_newton(gamma):
    # kappa(L) is about 79^8 at gamma = 0.975; at gamma = +-1 L is singular and the search runs on [0, 1]
    tol_alpha = solver.DEFAULT_TOL_ALPHA
    problem = KExtProblem.for_werner(d=3, gamma=gamma, n=8, k=1)
    result = fidelity_threshold(problem, tol_alpha)
    newton = newton_from_unit_interval(problem, tol_alpha)
    assert result.backend == "schur_weyl"
    assert newton <= result.alpha_star <= newton + tol_alpha
    assert lambda_min_alpha(problem, result.alpha_star) < -TOL_EIG
    assert lambda_min_alpha(problem, min(1.0, result.alpha_star + tol_alpha)) >= -TOL_EIG


def test_schur_weyl_solo_blocks_keep_only_the_term_sum():
    # d = 3, k = 4: blocks of 30 to 144 rows with dim nu = 5, 9 and 5, solved from I_f (x) term_sum
    probe = werner_probe(-0.35, 3, 1, 4)
    solos = probe.solos
    assert solos and all(len(const) > len(term) for const, term, *_ in solos)
    # the solos of one copy multiset share one term array
    multisets = [mus for mus, _, _, const, _ in werner_blocks(-0.35, 3, 1, 4) if len(const) >= SOLO_MIN_ROWS]
    assert len(multisets) == len(solos) and len(set(multisets)) < len(solos)
    for (mus_a, (_, term_a, *_)), (mus_b, (_, term_b, *_)) in itertools.combinations(zip(multisets, solos), 2):
        assert (term_a is term_b) == (mus_a == mus_b)
    for alpha in (0.3, 0.8):
        best = math.inf
        for mus, _, nu, const, term in werner_blocks(-0.35, 3, 1, 4):
            # d < k + 2: the one copy with a one-dimensional label carries (k + 2), a factor 1 + gamma
            pref = 1.0 if mus else 0.65
            linear = np.kron(np.eye(len(const) // len(term)), term)
            best = min(best, pref * np.linalg.eigvalsh(const + alpha * linear)[0])
        assert abs(probe.lambda_min(alpha)[0] - best) < 1e-12


def test_pencil_top_solves_the_whole_spectrum_where_the_top_is_degenerate(monkeypatch):
    # at d = 3, k = 5, gamma = 0 a reduced block has two eigenvalues of high multiplicity, and
    # LAPACK's index-range solver returns no top eigenpair for it
    whole_spectrum = []
    eigh = scipy.linalg.eigh

    def spy(*args, **kwargs):
        whole_spectrum.append("subset_by_index" not in kwargs)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    problem = KExtProblem.for_werner(d=3, gamma=0.0, n=1, k=5)
    tol_alpha = solver.DEFAULT_TOL_ALPHA
    result = fidelity_threshold(problem, tol_alpha)
    assert result.backend == "schur_weyl" and any(whole_spectrum)
    assert abs(result.alpha_star - maxmixed_bound(5)) <= tol_alpha
    assert lambda_min_alpha(problem, result.alpha_star) < -TOL_EIG


def test_dense_pencil_bracket_is_closed_by_newton_steps():
    # a rank-5 state on 2 x 3 at k = 1: g is small, so the bracket is wider than tol_alpha
    from kextdistill.linalg import layout
    from kextdistill.states import from_matrix

    rng = np.random.default_rng(1109)
    g = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    problem = KExtProblem(state=from_matrix(g @ g.conj().T, layout(("A", 2), ("B", 3))), k=1)
    tol_alpha = solver.DEFAULT_TOL_ALPHA
    result = fidelity_threshold(problem, tol_alpha)
    newton = newton_from_unit_interval(problem, tol_alpha)
    assert result.backend == "dense" and result.samples[0][0] > 0.0  # no restart on [0, 1]
    assert newton <= result.alpha_star <= newton + tol_alpha
    assert lambda_min_alpha(problem, result.alpha_star) < -TOL_EIG
    assert lambda_min_alpha(problem, min(1.0, result.alpha_star + tol_alpha)) >= -TOL_EIG


def random_block(rng, rows, copies, low, high, complex_=False):
    """(const, term, low, high): const Hermitian with eigenvalues of either sign, term positive definite."""
    t = rows // copies

    def sample(size):
        g = rng.standard_normal((size, size))
        return g + 1j * rng.standard_normal((size, size)) if complex_ else g

    g = sample(rows)
    h = sample(t)
    term = h @ h.conj().T / t + 0.5 * np.eye(t)
    return (g + g.conj().T) / math.sqrt(8 * rows), term, low, high


def arbitrary_blocks():
    # (rows, f, low, high): the second block of each stacked size wins at alpha = 0 on its high
    # prefactor, and would lose on its low one
    rng = np.random.default_rng(19)
    real = [(4, 1, 1.0, 1.1), (4, 2, 0.2, 3.0), (12, 3, 0.9, 1.0), (12, 2, 0.3, 2.5)]
    real += [(30, 3, 0.5, 1.2), (30, 2, 0.7, 1.0), (45, 3, 0.4, 1.3), (45, 1, 0.8, 1.1)]
    blocks = [random_block(rng, *shape) for shape in real]
    return blocks + [random_block(rng, *shape, complex_=True) for shape in ((12, 2, 0.6, 1.2), (40, 2, 0.3, 1.0))]


@pytest.mark.parametrize("chosen", [[i] for i in range(10)] + [list(range(10))])
def test_block_probe_solves_arbitrary_block_lists(chosen):
    # every block alone, so each path wins once (stacked, real solo, small and large complex solo), then all ten
    every = arbitrary_blocks()
    blocks = [every[i] for i in chosen]
    probe = BlockProbe(blocks)
    stacked = [b for b in blocks if len(b[0]) < SOLO_MIN_ROWS and not np.iscomplexobj(b[0])]
    assert sum(len(stack[0]) for stack in probe.stacks) == len(stacked)
    assert len(probe.solos) == len(blocks) - len(stacked)
    linears = [np.kron(np.eye(len(const) // len(term)), term) for const, term, *_ in blocks]
    for alpha in (0.0, 1.0, 3.0, 6.0):
        candidates = []
        for (const, term, low, high), linear in zip(blocks, linears):
            vals, vecs = np.linalg.eigh(const + alpha * linear)
            pref = high if vals[0] < 0.0 else low
            candidates.append((pref * vals[0], pref * np.vdot(vecs[:, 0], linear @ vecs[:, 0]).real))
        value, slope, _ = probe.lambda_min(alpha)
        ref_value, ref_slope = min(candidates)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert abs(slope - ref_slope) <= 1e-12 * abs(ref_slope)
    reference = []
    for (const, term, low, high), linear in zip(blocks, linears):
        vals, vecs = scipy.linalg.eigh(-const, linear)
        reference.append((vals[-1], high / np.vdot(vecs[:, -1], vecs[:, -1]).real))
    for (r, g), (ref_r, ref_g) in zip(sorted(probe.pencil_tops()), sorted(reference)):
        assert abs(r - ref_r) <= 1e-12 * abs(ref_r) and abs(g - ref_g) <= 1e-12 * abs(ref_g)


def test_small_complex_dense_probe_is_solved_as_a_complex_solo():
    # a complex 2 x 1 state at k = 1 gives a 16-row probe: stacked, its imaginary part would be dropped
    from kextdistill.linalg import layout
    from kextdistill.states import from_matrix

    rng = np.random.default_rng(3)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    complex_state = from_matrix(g @ g.conj().T, layout(("A", 2), ("B", 1)))
    g = np.random.default_rng(3).standard_normal((2, 2))
    real_state = from_matrix(g @ g.T, layout(("A", 2), ("B", 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        complex_result = fidelity_threshold(KExtProblem(state=complex_state, k=1, backend="dense"))
        real_result = fidelity_threshold(KExtProblem(state=real_state, k=1, backend="dense"))
    for state, stacks in ((complex_state, 0), (real_state, 1)):
        const, linear = solver.ProbeAssembly(KExtProblem(state=state, k=1)).dense_pieces()
        assert len(const) == 16 and len(BlockProbe([(const, linear, 1.0, 1.0)]).stacks) == stacks
    # the dense probe's blocks are complex too, so solos; from the pair x spin blocks' bracket, where one dense
    # block gave 0.749999993318122
    assert not KExtProblem(state=complex_state, k=1, backend="dense").probe().stacks
    assert complex_result.alpha_star == 0.7499999969422549
    assert abs(real_result.alpha_star - 0.7499999969999673) <= 1e-12



# ---------------------------------------------------------------------------
# the dense backend's blocks: extension-pair permutations x the output qubits' SU(2)


def random_state_of(rows, rank, dims, seed, real=False, eps=0.0):
    """A random state on dims of this rank, mixed with eps I; real entries if real."""
    from kextdistill.linalg import layout
    from kextdistill.states import from_matrix

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((rows, rank)) + (0.0 if real else 1j * rng.standard_normal((rows, rank)))
    rho = g @ g.conj().T
    rho = (1.0 - eps) * rho / np.trace(rho).real + eps * np.eye(rows) / rows
    return from_matrix(0.5 * (rho + rho.conj().T), layout(("A", dims[0]), ("B", dims[1])))


def reference_2x3(rank, eps=0.0):
    """perfbench's complex reference state of this rank on 2 x 3 (drawn from seed [1109, rank]), mixed with eps I/6."""
    return random_state_of(6, rank, (2, 3), [1109, rank], eps=eps)


# (state, n, k, side): real and complex states, both sides, n = 1 and 2, k = 1 to 3 wherever
# ProbeAssembly.dense fits, and rank-deficient states
PAIR_SPIN_CASES = {
    "complex-k1-bob": (reference_2x3(6), 1, 1, "bob"),
    "complex-k2-bob": (reference_2x3(6), 1, 2, "bob"),
    "complex-k2-alice": (reference_2x3(6), 1, 2, "alice"),
    "complex-k3-alice": (reference_2x3(6), 1, 3, "alice"),
    "rank3-k2-bob": (reference_2x3(3), 1, 2, "bob"),
    "rank1-k3-bob": (random_state_of(4, 1, (2, 2), 5), 1, 3, "bob"),
    "real-k1-bob": (random_state_of(4, 4, (2, 2), 26, real=True), 1, 1, "bob"),
    "real-k3-alice": (random_state_of(6, 6, (2, 3), 26, real=True), 1, 3, "alice"),
    "real-n2-k1-alice": (random_state_of(4, 4, (2, 2), 27, real=True), 2, 1, "alice"),
    "complex-n2-k1-bob": (random_state_of(4, 3, (2, 2), 28), 2, 1, "bob"),
}


@pytest.mark.parametrize("case", PAIR_SPIN_CASES)
def test_pair_spin_blocks_repeat_to_the_probe_spectrum(case):
    # each block's eigenvalues repeated f^lambda (2J + 1) times are the whole spectrum of the reference probe
    state, n, k, side = PAIR_SPIN_CASES[case]
    problem = KExtProblem(state=state, n=n, k=k, side=side, backend="dense")
    assembly = solver.ProbeAssembly(problem)
    d_s, d_x = problem.fused_dims
    built = list(blocks_mod.pair_spin_blocks(assembly.rho_fused, d_s, d_x, k))
    assert {(two_j, lam) for two_j, lam, *_ in built} <= {
        (nu[0] - sum(nu[1:]), lam) for nu in partitions(k + 2, 2) for lam in partitions(k + 1, k + 1)
    }
    assert all(np.iscomplexobj(const) == (not assembly.is_real) for *_, const, _ in built)
    assert [(two_j, lam, len(const) // d_s) for two_j, lam, const, _ in built] == list(
        blocks_mod.pair_spin_multiplicities(d_x, k)
    )
    probe = problem.probe()
    tol = 1e-12 * assembly.norm_bound
    for alpha in (0.5, 0.95, 1.0):
        spectrum = np.sort(np.concatenate([
            np.repeat(np.linalg.eigvalsh(const + alpha * term), specht_dim(lam) * (two_j + 1))
            for two_j, lam, const, term in built
        ]))
        reference = np.linalg.eigvalsh(assembly.dense(alpha).entries)
        assert len(spectrum) == len(reference) and np.abs(spectrum - reference).max() <= tol, alpha
        lam, slope, v = probe.lambda_min(alpha)
        assert abs(lam - reference[0]) <= tol
        # the lifted vector is a unit eigenvector of the probe, in ProbeAssembly's layout
        pv = assembly.handle(alpha).apply(v)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12 and np.linalg.norm(pv - lam * v) <= 1e-10


@pytest.mark.parametrize("d, k", [(3, 1), (2, 2), (3, 3), (2, 4), (4, 1), (1, 3)])
def test_pair_spin_multiplicities_count_the_blocks_from_dimensions_alone(d, k):
    # the character count of each (J, lambda) multiplicity against the Jucys-Murphy bases themselves
    sectors = blocks_mod.pair_spin_sectors(d, k)
    rows = {two_j: blocks_mod.spin_basis(k, two_j).shape[1] * d ** (k + 1) for two_j, *_ in sectors}
    assert sum(specht_dim(lam) * basis.shape[1] for _, lam, basis, *_ in sectors) == sum(rows.values())
    counted = [(two_j, lam, basis.shape[1]) for two_j, lam, basis, *_ in sectors]
    assert list(blocks_mod.pair_spin_multiplicities(d, k)) == counted
    for _, _, basis, *_ in sectors:
        assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_characters_are_the_traces_of_young_orthogonal_form(m):
    # the Murnaghan-Nakayama characters against the irrep's matrices: a cycle (a .. b) is s_a s_a+1 ... s_b-1
    for shape in partitions(m, m):
        adjacent = young_orthogonal_form(shape)
        for cycles in partitions(m, m):
            product, start = np.eye(specht_dim(shape)), 0
            for length in cycles:
                for j in range(start, start + length - 1):
                    product = product @ adjacent[j]
                start += length
            assert blocks_mod._character(shape, cycles) == round(np.trace(product)), (shape, cycles)


@pytest.mark.parametrize("case", ["complex-k2-bob", "complex-k3-alice", "real-k3-alice", "complex-n2-k1-bob"])
def test_pair_spin_bytes_bounds_the_traced_peak_of_a_fresh_threshold(case):
    # the estimate against every numpy and Python allocation of a build from empty caches and one threshold, on
    # problems whose arrays outweigh the interpreter's own allocations (peaks of 0.3-0.7 MiB)
    import tracemalloc

    state, n, k, side = PAIR_SPIN_CASES[case]
    problem = KExtProblem(state=state, n=n, k=k, side=side)
    blocks_mod.pair_spin_sectors.cache_clear()
    blocks_mod.spin_basis.cache_clear()
    tracemalloc.start()
    try:
        assert fidelity_threshold(problem).backend == "dense"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= problem.dense_bytes() <= 3 * peak + 2**20


def test_backend_resolution_past_the_dense_budget_needs_no_character_sum():
    # a 2 x 2 state at k = 10 (dim 1.7e7): building its J = 1 bases alone, 5 float64 arrays of 297 * 2^11 rows
    # squared, is past the budget
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    from kextdistill.linalg import layout
    from kextdistill.states import from_matrix

    problem = KExtProblem(state=from_matrix(rho, layout(("A", 2), ("B", 2))), k=10)
    start = time.perf_counter()
    assert problem.resolved_backend() == "iterative"
    assert problem.dense_bytes() == 5 * 8 * (297 * 2**11) ** 2
    assert time.perf_counter() - start <= 0.5
    with pytest.raises(ValueError, match="dense limited"):
        KExtProblem(state=problem.state, k=10, backend="dense")


@pytest.mark.parametrize("case", ["complex-k2-bob", "rank1-k3-bob", "real-n2-k1-alice"])
def test_dense_certificate_is_a_lifted_probe_vector(case):
    # v^dag P(alpha*) v = lambda_residual through the matrix-free handle, for a unit v in ProbeAssembly's layout
    state, n, k, side = PAIR_SPIN_CASES[case]
    problem = KExtProblem(state=state, n=n, k=k, side=side)
    result = fidelity_threshold(problem)
    assert result.backend == "dense" and result.alpha_star > 0.0
    v = result.certificate
    pv = solver.ProbeAssembly(problem).handle(result.alpha_star).apply(v)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert abs(np.vdot(v, pv).real - result.lambda_residual) <= 1e-12 and result.lambda_residual < -TOL_EIG


def test_near_singular_state_past_the_old_dense_cap_is_solved_on_blocks():
    # the rank-3 reference state mixed with 1e-4 I/6 at k = 3, bob (5184 dimensions): ARPACK needed 57.1 s at
    # 1e-3 I/6 and gave no result in about 8 minutes at 1e-4; on the blocks it takes well under a second
    problem = KExtProblem(state=reference_2x3(3, eps=1e-4), k=3)
    start = time.perf_counter()
    result = fidelity_threshold(problem)
    assert time.perf_counter() - start <= 10.0
    assert result.backend == "dense" and 0.0 < result.alpha_star < 1.0
    v = result.certificate
    quotient = np.vdot(v, solver.ProbeAssembly(problem).handle(result.alpha_star).apply(v)).real
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12 and quotient < -TOL_EIG
