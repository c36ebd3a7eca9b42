"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import time

import numpy as np

from kextdistill.analytic import (
    alpha_max_k1,
    maxmixed_bound,
    mnp_alpha_max,
    mnp_threshold_numeric,
)
from kextdistill.linalg import eig_min_dense, layout
from kextdistill.solver import (
    KExtProblem,
    ProbeAssembly,
    construct_f1_strategy,
    evaluate_map_fidelity,
    fidelity_threshold,
    lambda_min_alpha,
)
from kextdistill.states import (
    WernerParams,
    bell_state,
    from_matrix,
    gamma_from_p,
    maximally_mixed,
    projectors,
    werner,
)


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_analytic_k1_formula():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        for gamma in np.linspace(-0.95, 0.95, 21):
            result = fidelity_threshold(
                KExtProblem.for_werner(d=d, gamma=float(gamma), k=1, backend="dense"),
                tol_alpha=1e-8,
            )
            worst = max(worst, abs(result.alpha_star - alpha_max_k1(float(gamma))))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "analytic k=1 formula",
        worst < 1e-6 and elapsed < 30.0,
        f"max |dense - closed form| = {worst:.2e} over 42 points, {elapsed:.1f}s",
    )


def test_criterion_2_maximally_mixed_bound():
    worst = 0.0
    for k in (1, 2, 3):
        result = fidelity_threshold(KExtProblem(state=maximally_mixed(2, 2), k=k))
        worst = max(worst, abs(result.alpha_star - maxmixed_bound(k)))
    lam = lambda_min_alpha(KExtProblem(state=maximally_mixed(2, 2), k=1), 0.75)
    report(
        2,
        "maximally mixed bound",
        worst < 1e-6 and abs(lam) < 1e-9,
        f"max threshold error {worst:.2e}, lambda(3/4) = {lam:.2e}",
    )


def test_criterion_3_mnp_equals_general():
    worst = 0.0
    for d in (2, 3, 4):
        for p in np.linspace(0.0, 1.0, 11):
            state = werner(WernerParams(d=d, p=float(p)))
            numeric = mnp_threshold_numeric(state)
            closed = alpha_max_k1(gamma_from_p(float(p), d))
            worst = max(worst, abs(numeric - closed))
    report(
        3,
        "measure-and-prepare equals general one-extension",
        worst < 1e-6,
        f"max |numeric - closed form| = {worst:.2e} over 33 points",
    )


def test_criterion_4_unit_fidelity_constructions():
    failures = []

    pure = from_matrix(
        np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), layout(("A", 2), ("B", 2))
    )
    for k in (1, 2):
        cj, _ = construct_f1_strategy(pure, k)
        fid = evaluate_map_fidelity(cj, pure)
        if abs(fid - 1.0) > 1e-10:
            failures.append(f"product state k={k}: F={fid}")

    p_s, p_as = projectors(3)
    state_as = from_matrix(p_as.entries, p_as.layout)
    for k in (1, 2):
        cj, _ = construct_f1_strategy(state_as, k)
        fid = evaluate_map_fidelity(cj, state_as)
        if abs(fid - 1.0) > 1e-10:
            failures.append(f"antisymmetric k={k}: F={fid}")

    # the symmetric projector's kernel is the antisymmetric subspace, whose
    # one-extension is the three-party determinant state
    vec = np.zeros(27)
    for perm in itertools.permutations(range(3)):
        sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        vec[perm[0] * 9 + perm[1] * 3 + perm[2]] = sign
    vec /= np.linalg.norm(vec)
    det_extension = from_matrix(np.outer(vec, vec), layout(("A", 3), ("E1", 3), ("E2", 3)))
    state_s = from_matrix(p_s.entries, p_s.layout)
    for k in (1, 2):
        ext = None if k == 1 else det_extension
        cj, _ = construct_f1_strategy(state_s, k, kernel_extension=ext)
        fid = evaluate_map_fidelity(cj, state_s)
        if abs(fid - 1.0) > 1e-10:
            failures.append(f"symmetric k={k}: F={fid}")

    if construct_f1_strategy(werner(WernerParams(d=3, gamma=0.3)), 1) is not None:
        failures.append("full-rank Werner did not return not-found")
    if construct_f1_strategy(werner(WernerParams(d=2, gamma=-0.4)), 2) is not None:
        failures.append("full-rank Werner (k=2) did not return not-found")

    report(4, "unit-fidelity constructions", not failures, "; ".join(failures) or "all six cases at F=1")


def test_criterion_5_many_copy_distillability():
    gamma = -0.25
    thresholds = {}
    for n in (1, 2, 3, 4, 8):
        result = fidelity_threshold(
            KExtProblem.for_werner(d=2, gamma=gamma, n=n, k=1, backend="schur_weyl")
        )
        thresholds[n] = result.alpha_star
    ordered = [thresholds[n] for n in (1, 2, 3, 4, 8)]
    strictly_increasing = all(b > a for a, b in zip(ordered, ordered[1:]))
    dense_err = 0.0
    for n in (1, 2):
        dense = fidelity_threshold(KExtProblem.for_werner(d=2, gamma=gamma, n=n, k=1, backend="dense"))
        dense_err = max(dense_err, abs(dense.alpha_star - thresholds[n]))
    passed = strictly_increasing and thresholds[8] > 0.95 and dense_err < 1e-6
    report(
        5,
        "many-copy distillability",
        passed,
        f"thresholds {[round(v, 6) for v in ordered]}, n=8 -> {thresholds[8]:.4f}, "
        f"dense agreement {dense_err:.2e}",
    )


def test_criterion_6_symmetry_and_k_ordering():
    sym_err = 0.0
    for gamma in (0.2, 0.45, 0.7, 0.9):
        plus = fidelity_threshold(
            KExtProblem.for_werner(d=2, gamma=gamma), tol_alpha=1e-9
        ).alpha_star
        minus = fidelity_threshold(
            KExtProblem.for_werner(d=2, gamma=-gamma), tol_alpha=1e-9
        ).alpha_star
        sym_err = max(sym_err, abs(plus - minus))

    order_violation = 0.0
    for gamma in (-0.5, 0.3):
        values = [
            fidelity_threshold(
                KExtProblem.for_werner(d=2, gamma=gamma, k=k), tol_alpha=1e-7
            ).alpha_star
            for k in (1, 2, 3)
        ]
        order_violation = max(
            order_violation, max(b - a for a, b in zip(values, values[1:]))
        )
    passed = sym_err < 1e-8 and order_violation < 1e-6
    report(
        6,
        "symmetry and k-ordering",
        passed,
        f"max |F(g) - F(-g)| = {sym_err:.2e}, max k-ordering violation = {order_violation:.2e}",
    )


def test_criterion_7_property_suite():
    failures = []
    rng = np.random.default_rng(17)

    # lambda_min monotone in alpha
    prob = KExtProblem.for_werner(d=2, gamma=-0.6)
    probe = prob.probe()
    lams = [probe.lambda_min(a)[0] for a in np.linspace(0.0, 1.0, 9)]
    if not all(b >= a - 1e-12 for a, b in zip(lams, lams[1:])):
        failures.append("lambda_min not monotone in alpha")

    # symmetrized probes stay PSD at alpha = 1 (PSD preservation at the probe level)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    random_rho = from_matrix(g @ g.conj().T, layout(("A", 2), ("B", 2)))
    for state in (random_rho, werner(WernerParams(d=2, gamma=-0.9))):
        if eig_min_dense(ProbeAssembly(KExtProblem(state=state, k=1)).dense(1.0)) < -1e-10:
            failures.append("probe not PSD at alpha=1")

    # symmetrizer self-adjointness via trace pairing on probe pieces
    from kextdistill.linalg import HermitianOperator
    from kextdistill.solver import symmetrize

    lay = layout(("B0", 2), ("b0", 2), ("B1", 2), ("b1", 2))
    groups = [("B0", "b0"), ("B1", "b1")]
    for _ in range(3):
        ga = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        gb = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a = HermitianOperator(lay, ga + ga.conj().T)
        b = HermitianOperator(lay, gb + gb.conj().T)
        lhs = np.trace(symmetrize(a, groups).entries @ b.entries)
        rhs = np.trace(a.entries @ symmetrize(b, groups).entries)
        if abs(lhs - rhs) / max(1.0, abs(lhs)) > 1e-10:
            failures.append("symmetrizer not self-adjoint")

    # dimension independence of the single-copy curve
    r2 = fidelity_threshold(KExtProblem.for_werner(d=2, gamma=-0.35))
    r3 = fidelity_threshold(KExtProblem.for_werner(d=3, gamma=-0.35))
    if abs(r2.alpha_star - r3.alpha_star) > 1e-6:
        failures.append("thresholds depend on d at k=1")

    # Choi-action equivalence: direct overlap vs action formula
    from kextdistill.linalg import embed
    from kextdistill.solver import CJOperator

    lay_cj = layout(("A", 2), ("B", 2), ("a", 2), ("b", 2))
    phi = bell_state("phi_plus", 2).matrix
    cj = CJOperator(
        from_matrix(
            embed(lay_cj, {("A", "a"): phi, ("B", "b"): phi}).entries, lay_cj, normalized=False
        ).op
    )
    state = werner(WernerParams(d=2, gamma=0.3))
    direct = float(np.trace(state.matrix @ phi).real)
    if abs(evaluate_map_fidelity(cj, state) - direct) > 1e-12:
        failures.append("CJ action disagrees with direct overlap")

    # scope note: single-copy curves for k >= 5 and the largest multi-copy
    # grids exceed the desk-scale budget; the ordering and unit-fidelity
    # claims they illustrate are covered at k <= 3 by criteria 4 and 6.
    report(7, "property suite", not failures, "; ".join(failures) or "all properties hold")
