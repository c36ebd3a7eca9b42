"""Cross-validation suite: closed forms vs dense solvers vs block fast paths.

Every check returns its measured residual so regressions show up as numbers,
not just flags.  The suite is what `kext validate` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import solver
from . import analytic as wa
from .blocks import s3_block_lambda_min, werner_probe
from .linalg import eig_min_dense, eig_min_dense_vec, embed, layout, threshold_sup
from .solver import KExtProblem, cj_of_mnp, fidelity_threshold, symmetrize
from .states import DensityOperator, from_matrix, gamma_from_p, maximally_mixed, p_from_gamma, werner, WernerParams


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "details": self.details,
        }


def _result(name: str, residual: float, tol: float, **details) -> CheckResult:
    return CheckResult(name=name, passed=residual <= tol, residual=float(residual), tolerance=tol, details=details)


def _random_state(rng: np.random.Generator, d_a: int, d_b: int) -> DensityOperator:
    dim = d_a * d_b
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return from_matrix(rho, layout(("A", d_a), ("B", d_b)))


def check_param_roundtrip() -> CheckResult:
    worst = 0.0
    for d in (2, 3, 4):
        for p in np.linspace(0.0, 1.0, 50):
            worst = max(worst, abs(p_from_gamma(gamma_from_p(p, d), d) - p))
    return _result("param_roundtrip", worst, 1e-12)


def check_alpha1_symmetry() -> CheckResult:
    grid = np.linspace(0.0, 1.0, 51)
    worst = max(abs(wa.alpha_max_k1(g) - wa.alpha_max_k1(-g)) for g in grid)
    return _result("alpha1_symmetry", worst, 1e-15)


def check_alpha1_quadratic_root() -> CheckResult:
    grid = np.linspace(-1.0, 1.0, 101)
    worst = max(abs(wa.k1_quadratic_residual(g, wa.alpha_max_k1(g))) for g in grid)
    return _result("alpha1_quadratic_root", worst, 1e-12)


def check_consistency_chain_mnp() -> CheckResult:
    worst = 0.0
    for d in (2, 3, 4):
        for p in np.linspace(0.0, 1.0, 21):
            worst = max(worst, abs(wa.mnp_alpha_max(p, d) - wa.alpha_max_k1(gamma_from_p(p, d))))
    return _result("consistency_chain_mnp", worst, 1e-10)


def check_dense_vs_alpha1() -> CheckResult:
    points = [(2, g) for g in (-0.8, -0.4, 0.0, 0.4, 0.8)] + [(3, g) for g in (-0.6, 0.3)]
    worst = 0.0
    for d, g in points:
        r = fidelity_threshold(KExtProblem.for_werner(d=d, gamma=g, backend="dense"), tol_alpha=1e-8)
        worst = max(worst, abs(r.alpha_star - wa.alpha_max_k1(g)))
    return _result("dense_vs_alpha1", worst, 1e-6)


def check_maxmixed_bounds() -> CheckResult:
    worst = 0.0
    values = {}
    for k in (1, 2, 3):
        r = fidelity_threshold(KExtProblem(state=maximally_mixed(2, 2), k=k), tol_alpha=1e-8)
        values[f"k={k}"] = r.alpha_star
        worst = max(worst, abs(r.alpha_star - wa.maxmixed_bound(k)))
    return _result("maxmixed_bounds", worst, 1e-6, thresholds=values)


def check_mnp_numeric_vs_closed() -> CheckResult:
    worst = 0.0
    for p in (0.2, 2.0 / 3.0):
        state = werner(WernerParams(d=3, p=p))
        numeric = wa.mnp_threshold_numeric(state)
        worst = max(worst, abs(numeric - wa.mnp_alpha_max(p, 3)))
    return _result("mnp_numeric_vs_closed", worst, 1e-6)


def check_d_independence_k1() -> CheckResult:
    worst = 0.0
    for g in (-0.5, 0.3):
        r2 = fidelity_threshold(KExtProblem.for_werner(d=2, gamma=g))
        r3 = fidelity_threshold(KExtProblem.for_werner(d=3, gamma=g))
        worst = max(worst, abs(r2.alpha_star - r3.alpha_star))
    return _result("d_independence_k1", worst, 1e-6)


def check_k_monotonicity() -> CheckResult:
    thresholds = [
        fidelity_threshold(KExtProblem.for_werner(d=2, gamma=-0.5, k=k), tol_alpha=1e-7).alpha_star
        for k in (1, 2, 3)
    ]
    margins = [thresholds[i] - thresholds[i + 1] for i in range(len(thresholds) - 1)]
    violation = max(0.0, -min(margins))
    return _result(
        "k_monotonicity",
        violation,
        1e-6,
        thresholds={f"k={k}": t for k, t in zip((1, 2, 3), thresholds)},
        margins=margins,
    )


def check_schur_weyl_vs_s3() -> CheckResult:
    """The Schur-Weyl blocks at k = 1 against s3_block_lambda_min, up to n = 8 where no probe fits.

    Both are on the I + gamma V scale; gaps are relative to the blocks' norm
    bound 2 (1 + |gamma|)^n.
    """
    worst, worst_slope = 0.0, 0.0
    for d in (2, 3, 4):
        for n in (1, 2, 3, 4, 8):
            for g in (-0.8, -0.25, 0.0, 0.5):
                probe = werner_probe(g, d, n, 1)
                scale = 2.0 * (1.0 + abs(g)) ** n
                for a in (0.3, 0.7, 0.95):
                    value, slope, _ = probe.lambda_min(a)
                    ref_value, ref_slope = s3_block_lambda_min(g, a, n, d)
                    worst = max(worst, abs(value - ref_value) / scale)
                    worst_slope = max(worst_slope, abs(slope - ref_slope) / scale)
    passed = worst <= 1e-12 and worst_slope <= 1e-12
    return CheckResult("schur_weyl_vs_s3", passed, worst, 1e-12, {"slope_gap": worst_slope, "slope_tol": 1e-12})


def check_iterative_vs_dense() -> CheckResult:
    """ARPACK against dense solves: lambda_min on an alpha grid, and alpha* against the dense backend's.

    The dense solves are eig_min_dense of ProbeAssembly.dense, the reference
    probe that no backend samples.  Each iterative alpha* must also be
    certified and tight by them, lambda_min(alpha*) < -TOL_EIG and
    lambda_min(min(1, alpha* + tol_alpha)) >= -TOL_EIG, so that neither rests
    on the search's own ARPACK samples.
    """
    rng = np.random.default_rng(11)
    worst, worst_lambda, unsound = 0.0, 0.0, []
    # Werner at dim 256, where lambda_min crosses 0 at alpha* = 0.75, a complex state at dim 64,
    # and two copies of a full-rank Werner state at dim 512
    problems = (
        KExtProblem.for_werner(d=2, gamma=-0.5, k=2),
        KExtProblem(state=_random_state(rng, 2, 2), k=1),
        KExtProblem.for_werner(d=2, gamma=0.5, n=2, k=1),
    )
    for prob in problems:
        iterative, dense = replace(prob, backend="iterative"), replace(prob, backend="dense")
        # one probe and one assembly, so the reference pieces are assembled once for the whole grid
        solve_iterative, assembly = iterative.probe().lambda_min, solver.ProbeAssembly(prob)

        def solve_dense(alpha: float) -> float:
            return eig_min_dense(assembly.dense(alpha))

        for a in (0.25, 0.5, 0.75, 1.0):
            worst_lambda = max(worst_lambda, abs(solve_iterative(a)[0] - solve_dense(a)))
        alpha_star = fidelity_threshold(iterative).alpha_star
        worst = max(worst, abs(alpha_star - fidelity_threshold(dense).alpha_star))
        above = min(1.0, alpha_star + solver.DEFAULT_TOL_ALPHA)
        certified = alpha_star == 0.0 or solve_dense(alpha_star) < -solver.TOL_EIG
        tight = above == alpha_star or solve_dense(above) >= -solver.TOL_EIG
        if not (certified and tight):
            unsound.append(alpha_star)
    passed = worst <= 1e-6 and worst_lambda <= 1e-9 and not unsound
    details = {"lambda_gap": worst_lambda, "lambda_tol": 1e-9, "unsound_alpha_stars": unsound}
    return CheckResult("iterative_vs_dense", passed, worst, 1e-6, details)


def check_schur_weyl_vs_probe() -> CheckResult:
    """The Schur-Weyl blocks against the full probe: lambda_min on an alpha grid, and alpha*.

    The blocks are (d^2 + gamma d)^n times the probe; their alpha* is certified
    on that scale, so it can sit slightly above the probe's.  The reference
    alpha* (up to dimension 512) is threshold_sup from [0, 1] on the probe's
    own lowest pair (lambda, v^dag L v), with no block solver and no pencil,
    so an error of the blocks' search cannot cancel in the gap.
    """
    worst, worst_lambda, references = 0.0, 0.0, []
    # (d, gamma, n, k, side, reference backend, alphas): dense up to dimension 1296, ARPACK at 7776
    cases = [
        (2, -0.6, 1, 1, "bob", "dense", (0.2, 0.5, 0.8, 1.0)),
        (2, 0.4, 1, 2, "alice", "dense", (0.2, 0.5, 0.8, 1.0)),
        (2, -0.25, 2, 1, "bob", "dense", (0.2, 0.5, 0.8, 1.0)),
        (2, 0.7, 2, 1, "alice", "dense", (0.5, 0.9)),
        (3, 0.3, 1, 1, "alice", "dense", (0.2, 0.5, 0.8, 1.0)),
        (3, -0.5, 1, 2, "alice", "dense", (0.5, 0.75)),
        (3, -0.5, 1, 3, "bob", "iterative", (0.7,)),
    ]
    for d, gamma, n, k, side, backend, alphas in cases:
        blocks = KExtProblem.for_werner(d=d, gamma=gamma, n=n, k=k, side=side, backend="schur_weyl")
        probe = replace(blocks, backend=backend)
        solve_blocks, assembly = blocks.probe().lambda_min, solver.ProbeAssembly(probe)
        scale = (d * d + gamma * d) ** n
        for a in alphas:
            # ProbeAssembly.dense, not the dense backend, which shares the blocks' solver; iterative: one cold solve
            ref = eig_min_dense(assembly.dense(a)) if backend == "dense" else assembly.lambda_min(a)[0]
            worst_lambda = max(worst_lambda, abs(solve_blocks(a)[0] / scale - ref))
        if backend == "dense" and probe.total_dim <= 512:
            linear = assembly.dense_pieces()[1]

            def probe_pair(alpha: float) -> tuple[float, float]:
                lam, v = eig_min_dense_vec(assembly.dense(alpha))
                return lam, float(np.vdot(v, linear @ v).real)

            references.append(threshold_sup(probe_pair, solver.DEFAULT_TOL_ALPHA))
            worst = max(worst, abs(fidelity_threshold(blocks).alpha_star - references[-1]))
    passed = worst <= 1e-6 and worst_lambda <= 1e-10
    details = {"lambda_gap": worst_lambda, "lambda_tol": 1e-10, "reference_alpha_stars": references}
    return CheckResult("schur_weyl_vs_probe", passed, worst, 1e-6, details)


def check_pair_spin_blocks() -> CheckResult:
    """The dense backend's pair x spin blocks against the reference probe, and a k = 3 alpha* against ARPACK.

    At k = 2, on both sides of a complex 2 x 3 state and a rank-3 one, the
    blocks' lambda_min matches eig_min_dense of ProbeAssembly.dense on an
    alpha grid, as a share of the probe's norm bound.  At k = 3 (bob, 5184
    dimensions, past the reference pieces' cap) the blocks' alpha* must be
    certified by its lifted certificate, one ProbeAssembly.handle matvec:
    v^dag P(alpha*) v < -TOL_EIG for a unit v.  And it must be tight by a
    cold ARPACK solve: lambda_min(alpha* + tol_alpha) >= -TOL_EIG.
    """
    rng = np.random.default_rng(26)
    states = [_random_state(rng, 2, 3)]
    g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    states.append(from_matrix(g @ g.conj().T, layout(("A", 2), ("B", 3))))
    worst = 0.0
    for state in states:
        for side in solver.SIDES:
            problem = KExtProblem(state=state, k=2, side=side, backend="dense")
            solve, assembly = problem.probe().lambda_min, solver.ProbeAssembly(problem)
            for a in (0.25, 0.5, 0.75, 0.95, 1.0):
                worst = max(worst, abs(solve(a)[0] - eig_min_dense(assembly.dense(a))) / assembly.norm_bound)
    problem = KExtProblem(state=states[0], k=3)
    result = fidelity_threshold(problem)
    assembly = solver.ProbeAssembly(problem)
    v = result.certificate
    quotient = float(np.vdot(v, assembly.handle(result.alpha_star).apply(v)).real) / float(np.vdot(v, v).real)
    above = min(1.0, result.alpha_star + solver.DEFAULT_TOL_ALPHA)
    lam_above = assembly.lambda_min(above)[0]
    sound = result.backend == "dense" and quotient < -solver.TOL_EIG and lam_above >= -solver.TOL_EIG
    details = {"alpha_star_k3": result.alpha_star, "certificate_quotient": quotient, "arpack_lambda_above": lam_above}
    return CheckResult("pair_spin_blocks", worst <= 1e-12 and sound, worst, 1e-12, details)


def check_pencil_vs_newton() -> CheckResult:
    """fidelity_threshold, which starts from the pencil's bracket, against threshold_sup from [0, 1].

    Both searches end within tol_alpha below the -TOL_EIG crossing, so the
    bracketed alpha* must be certified by a fresh solve and lie within
    tol_alpha of Newton's (on these problems it is 0 to 4e-9 above it).  One
    dense problem (a complex rank-5 state, whose bracket is wider than
    tol_alpha) and two schur_weyl ones, the second at n = 8 where kappa(L) is
    about 79^8.
    """
    tol = solver.DEFAULT_TOL_ALPHA
    rng = np.random.default_rng(1109)
    g = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    problems = (
        KExtProblem(state=from_matrix(g @ g.conj().T, layout(("A", 2), ("B", 3))), k=1),
        KExtProblem.for_werner(d=3, gamma=-0.6, n=2, k=3),
        KExtProblem.for_werner(d=3, gamma=0.975, n=8, k=1),
    )
    gaps, certified = [], True
    for prob in problems:
        solve = prob.probe().lambda_min
        newton = threshold_sup(lambda alpha: solve(alpha)[:2], tol)
        alpha_star = fidelity_threshold(prob, tol).alpha_star
        gaps.append(alpha_star - newton)
        certified &= solver.lambda_min_alpha(prob, alpha_star) < -solver.TOL_EIG
    passed = certified and all(abs(gap) <= tol for gap in gaps)
    return CheckResult("pencil_vs_newton", passed, max(abs(gap) for gap in gaps), tol, {"gaps": gaps, "certified": certified})


def check_many_copy_growth() -> CheckResult:
    worst_increment = np.inf
    for g in (-0.25, 0.25):
        values = [
            fidelity_threshold(
                KExtProblem.for_werner(d=2, gamma=g, n=n, k=1, backend="schur_weyl")
            ).alpha_star
            for n in (1, 2, 3)
        ]
        worst_increment = min(
            worst_increment, min(values[i + 1] - values[i] for i in range(len(values) - 1))
        )
    # residual is the violation of strict growth
    return _result("many_copy_growth", max(0.0, 1e-9 - worst_increment), 0.0,
                   min_increment=worst_increment)


def check_lambda_monotone_alpha() -> CheckResult:
    rng = np.random.default_rng(3)
    problems = [
        KExtProblem.for_werner(d=2, gamma=0.4),
        KExtProblem(state=_random_state(rng, 2, 2), k=1),
    ]
    worst = 0.0
    for prob in problems:
        solve = prob.probe().lambda_min  # one probe, so a dense probe is assembled once
        lams = [solve(a)[0] for a in np.linspace(0.0, 1.0, 11)]
        worst = max(worst, max(max(0.0, lams[i] - lams[i + 1]) for i in range(len(lams) - 1)))
    return _result("lambda_monotone_alpha", worst, 1e-12)


def check_symmetrizer_psd() -> CheckResult:
    rng = np.random.default_rng(5)
    lay = layout(("B0", 2), ("b0", 2), ("B1", 2), ("b1", 2))
    worst = 0.0
    for _ in range(5):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = from_matrix(g @ g.conj().T, lay, normalized=False).op
        sym = symmetrize(h, [("B0", "b0"), ("B1", "b1")])
        worst = max(worst, max(0.0, -eig_min_dense(sym)))
    return _result("symmetrizer_psd", worst, 1e-10)


def check_symmetrizer_self_adjoint() -> CheckResult:
    rng = np.random.default_rng(6)
    lay = layout(("B0", 2), ("b0", 2), ("B1", 2), ("b1", 2))
    worst = 0.0
    for _ in range(5):
        ga = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        gb = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a = from_matrix(ga @ ga.conj().T, lay, normalized=False).op
        b = from_matrix(gb @ gb.conj().T, lay, normalized=False).op
        sa = symmetrize(a, [("B0", "b0"), ("B1", "b1")])
        sb = symmetrize(b, [("B0", "b0"), ("B1", "b1")])
        lhs = np.trace(sa.entries @ b.entries)
        rhs = np.trace(a.entries @ sb.entries)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return _result("symmetrizer_self_adjoint", worst, 1e-10)


def _random_local(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def check_cj_action_equivalence() -> CheckResult:
    from .states import bell_state

    rng = np.random.default_rng(7)
    rho = _random_state(rng, 2, 2)
    sig_a, sig_b, sig_e = (_random_local(rng, 2) for _ in range(3))
    lay_in = layout(("S", 2), ("X0", 2), ("X1", 2))
    sigma_in = from_matrix(np.kron(sig_a, np.kron(sig_b, sig_e)), lay_in)
    lay_out = layout(("s", 2), ("x0", 2), ("x1", 2))
    sigma_out = from_matrix(
        embed(lay_out, {("s", "x0"): bell_state("phi_plus", 2).matrix, "x1": np.eye(2) / 2}).entries,
        lay_out,
    )
    cj = cj_of_mnp(sigma_in, sigma_out, side="bob")
    d_in = 4
    cj_grouped = cj.matrix.reshape(d_in, 4, d_in, 4)
    out = d_in * np.einsum("ixjy,ji->xy", cj_grouped, rho.matrix.T)
    w1 = float(np.trace(rho.matrix @ np.kron(sig_a, sig_b)).real)
    w2 = float(np.trace(rho.matrix @ np.kron(sig_a, sig_e)).real)
    direct = w1 * bell_state("phi_plus", 2).matrix + w2 * np.eye(4) / 4.0
    scale = float(np.trace(out).real) / float(np.trace(direct).real)
    residual = float(np.abs(out - scale * direct).max())
    return _result("cj_action_equivalence", residual, 1e-10)


def check_universal_floor() -> CheckResult:
    rng = np.random.default_rng(9)
    states = [
        werner(WernerParams(d=2, gamma=-0.8)),
        werner(WernerParams(d=2, gamma=0.1)),
        _random_state(rng, 2, 2),
    ]
    worst = 0.0
    for state in states:
        for k in (1, 2):
            r = fidelity_threshold(KExtProblem(state=state, k=k), tol_alpha=1e-7)
            worst = max(worst, wa.maxmixed_bound(k) - r.alpha_star)
    return _result("universal_floor", max(0.0, worst), 1e-6)


def check_embedding_instability() -> CheckResult:
    embedded = from_matrix(
        np.kron(np.eye(2) / 2.0, np.diag([0.5, 0.5, 0.0])), layout(("A", 2), ("B", 3))
    )
    r = fidelity_threshold(KExtProblem(state=embedded, k=1))
    square = fidelity_threshold(KExtProblem(state=maximally_mixed(2, 2), k=1))
    residual = max(0.0, 0.99 - r.alpha_star) + abs(square.alpha_star - 0.75)
    return _result(
        "embedding_instability", residual, 1e-6,
        embedded_threshold=r.alpha_star, square_threshold=square.alpha_star,
    )


ALL_CHECKS = (
    check_param_roundtrip,
    check_alpha1_symmetry,
    check_alpha1_quadratic_root,
    check_consistency_chain_mnp,
    check_dense_vs_alpha1,
    check_maxmixed_bounds,
    check_mnp_numeric_vs_closed,
    check_d_independence_k1,
    check_k_monotonicity,
    check_schur_weyl_vs_s3,
    check_iterative_vs_dense,
    check_schur_weyl_vs_probe,
    check_pair_spin_blocks,
    check_pencil_vs_newton,
    check_many_copy_growth,
    check_lambda_monotone_alpha,
    check_symmetrizer_psd,
    check_symmetrizer_self_adjoint,
    check_cj_action_equivalence,
    check_universal_floor,
    check_embedding_instability,
)

FAST_CHECKS = (
    check_param_roundtrip,
    check_alpha1_symmetry,
    check_alpha1_quadratic_root,
    check_consistency_chain_mnp,
    check_lambda_monotone_alpha,
    check_symmetrizer_psd,
    check_symmetrizer_self_adjoint,
    check_cj_action_equivalence,
)


def run_checks(fast: bool = False) -> list[CheckResult]:
    checks = FAST_CHECKS if fast else ALL_CHECKS
    return [check() for check in checks]


def report(results: list[CheckResult]) -> dict:
    return {
        "checks": [r.as_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
