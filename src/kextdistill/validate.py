"""Cross-validation suite: closed forms vs dense solvers vs block fast paths.

Every check returns its measured residual so regressions show up as numbers,
not just flags.  The suite is what `kext validate` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import solver
from . import analytic as wa
from .blocks import s3_block_lambda_min
from .linalg import eig_min_dense, embed, layout
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
        r = fidelity_threshold(KExtProblem.for_werner(d=d, gamma=g), tol_alpha=1e-8)
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


def check_bell_equivalence() -> CheckResult:
    worst = 0.0
    for d, g in ((2, -0.5), (3, 0.5)):
        r_phi = fidelity_threshold(KExtProblem.for_werner(d=d, gamma=g, bell="phi_plus"))
        r_psi = fidelity_threshold(KExtProblem.for_werner(d=d, gamma=g, bell="psi_minus"))
        worst = max(worst, abs(r_phi.alpha_star - r_psi.alpha_star))
    return _result("bell_equivalence", worst, 1e-8)


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


def check_s3_vs_dense() -> CheckResult:
    worst, worst_lambda = 0.0, 0.0
    for n in (1, 2):
        dense = fidelity_threshold(KExtProblem.for_werner(d=2, gamma=-0.25, n=n, k=1))
        fast = fidelity_threshold(KExtProblem.for_werner(d=2, gamma=-0.25, n=n, k=1, backend="s3_blocks"))
        worst = max(worst, abs(dense.alpha_star - fast.alpha_star))
        # the blocks take I + gamma V unnormalized, whose trace is 4 + 2 gamma per copy
        for g, a in ((-1.0, 0.3), (-0.25, 0.6), (0.5, 0.95)):
            block = s3_block_lambda_min(g, a, n, 2)[0] / (4.0 + 2.0 * g) ** n
            lam = solver.lambda_min_alpha(KExtProblem.for_werner(d=2, gamma=g, n=n, backend="dense"), a)
            worst_lambda = max(worst_lambda, abs(block - lam))
    passed = worst <= 1e-6 and worst_lambda <= 1e-10
    return CheckResult("s3_vs_dense", passed, worst, 1e-6, {"lambda_gap": worst_lambda, "lambda_tol": 1e-10})


def check_iterative_vs_dense() -> CheckResult:
    rng = np.random.default_rng(11)
    worst, worst_lambda = 0.0, 0.0
    # Werner at dim 256, where lambda_min crosses 0 at alpha* = 0.75, and a complex state at dim 64
    for prob in (KExtProblem.for_werner(d=2, gamma=-0.5, k=2), KExtProblem(state=_random_state(rng, 2, 2), k=1)):
        iterative, dense = replace(prob, backend="iterative"), replace(prob, backend="dense")
        for a in (0.25, 0.5, 0.75, 1.0):
            gap = solver.lambda_min_alpha(iterative, a) - solver.lambda_min_alpha(dense, a)
            worst_lambda = max(worst_lambda, abs(gap))
        worst = max(worst, abs(fidelity_threshold(iterative).alpha_star - fidelity_threshold(dense).alpha_star))
    passed = worst <= 1e-6 and worst_lambda <= 1e-9
    return CheckResult("iterative_vs_dense", passed, worst, 1e-6, {"lambda_gap": worst_lambda, "lambda_tol": 1e-9})


def check_many_copy_growth() -> CheckResult:
    worst_increment = np.inf
    for g in (-0.25, 0.25):
        values = [
            fidelity_threshold(
                KExtProblem.for_werner(d=2, gamma=g, n=n, k=1, backend="s3_blocks")
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
        lams = [solver.lambda_min_alpha(prob, a) for a in np.linspace(0.0, 1.0, 11)]
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
    check_bell_equivalence,
    check_d_independence_k1,
    check_k_monotonicity,
    check_s3_vs_dense,
    check_iterative_vs_dense,
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
