"""Correctness checks that do not depend on the algorithm that produced a result.

lambda_min(alpha) of the probe is nondecreasing in alpha, so a threshold
alpha* found to within tol_alpha by any driver (bisection, Newton, a
closed form) satisfies

    lambda_min(alpha*) < -tol_eig                      (alpha* is certified)
    lambda_min(min(1, alpha* + tol_alpha)) >= -tol_eig  (alpha* is within tolerance)

with both values taken from the problem's own backend.  This holds for every
seed, because it rests on monotonicity and not on stored values.  Where a
closed form exists the result is compared against it as well.  None of this
is timed.
"""

from __future__ import annotations

import math

from kextdistill import analytic, solver
from kextdistill.solver import KExtProblem

F1_TOL = 1e-9
ELLIPSE_TOL = 1e-12
MNP_TOL_ALPHA = 1e-7           # the default width of mnp_threshold_numeric
MNP_CLOSED_TOL = 1e-6          # the tolerance `kext validate` uses for the same comparison


def check_threshold(
    problem: KExtProblem,
    alpha_star: float,
    tol_alpha: float,
    tol_eig: float = solver.TOL_EIG,
    closed_form: float | None = None,
) -> list[str]:
    """Failure messages for one threshold; empty when it is certified and tight."""
    bad = []
    if not 0.0 <= alpha_star <= 1.0:
        return [f"alpha* = {alpha_star!r} lies outside [0, 1]"]
    lam = solver.lambda_min_alpha(problem, alpha_star)
    if alpha_star > 0.0 and not lam < -tol_eig:
        bad.append(f"not certified: lambda_min({alpha_star!r}) = {lam:.3e} >= -{tol_eig:g}")
    above = min(1.0, alpha_star + tol_alpha)
    lam_above = lam if above == alpha_star else solver.lambda_min_alpha(problem, above)
    if lam_above < -tol_eig:
        bad.append(f"not tight: lambda_min({above!r}) = {lam_above:.3e} < -{tol_eig:g}")
    if closed_form is not None and abs(alpha_star - closed_form) > 2.0 * tol_alpha:
        bad.append(f"alpha* = {alpha_star!r} is off the closed form {closed_form!r}")
    return bad


def check_unit_fidelity(fidelity: float | None) -> list[str]:
    if fidelity is None:
        return ["no unit-fidelity strategy was constructed"]
    if abs(fidelity - 1.0) > F1_TOL:
        return [f"strategy fidelity {fidelity!r} is not 1"]
    return []


def check_mnp(state, p: float, d: int, alpha_star: float) -> list[str]:
    """The measure-and-prepare threshold: certified, tight, and on the closed form."""
    bad = []
    tol_eig = analytic.MNP_TOL_EIG
    if not analytic.mnp_min_lambda(state, alpha_star) < -tol_eig:
        bad.append(f"M&P alpha* = {alpha_star!r} is not certified")
    if analytic.mnp_min_lambda(state, min(1.0, alpha_star + MNP_TOL_ALPHA)) < -tol_eig:
        bad.append(f"M&P alpha* = {alpha_star!r} is not tight")
    closed = analytic.mnp_alpha_max(p, d)
    if abs(alpha_star - closed) > MNP_CLOSED_TOL:
        bad.append(f"M&P alpha* = {alpha_star!r} is off the closed form {closed!r}")
    return bad


def check_ellipse(rows: list[list[str]], points: int) -> list[str]:
    """Every fig2 row lies on y_+^2 + y_-^2/3 = 1/16 with F1, F2 matching (y_+, y_-)."""
    if len(rows) != points:
        return [f"ellipse has {len(rows)} rows, expected {points}"]
    worst = 0.0
    for theta, y_plus, y_minus, f1, f2 in ([float(v) for v in row] for row in rows):
        worst = max(
            worst,
            abs(y_plus**2 + y_minus**2 / 3.0 - 1.0 / 16.0),
            abs(y_plus - 0.25 * math.cos(theta)),
            abs(f1 - (0.5 - y_plus + y_minus)),
            abs(f2 - (0.5 - y_plus - y_minus)),
        )
    return [] if worst <= ELLIPSE_TOL else [f"ellipse residual {worst:.3e}"]


def read_csv(path: str, header: str) -> list[list[str]]:
    """Data rows of a kext CSV, after its version header and column line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: missing {header!r} header")
    return [line.split(",") for line in lines[2:]]
