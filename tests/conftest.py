import dataclasses

import numpy as np
import pytest

from kextdistill.linalg import ITER_EIG_TOL, HermitianOperator
from kextdistill.solver import ProbeAssembly
from kextdistill.states import bell_state


def _reference_bisection(holds, tol):
    """sup of [0, 1] where `holds` is true, by plain bisection: the search threshold_sup replaced."""
    lo, hi = 0.0, 1.0
    if not holds(lo):
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.fixture(scope="session")
def reference_bisection():
    return _reference_bisection


def _assert_supergradient(f, alphas):
    """f(alpha) = (value, slope): every slope is >= 0 and its tangent bounds value from above.

    Both up to rounding: a slope v^dag D v of a PSD D with a kernel can come out as -1e-19.
    """
    points = [(alpha, *f(alpha)) for alpha in alphas]
    for a1, v1, s1 in points:
        rounding = 1e-12 * max(1.0, abs(v1))
        assert s1 >= -rounding, a1
        for a2, v2, _ in points:
            assert v2 <= v1 + s1 * (a2 - a1) + rounding, (a1, a2)


@pytest.fixture(scope="session")
def assert_supergradient():
    return _assert_supergradient


def _probe_operator(alpha):
    """The two-qubit operator alpha I - Phi+, with spectrum {alpha - 1, alpha, alpha, alpha}."""
    bell = bell_state("phi_plus", 2)
    return HermitianOperator(bell.layout, alpha * np.eye(4) - bell.matrix)


@pytest.fixture(scope="session")
def probe_operator():
    return _probe_operator


class ProbeLog:
    """What every ProbeAssembly did: matvecs, its handles' kernel applications, and full, the alpha of each full solve."""

    def __init__(self):
        self.matvecs = 0
        self.full: list[float] = []


@pytest.fixture
def probe_log(monkeypatch):
    """A ProbeLog of every ProbeAssembly in the test: lambda_min at the default residual is a full solve, looser ones are not."""
    log = ProbeLog()
    handle, lambda_min = ProbeAssembly.handle, ProbeAssembly.lambda_min

    def counted_handle(self, alpha):
        made = handle(self, alpha)

        def apply(vec):
            log.matvecs += 1
            return made.apply(vec)

        return dataclasses.replace(made, apply=apply)

    def logged_lambda_min(self, alpha, residual=ITER_EIG_TOL):
        if residual == ITER_EIG_TOL:
            log.full.append(alpha)
        return lambda_min(self, alpha, residual)

    monkeypatch.setattr(ProbeAssembly, "handle", counted_handle)
    monkeypatch.setattr(ProbeAssembly, "lambda_min", logged_lambda_min)
    return log
