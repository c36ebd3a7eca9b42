import pytest


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
