import math
import random

import pytest

from clcd import special
from clcd.special import chi2_sf, gammainc_upper

# Reference survival values computed with mpmath.gammainc at 40 digits.
FROZEN = [
    (3.841458820694124, 1, 0.050000000000000057),
    (27.725887222397812, 1, 1.3977963343581466e-7),
    (0.5, 1, 0.47950012218695346),
    (10.0, 4, 0.040427681994512803),
    (100.0, 3, 1.5541594313896049e-21),
    (1e-08, 1, 0.99992021154405269),
    (55.0, 40, 0.057457351676591728),
    (5.0, 2, 0.082084998623898795),
    (2.3, 7, 0.94139001282280073),
    (700.0, 500, 7.7289921112166518e-9),
]


@pytest.mark.parametrize("x,k,expected", FROZEN)
def test_chi2_sf_frozen_points(x, k, expected):
    got = chi2_sf(x, k)
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-300)


# Large-dof references from mpmath.gammainc at 40 digits: at, below and above
# the mean. Both gamma loops need far more than 600 terms at these dof.
FROZEN_LARGE_DOF = [
    (10000.0, 10**4, 0.49811936596618267),
    (9576.0, 10**4, 0.9988046993872586),
    (10707.0, 10**4, 5.022662219454257e-07),
    (100000.0, 10**5, 0.4994052918952067),
    (98658.0, 10**5, 0.9987059254937457),
    (102236.0, 10**5, 3.443044010131275e-07),
    (1000000.0, 10**6, 0.4998119368033945),
    (995757.0, 10**6, 0.9986678827347266),
    (1007071.0, 10**6, 3.0395577493697863e-07),
]


@pytest.mark.parametrize("x,k,expected", FROZEN_LARGE_DOF)
def test_chi2_sf_large_dof(x, k, expected):
    assert chi2_sf(x, k) == pytest.approx(expected, rel=2e-9)


def test_unconverged_loops_raise(monkeypatch):
    monkeypatch.setattr(special, "_budget", lambda a: 5)
    with pytest.raises(ArithmeticError, match="series"):
        chi2_sf(100.0, 100)
    with pytest.raises(ArithmeticError, match="continued fraction"):
        chi2_sf(110.0, 100)


def test_chi2_sf_edge_cases():
    assert chi2_sf(0.0, 1) == 1.0
    assert chi2_sf(-3.0, 2) == 1.0
    assert chi2_sf(10.0, 0) == 1.0
    assert 0.0 <= chi2_sf(1e6, 1) <= 1e-100


def test_chi2_sf_monotone_in_statistic():
    last = 1.0
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        cur = chi2_sf(x, 3)
        assert cur < last
        last = cur


def test_dof_two_closed_form():
    # k=2 reduces to exp(-x/2)
    for x in (0.3, 1.7, 8.0, 42.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)


def test_gammainc_upper_complement():
    # regularized upper + lower must sum to one
    for a, x in ((0.5, 0.2), (2.0, 5.0), (10.0, 3.0), (25.0, 30.0)):
        upper = gammainc_upper(a, x)
        assert 0.0 <= upper <= 1.0


def test_against_scipy_if_present():
    scipy_stats = pytest.importorskip("scipy.stats")
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(300):
        x = float(rng.uniform(1e-6, 200.0))
        k = int(rng.integers(1, 80))
        ours = chi2_sf(x, k)
        ref = float(scipy_stats.chi2.sf(x, k))
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-250)


def _lower_series_with_abs(a, x):
    """The power series as it was, with ``abs()`` in its stop rule."""
    term = total = 1.0 / a
    ap = a
    for _ in range(special._budget(a)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * special._EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def test_lower_series_stop_rule_needs_no_abs():
    # For a > 0 and 0 < x < a + 1, the only range the series serves, term
    # and total stay positive, so the stop rule without abs() gives the same
    # bits: every half-integer shape up to 400 (dof up to 800) on a grid of
    # x, plus random real shapes.
    rnd = random.Random(0)
    points = [(k / 2, (k / 2 + 1) * j / 20) for k in range(1, 801)
              for j in range(1, 20)]
    points += [(a, rnd.uniform(0.0, a + 1.0) or 1e-300) for a in
               (rnd.uniform(1e-3, 1e3) for _ in range(5000))]
    for a, x in points:
        assert special._lower_series(a, x) == _lower_series_with_abs(a, x)
