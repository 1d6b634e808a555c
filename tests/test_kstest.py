"""Kolmogorov-Smirnov p-values against SciPy, bit for bit."""

import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from wishartscape import kstest
from wishartscape.errors import ValidationError

_HELPERS = ("_kolmogn_DMTW", "_kolmogn_Pomeranz", "_kolmogn_PelzGood", "_smirnov_sf")

# (n, x, the helper that evaluates Pr(D_n >= x) there; None for a closed form)
_BRANCHES = [
    (7, 0.05, None),                      # x <= 1/(2n): the support's lower end
    (7, 1.0, None),                       # x >= 1
    (7, 1.5, None),
    (10, 0.08, None),                     # n x <= 1, n <= 140: Ruben-Gambino product
    (200, 0.004, None),                   # n x <= 1, n > 140: its Stirling form
    (10, 0.95, None),                     # n x >= n - 1: Ruben-Gambino
    (3, 0.7, None),
    (10, 0.6, "_smirnov_sf"),             # x >= 1/2: twice the one-sided tail
    (50, 0.1, "_kolmogn_DMTW"),           # n <= 140, n x^2 <= 0.754693
    (50, 0.2, "_kolmogn_Pomeranz"),       # n <= 140, n x^2 <= 4
    (140, 0.1, "_kolmogn_Pomeranz"),
    (50, 0.35, "_smirnov_sf"),            # n <= 140, n x^2 > 4
    (2000, 0.45, None),                   # n > 140, n x^2 >= 370: zero
    (1000, 0.06, "_smirnov_sf"),          # n > 140, n x^2 >= 2.2
    (141, 0.13, "_smirnov_sf"),
    (1000, 0.012, "_kolmogn_DMTW"),       # n > 140, n x^1.5 <= 1.4
    (1000, 0.03, "_kolmogn_PelzGood"),    # n > 140, n x^1.5 > 1.4
    (200000, 0.001, "_kolmogn_PelzGood"),  # n > 100000
    (10**6, 2e-6, "_kolmogn_PelzGood"),   # Pelz-Good below its underflow cut
]


@pytest.mark.parametrize("n, x, helper", _BRANCHES)
def test_each_branch_matches_kstwo(n, x, helper, monkeypatch):
    called = []
    for name in _HELPERS:
        fn = getattr(kstest, name)
        monkeypatch.setattr(kstest, name,
                            lambda *a, _fn=fn, _name=name: called.append(_name) or _fn(*a))
    assert kstest.kolmogorov_sf(n, x) == sp_stats.kstwo.sf(x, n)
    assert called == ([helper] if helper else [])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 31, 139, 140, 141, 400, 1000])
def test_grid_matches_kstwo(n):
    rng = np.random.default_rng(n)
    xs = np.concatenate([rng.uniform(0.0, 1.0, 40),
                         rng.uniform(0.0, min(1.0, 3.0 / math.sqrt(n)), 60),
                         rng.uniform(0.0, min(1.0, 2.0 / n), 20),
                         [0.0, -0.5, 0.5 / n, np.nextafter(0.5 / n, 1.0), 1.0 / n,
                          0.5, 1.0 - 1.0 / n, 1.0]])
    got = [kstest.kolmogorov_sf(n, x) for x in xs]
    np.testing.assert_array_equal(got, sp_stats.kstwo.sf(xs, n))


def test_kolmogorov_sf_edges():
    assert math.isnan(kstest.kolmogorov_sf(5, math.nan))
    with pytest.raises(ValidationError):
        kstest.kolmogorov_sf(0, 0.3)


def _scipy_pair(res):
    return float(res.statistic), float(res.pvalue)


@pytest.mark.parametrize("n", [1, 2, 7, 60, 141, 800, 3000])
def test_ks_1samp_matches_kstest(n):
    rng = np.random.default_rng(100 + n)
    x = rng.gamma(2.0, size=n)
    for shape in (2.0, 2.4):
        cdf = lambda z, a=shape: sp_stats.gamma.cdf(z, a)  # noqa: E731
        assert kstest.ks_1samp(x, cdf) == _scipy_pair(sp_stats.kstest(x, cdf))


def test_ks_1samp_ties_nan_and_cdf_call():
    x = np.round(np.random.default_rng(3).exponential(size=50), 1)
    calls = []

    def cdf(z):
        calls.append(z.copy())
        return sp_stats.expon.cdf(z)

    assert kstest.ks_1samp(x, cdf) == _scipy_pair(sp_stats.kstest(x, sp_stats.expon.cdf))
    assert len(calls) == 1 and np.array_equal(calls[0], np.sort(x))
    got = kstest.ks_1samp([0.2, math.nan, 0.4], lambda z: z)
    assert all(math.isnan(v) for v in got)
    with pytest.raises(ValidationError):
        kstest.ks_1samp([], lambda z: z)


@pytest.mark.parametrize("n", [1, 2, 5, 40, 400, 2400, 10000, 10001, 12000])
def test_ks_2samp_matches_scipy(n):
    rng = np.random.default_rng(200 + n)
    x = rng.normal(size=n)
    y = rng.normal(0.1, 1.1, size=n)
    assert kstest.ks_2samp(x, y) == _scipy_pair(sp_stats.ks_2samp(x, y))


def test_ks_2samp_ties():
    rng = np.random.default_rng(5)
    for n in (30, 300):
        x = np.round(rng.normal(size=n), 1)
        y = np.round(rng.normal(0.2, size=n), 1)
        assert kstest.ks_2samp(x, y) == _scipy_pair(sp_stats.ks_2samp(x, y))


def test_ks_2samp_zero_distance():
    # h = 0: equal samples, and samples whose ECDFs cross but never part
    x = np.arange(6.0)
    assert kstest.ks_2samp(x, x[::-1]) == (0.0, 1.0)
    assert kstest.ks_2samp(x, x) == _scipy_pair(sp_stats.ks_2samp(x, x))


def test_ks_2samp_exact_sum_above_one():
    # at D = 1/5 the exact alternating sum rounds above 1; SciPy then falls
    # back to the one-sample law at n/2, and so must the port
    assert not 0 <= kstest._prob_outside_square(5, 1) <= 1
    x = np.arange(1.0, 6.0)
    with pytest.warns(RuntimeWarning):
        want = _scipy_pair(sp_stats.ks_2samp(x, x + 0.5))
    assert kstest.ks_2samp(x, x + 0.5) == want


def test_ks_2samp_refuses_unequal_or_empty():
    with pytest.raises(ValidationError, match="one size"):
        kstest.ks_2samp([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        kstest.ks_2samp([], [])
    got = kstest.ks_2samp([0.1, math.nan], [0.2, 0.3])
    assert all(math.isnan(v) for v in got)
