"""Two-sided Kolmogorov-Smirnov tests with exact p-values, in numpy.

`ks_1samp` and `ks_2samp` give the same statistics and p-values, bit for
bit, as ``scipy.stats.kstest(x, cdf)`` and ``scipy.stats.ks_2samp(x, y)``
with their defaults, for the two-sided cases `simulate` uses.
`kolmogorov_sf` is ``scipy.stats.kstwo.sf``: the survival function of the
two-sided one-sample statistic D_n, chosen per (n, x) as in Simard and
L'Ecuyer, "Computing the two-sided Kolmogorov-Smirnov distribution",
J. Stat. Softw. 39(11), 2011:

- the Ruben-Gambino closed forms for n x <= 1 and n x >= n - 1;
- Durbin's matrix, evaluated as in Marsaglia, Tsang and Wang, "Evaluating
  Kolmogorov's distribution", J. Stat. Softw. 8(18), 2003;
- the Pomeranz recursion for n <= 140;
- the Pelz-Good asymptotic series;
- twice the one-sided Smirnov tail, ``scipy.special.smirnov``, which is
  imported only on that branch.

The functions below are a port of the survival branch of
``scipy/stats/_ksstats.py`` and of the equal-size branch of
``scipy.stats.ks_2samp`` (SciPy 1.17), keeping their operations and their
order so that rounding agrees.  They are used under SciPy's licence:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

__all__ = ["kolmogorov_sf", "ks_1samp", "ks_2samp"]

# Intermediate results are rescaled by 2**128.  The long double scale makes
# the rescaled values, and the arithmetic after them, long double, exactly
# as in SciPy.
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coefficients B_{2j} / (2j) / (2j - 1) for j = 8, ..., 1.
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]

# ks_2samp computes exact p-values up to this sample size, as SciPy does.
MAX_EXACT_N = 10000


def _clip_prob(p):
    return np.clip(p, 0.0, 1.0)


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n**n) by Stirling, with n log n removed up front
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _kolmogn_DMTW(n, d):
    """Pr(D_n <= d) by Durbin's matrix (Marsaglia, Tsang and Wang).

    The caller guarantees 1 < n d and d < 1/2.
    """
    # d = (k - h) / n with k a positive integer and 0 <= h < 1; the answer
    # is n!/n**n times the (k, k) entry of H**n, H of size m = 2k - 1.
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip_prob(p)


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """The endpoints of the nonzero interval of row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_Pomeranz(n, x):
    """Pr(D_n <= x) by the Pomeranz recursion."""
    # Each of the 2n + 2 rows is the previous row convolved with (almost)
    # Poisson weights; only two rows, and of each only a contiguous window,
    # are kept.  The answer is n! times the last entry of the last row.
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)
    gpower = np.empty(npwrs)  # (g/n)^m / m!
    twogpower = np.empty(npwrs)  # (2g/n)^m / m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m / m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip_prob(ans)


def _kolmogn_PelzGood(n, x):
    """The Pelz-Good approximation to Pr(D_n <= x), 0 < x < 1.

    The Li-Chien / Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n**1.5 in z = x sqrt(n), each term rewritten through the Jacobi
    theta functional equation so that it converges for small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z ** 2, z ** 3, z ** 4, z ** 6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z ** 8

    # Horner scheme for sum c_i q^(i^2) over odd i
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m ** 2, m ** 4, m ** 6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z ** 7, 6480 * z ** 10])

    # the terms over all integers k in K2 and K3, summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def _smirnov_sf(n, x):
    # scipy.special takes a few tenths of a second to import; only this
    # branch of the distribution needs it
    import scipy.special
    return 2 * scipy.special.smirnov(n, x)


def _kolmogn_sf(n, x):
    """Pr(D_n >= x) for integer n >= 1 and 1/(2n) < x, as SciPy's `_kolmogn`."""
    if x >= 1.0:
        return 0.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return _clip_prob(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip_prob(2 * (1.0 - x) ** n)
    if x >= 0.5:  # exact: twice the one-sided tail
        return _clip_prob(_smirnov_sf(n, x))

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return _clip_prob(1.0 - _kolmogn_DMTW(n, x))
        if nxsquared <= 4:
            return _clip_prob(1.0 - _kolmogn_Pomeranz(n, x))
        return _clip_prob(_smirnov_sf(n, x))  # Miller's approximation

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip_prob(_smirnov_sf(n, x))
    if n <= 100000 and n * x ** 1.5 <= 1.4:
        cdfprob = _kolmogn_DMTW(n, x)
    else:
        cdfprob = _kolmogn_PelzGood(n, x)
    return _clip_prob(1.0 - cdfprob)


def kolmogorov_sf(n: int, x: float) -> float:
    """Pr(D_n >= x) for the two-sided one-sample statistic D_n of n draws.

    Equals ``scipy.stats.kstwo.sf(x, n)``; NaN for NaN x.
    """
    n = int(n)
    if n < 1:
        raise ValidationError(f"sample size must be positive, got {n}")
    if math.isnan(x):
        return math.nan
    if x <= 0.5 / n:  # the lower end of the support
        return 1.0
    # a 0-d array, as SciPy's iterator hands it over: `x ** 1.5` then takes
    # the array power, not the scalar one
    return float(np.float64(_kolmogn_sf(n, np.asarray(x, dtype=np.float64))))


def ks_1samp(x, cdf) -> tuple[float, float]:
    """Two-sided one-sample KS test of x against the distribution `cdf`.

    `cdf` is called once, on the sorted sample.  Returns (D, p-value) as
    ``scipy.stats.kstest(x, cdf)`` does with its exact p-value.
    """
    x = np.sort(np.asarray(x, dtype=float).ravel())
    n = x.shape[0]
    if n == 0:
        raise ValidationError("ks_1samp needs at least one value")
    if np.isnan(x[-1]):
        return math.nan, math.nan
    cdfvals = cdf(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdfvals)
    d_minus = np.max(cdfvals - np.arange(0.0, n) / n)
    d = d_plus if d_plus > d_minus else d_minus
    return float(d), kolmogorov_sf(n, d)


def _prob_outside_square(n, h):
    """Pr(D_{n,n} >= h/n) for two samples of size n, 1 <= h <= n.

    2 (A0 - A0 A1 + A0 A1 A2 - ...) with A_k ratios of binomials, by Horner.
    """
    P = 0.0
    k = n // h
    while k >= 0:
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        P = p1 * (1.0 - P)
        k -= 1
    return 2 * P


def ks_2samp(x, y) -> tuple[float, float]:
    """Two-sided two-sample KS test of equal-size samples x and y.

    Returns (D, p-value) as ``scipy.stats.ks_2samp(x, y)`` does: exact up to
    `MAX_EXACT_N` values per sample, with D rounded to a multiple of 1/n,
    and above that the one-sample law at n/2 with D unrounded.
    """
    x = np.sort(np.asarray(x, dtype=float).ravel())
    y = np.sort(np.asarray(y, dtype=float).ravel())
    n = x.shape[0]
    if n == 0 or y.shape[0] != n:
        raise ValidationError(
            f"ks_2samp needs two nonempty samples of one size, got {n} and {y.shape[0]}")
    if np.isnan(x[-1]) or np.isnan(y[-1]):
        return math.nan, math.nan
    both = np.concatenate([x, y])
    # searchsorted counts ties on both sides, so tied values cancel
    diffs = (np.searchsorted(x, both, side="right") / n
             - np.searchsorted(y, both, side="right") / n)
    min_s = np.clip(-diffs.min(), 0, 1)
    max_s = diffs.max()
    d = min_s if min_s > max_s else max_s
    if n > MAX_EXACT_N:
        return float(d), kolmogorov_sf(round(n / 2), d)
    h = int(np.round(d * n))
    d = h * 1.0 / n
    if h == 0:
        return d, 1.0
    prob = _prob_outside_square(n, h)
    if not 0 <= prob <= 1:
        prob = kolmogorov_sf(round(n / 2), d)
    return d, prob
