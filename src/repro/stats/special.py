"""numpy ports of the Cephes special functions generation needs.

Image generation maps every body file size through the normal quantile and
builds its depth table from Poisson log terms.  scipy computes those with the
Cephes routines ``ndtri``, ``ndtr``/``erf``/``erfc`` and ``lgam``; the ports
here follow the same tables and the same operation order, so they agree with
``scipy.special`` bit for bit and an image does not change when they replace
it.  Importing ``scipy.special`` would cost a generating process about 0.3 s
and 18 MB of peak RSS.

Two details keep the ports exact:

* Polynomials are evaluated with Horner's rule on whole arrays; numpy's
  elementwise ``*``, ``+``, ``/`` and ``sqrt`` are correctly rounded, as the
  C code's are.
* Logarithms and exponentials go through :mod:`math`, one element at a time,
  because ``math`` calls the C library as Cephes does; numpy's vectorised
  ``log`` and ``exp`` may differ from it in the last bit.

Stdlib shortcuts are not exact either: ``math.erf``/``math.erfc``,
``math.lgamma`` and ``statistics.NormalDist.inv_cdf`` each differ from
scipy's values in the last bit for many arguments.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtri", "ndtr", "log_factorial", "xlogy"]


def _polevl(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    """Cephes ``polevl``: ``coefficients[0] * x**N + ... + coefficients[N]``."""
    result = np.full_like(x, coefficients[0])
    for coefficient in coefficients[1:]:
        result = result * x + coefficient
    return result


def _p1evl(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    """Cephes ``p1evl``: :func:`_polevl` with an implied leading coefficient 1."""
    result = x + coefficients[0]
    for coefficient in coefficients[1:]:
        result = result * x + coefficient
    return result


def _map(function, x: np.ndarray) -> np.ndarray:
    """Apply a scalar :mod:`math` function to each element of a 1-D array."""
    return np.fromiter(map(function, x.tolist()), dtype=float, count=x.size)


# ndtri ------------------------------------------------------------------------

_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# Approximation for 0 <= |y - 0.5| <= 3/8.
_NDTRI_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# Approximation for interval z = sqrt(-2 log y) between 2 and 8, i.e.
# y between exp(-2) = .135 and exp(-32) = 1.27e-14.
_NDTRI_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# Approximation for interval z = sqrt(-2 log y) between 8 and 64, i.e.
# y between exp(-32) = 1.27e-14 and exp(-2048) = 3.67e-890.
_NDTRI_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def ndtri(y: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF, bit-identical to ``scipy.special.ndtri``.

    Returns ``-inf`` at 0, ``inf`` at 1 and nan outside [0, 1] or at nan.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    out = np.full(flat.shape, np.nan)
    # A nan runs through Cephes' tail branch and comes out negated.
    nan = np.isnan(flat)
    out[nan] = -flat[nan]
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf
    inside = (flat > 0.0) & (flat < 1.0)
    # Cephes folds the upper tail onto the lower one: y -> 1 - y, negated.
    upper = inside & (flat > 1.0 - _EXP_M2)
    folded = np.where(upper, 1.0 - flat, flat)
    central = inside & (folded > _EXP_M2)
    v = folded[central] - 0.5
    v2 = v * v
    x = v + v * (v2 * _polevl(v2, _NDTRI_P0) / _p1evl(v2, _NDTRI_Q0))
    out[central] = x * _S2PI
    tail = inside & ~central
    x = np.sqrt(-2.0 * _map(math.log, folded[tail]))
    x0 = x - _map(math.log, x) / x
    z = 1.0 / x
    near = x < 8.0
    x1 = np.empty_like(x)
    zn = z[near]
    x1[near] = zn * _polevl(zn, _NDTRI_P1) / _p1evl(zn, _NDTRI_Q1)
    zf = z[~near]
    x1[~near] = zf * _polevl(zf, _NDTRI_P2) / _p1evl(zf, _NDTRI_Q2)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out.reshape(y.shape)[()]


# ndtr -------------------------------------------------------------------------

_SQRT1_2 = 0.7071067811865475244008443621048490  # 1/sqrt(2)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)

_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)


def _erf_small(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf`` for ``|x| <= 1`` (odd, so the sign carries through)."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc_positive(x: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` for ``x >= 1``; 0 where it underflows, as at inf."""
    out = np.zeros_like(x)
    with np.errstate(over="ignore"):
        z = -x * x
    live = z >= -_MAXLOG
    xl = x[live]
    e = _map(math.exp, z[live])
    near = xl < 8.0
    p = np.empty_like(xl)
    q = np.empty_like(xl)
    p[near] = _polevl(xl[near], _ERFC_P)
    q[near] = _p1evl(xl[near], _ERFC_Q)
    p[~near] = _polevl(xl[~near], _ERFC_R)
    q[~near] = _p1evl(xl[~near], _ERFC_S)
    out[live] = (e * p) / q
    return out


def ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, bit-identical to ``scipy.special.ndtr``."""
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    out = np.full(flat.shape, np.nan)
    x = flat * _SQRT1_2
    z = np.abs(x)
    small = z < _SQRT1_2
    out[small] = 0.5 + 0.5 * _erf_small(x[small])
    large = z >= _SQRT1_2
    zl = z[large]
    # Cephes erfc(z) is 1 - erf(z) below 1, and erf stays on its polynomial there.
    below_one = zl < 1.0
    tail = np.empty_like(zl)
    tail[below_one] = 1.0 - _erf_small(zl[below_one])
    tail[~below_one] = _erfc_positive(zl[~below_one])
    y = 0.5 * tail
    out[large] = np.where(x[large] > 0, 1.0 - y, y)
    return out.reshape(a.shape)[()]


# Poisson log terms ----------------------------------------------------------

_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # lgam overflows above this
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _lgam_integer(x: float) -> float:
    """Cephes ``lgam`` at a positive integer ``x`` (or +inf)."""
    if x < 13.0:
        # The product path: for an integer x, z = (x-1)(x-2)...2 and u ends at 2.
        z = 1.0
        u = x
        while u >= 3.0:
            u -= 1.0
            z *= u
        return math.log(z)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    else:
        series = _LGAM_A[0]
        for coefficient in _LGAM_A[1:]:
            series = series * p + coefficient
        q += series / x
    return q


def log_factorial(k: np.ndarray) -> np.ndarray:
    """``log(k!)`` for non-negative integer (or +inf) ``k``, as ``scipy.special.gammaln(k + 1)``."""
    k = np.asarray(k, dtype=float)
    return _map(_lgam_integer, (k + 1.0).ravel()).reshape(k.shape)[()]


def xlogy(k: np.ndarray, lam: float) -> np.ndarray:
    """``k * log(lam)``, and 0 where ``k == 0``, as ``scipy.special.xlogy(k, lam)``."""
    k = np.asarray(k, dtype=float)
    return np.where(k == 0, 0.0, k * math.log(lam))[()]
