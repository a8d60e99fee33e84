"""Parametric models for the right tail of jittered objective values.

Two tail-focused fits: a generalized Pareto on the exceedances over a high
quantile threshold (the composite model keeps the empirical distribution
below the threshold), and a Weibull whose likelihood treats everything
below the threshold as left-censored at it.  Plain Weibull and Log-Normal
fits over the whole sample serve as comparators.  Objective values can be
negative; when a sample reaches zero or below, positive-support families
are fitted on data shifted by min(x) - 1e-6 and the shift is stored and
inverted on evaluation.
"""

import logging
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# scipy is imported where it is called (special for the lognormal here,
# integrate in records.py), not at module load: it costs about 0.4 s and
# 43 MB at start-up, and the fits never use it.

from .errors import (
    DegenerateSampleError,
    InsufficientTailDataError,
    NonConvergenceError,
)
from .textio import Cells, float_cells, write_csv, write_json

_MIN_EXCEEDANCES = 30
_XI_EXP_BRANCH = 1e-6  # |xi| below this uses the exponential-limit formulas
_SHIFT_MARGIN = 1e-6
_SOLVE_OPTIONS = {"xatol": 1e-10, "maxiter": 500}
# The GPD fit's coarse grid over u = log1p(theta * z_max): u -> -inf is the
# support bound theta = -1/z_max and u = 0 the exponential limit theta = 0.
_GPD_GRID = np.linspace(-20.0, 20.0, 21).tolist()
_XI_MIN = math.nextafter(-0.99, 0.0)  # the shape constraint xi > -0.99
_LOG_SHAPE_BOUNDS = (-12.0, 12.0)  # the Weibull fit's range of log shape
_REAL = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class GpdFit:
    """Generalized Pareto over threshold mu: scale sigma, shape xi."""

    mu: float
    sigma: float
    xi: float
    n_exceed: int
    loglik: float


@dataclass(frozen=True)
class CensWeibullFit:
    """Weibull fitted with everything below `threshold` left-censored.

    Parameters live on the shifted axis x - shift; threshold is stored in
    original units.
    """

    shape: float
    scale: float
    threshold: float
    n_noncensored: int
    n_censored: int
    loglik: float
    shift: float


# ---------------------------------------------------------------------------
# Evaluators: one closed form per family, vectorized over 1-d float arrays


class _Composite:
    """Empirical body (ecdf, histogram density, order-statistic quantile)
    with an optional peaks-over-threshold tail (mu, sigma, xi, p_tail):
    above mu the survival is p_tail * H((x - mu) / sigma), H the GPD
    survival."""

    def __init__(self, sample, tail=None):
        x = _check_values(sample)
        self.sorted = x.copy() if np.all(x[1:] >= x[:-1]) else np.sort(x)
        self.tail = tail

    @cached_property
    def hist(self):
        """(density, edges) of the body below the tail, or None if empty;
        built on the first pdf call."""
        body = self.sorted if self.tail is None else self.sorted[self.sorted <= self.tail[0]]
        return np.histogram(body, bins="auto", density=True) if body.size else None

    def _standard_gpd(self, x, extra_power):
        """GPD survival (extra_power 0) or density (1) at the standardized
        exceedance of x, floored at zero."""
        mu, sigma, xi, _ = self.tail
        z = np.maximum((x - mu) / sigma, 0.0)
        if abs(xi) < _XI_EXP_BRANCH:
            return np.exp(-z)
        w = 1.0 + xi * z
        power = -1.0 / xi - extra_power
        return np.where(w > 0.0, np.power(np.maximum(w, 1e-300), power), 0.0)

    def survival(self, x):
        body = 1.0 - np.searchsorted(self.sorted, x, side="right") / self.sorted.size
        if self.tail is None:
            return body
        mu, _, _, p_tail = self.tail
        return np.where(x >= mu, p_tail * self._standard_gpd(x, 0.0), body)

    def pdf(self, x):
        body = np.zeros_like(x) if self.hist is None else _hist_density(self.hist, x)
        if self.tail is None:
            return body
        mu, sigma, _, p_tail = self.tail
        return np.where(x >= mu, p_tail * self._standard_gpd(x, 1.0) / sigma,
                        (1.0 - p_tail) * body)

    def quantile(self, q):
        # Order statistic ceil(n q) - 1: numpy's "inverted_cdf" quantile
        # without its partition per level.
        n = self.sorted.size
        out = self.sorted[np.clip(np.ceil(n * q).astype(np.intp) - 1, 0, n - 1)]
        if self.tail is None:
            return out
        mu, sigma, xi, p_tail = self.tail
        hi = q > 1.0 - p_tail
        u = (1.0 - q[hi]) / p_tail
        if abs(xi) < _XI_EXP_BRANCH:
            out[hi] = mu - sigma * np.log(u)
        else:
            out[hi] = mu + sigma * (np.power(u, -xi) - 1.0) / xi
        return out


def _hist_density(hist, x):
    """Density of a (density, edges) histogram at x; zero outside its edges."""
    dens, edges = hist
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, dens.size - 1)
    return np.where((x >= edges[0]) & (x <= edges[-1]), dens[idx], 0.0)


class _Weibull:
    """Weibull(shape, scale) on x - shift; the exponential is shape 1."""

    def __init__(self, shape, scale, shift):
        self.shape, self.scale, self.shift = shape, scale, shift

    def survival(self, x):
        z = np.maximum(x - self.shift, 0.0) / self.scale
        return np.exp(-np.power(z, self.shape))

    def pdf(self, x):
        y = x - self.shift
        out = np.zeros_like(y)
        pos = y > 0
        z = y[pos] / self.scale
        k = self.shape
        out[pos] = (k / self.scale) * np.power(z, k - 1.0) * np.exp(-np.power(z, k))
        return out

    def quantile(self, q):
        return self.shift + self.scale * np.power(-np.log1p(-q), 1.0 / self.shape)


class _LogNormal:
    """Normal(mu, sigma) on log(x - shift)."""

    def __init__(self, mu, sigma, shift):
        self.mu, self.sigma, self.shift = mu, sigma, shift

    def survival(self, x):
        from scipy import special

        y = x - self.shift
        out = np.ones_like(y)
        pos = y > 0
        out[pos] = special.ndtr(-(np.log(y[pos]) - self.mu) / self.sigma)
        return out

    def pdf(self, x):
        y = x - self.shift
        out = np.zeros_like(y)
        pos = y > 0
        z = (np.log(y[pos]) - self.mu) / self.sigma
        out[pos] = np.exp(-0.5 * z * z) / (
            y[pos] * self.sigma * math.sqrt(2.0 * math.pi)
        )
        return out

    def quantile(self, q):
        from scipy import special

        return self.shift + np.exp(self.mu + self.sigma * special.ndtri(q))


# family -> (parameters that must be positive, evaluator built from
# (params, shift, sample))
_FAMILIES = {
    "gpd": (("sigma",), lambda p, shift, sample: _Composite(
        sample, (p["mu"], p["sigma"], p["xi"], p["p_tail"])
    )),
    "empirical": ((), lambda p, shift, sample: _Composite(sample)),
    "weibull": (("shape", "scale"),
                lambda p, shift, sample: _Weibull(p["shape"], p["scale"], shift)),
    "exponential": (("rate",),
                    lambda p, shift, sample: _Weibull(1.0, 1.0 / p["rate"], p["loc"])),
    "lognormal": (("sigma",),
                  lambda p, shift, sample: _LogNormal(p["mu"], p["sigma"], shift)),
}
_FAMILIES["cens_weibull"] = _FAMILIES["weibull"]


def _is_number(value) -> bool:
    """A finite int or float, numpy's included: not a bool, a NaN, an
    infinity or an int beyond the range of a float."""
    try:
        return (isinstance(value, _REAL) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _elementwise(fn, x):
    """Apply an evaluator to a float array; scalars in give floats out."""
    x = np.asarray(x, dtype=np.float64)
    out = fn(np.atleast_1d(x))
    return float(out[0]) if x.ndim == 0 else out


class FittedCdf:
    """Evaluable fitted distribution: cdf, survival, pdf and quantile.

    family is one of gpd, cens_weibull, weibull, lognormal, exponential,
    empirical; an unknown family, a missing parameter, a non-positive
    scale, shape or rate, a parameter, shift or non-None threshold or
    loglik that fails _is_number, or an n_used that is not an integer
    >= 0 raises ValueError here.  The gpd family is the composite
    peaks-over-threshold model: empirical below the threshold,
    1 - p_tail + p_tail * H(r) above it, with p_tail the exceedance
    fraction; empirical is the same composite with no tail.  Survival is
    computed directly (not as 1 - cdf) so tiny tail probabilities keep
    precision.
    """

    def __init__(self, family, params, shift=0.0, threshold=None,
                 loglik=None, n_used=0, sample=None):
        self.family = family
        self.params = dict(params)
        self.threshold = threshold
        self.loglik = loglik
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if not (isinstance(n_used, (int, np.integer)) and not isinstance(n_used, bool)
                and n_used >= 0):
            raise ValueError(f"n_used must be an integer >= 0, got {n_used!r}")
        self.n_used = int(n_used)
        positive, build = _FAMILIES[family]
        optional = (("threshold", threshold), ("loglik", loglik))
        scalars = [("shift", shift), *((n, v) for n, v in optional if v is not None)]
        try:
            for name, value in [*self.params.items(), *scalars]:
                if name in positive and isinstance(value, _REAL) and not value > 0:
                    raise ValueError(f"{name} must be positive, got {value}")
                if not _is_number(value):
                    raise ValueError(f"{name} must be a finite real number, got {value!r}")
            self.shift = float(shift)
            self._eval = build(self.params, self.shift, sample)
        except KeyError as exc:
            raise ValueError(f"{family} model is missing parameter {exc}") from None

    def survival(self, x):
        return _elementwise(self._eval.survival, x)

    def cdf(self, x):
        return 1.0 - self.survival(x)

    def pdf(self, x):
        return _elementwise(self._eval.pdf, x)

    def quantile(self, q):
        q = np.asarray(q, dtype=np.float64)
        if not np.all((q >= 0) & (q <= 1)):
            raise ValueError("quantile levels must lie in [0, 1]")
        return _elementwise(self._eval.quantile, q)


# ---------------------------------------------------------------------------
# Fitting


def _check_values(values) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise ValueError("values must be a nonempty finite array")
    return x


def _support_shift(x: np.ndarray) -> float:
    """Shift making the sample strictly positive; zero when it already is.

    Shifting already-positive data would distort the fitted shape (the
    log-scale left tail stretches), so it only applies when needed.
    """
    m = float(x.min())
    return 0.0 if m > 0 else m - _SHIFT_MARGIN


def sorted_quantile(srt: np.ndarray, q: float) -> float:
    """np.quantile (linear method) of a sample at level q, read from the
    sample sorted ascending: the same two order statistics and the same
    interpolation, without numpy's partition."""
    v = (srt.size - 1) * q
    lo = math.floor(v)
    g = v - lo
    a, b = float(srt[lo]), float(srt[min(lo + 1, srt.size - 1)])
    d = b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g


# The fits' two Brent solvers are scipy's, ported step for step to plain
# floats: the same bits, without loading scipy.optimize.
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SOLVE_MESSAGES = ("Solution found.", "Maximum number of function calls reached.",
                   "NaN result encountered.")


def _fminbound(f, a: float, b: float, xatol: float, maxiter: int):
    """(x, evaluations, status) of scipy's bounded minimiser
    (_minimize_scalar_bounded, Forsythe-Malcolm-Moler fmin): status 0
    converged, 1 reached maxiter evaluations, 2 met a NaN."""
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = f(xf)
    num, status, fu = 1, 0, math.inf
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    while abs(xf - xm) > 2.0 * tol1 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the last three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < 2.0 * tol1 or b - x < 2.0 * tol1:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        if num >= maxiter:
            status = 1
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        status = 2
    return xf, num, status


def _bounded_argmin(f, lo: float, hi: float) -> float:
    """Bounded Brent minimiser of a scalar function on [lo, hi]; a solve
    that ends on a bound or at its iteration cap is logged at DEBUG."""
    x, nfev, status = _fminbound(f, lo, hi, **_SOLVE_OPTIONS)
    if status != 0 or min(x - lo, hi - x) <= 1e-6 * (hi - lo):
        logging.getLogger(__name__).debug(
            "bounded solve on [%g, %g] stopped at %.17g after %d evaluations: %s",
            lo, hi, x, nfev, _SOLVE_MESSAGES[status]
        )
    return x


def _brentq(f, xa: float, xb: float, xtol: float, maxiter: int = 100) -> float:
    """A root of f between xa and xb by scipy's brentq (its C code, rtol
    4 eps); signs compare as C's signbit does.  f(xa) and f(xb) of one sign
    raise ValueError, and maxiter iterations raise NonConvergenceError."""
    xpre, xcur, fpre, fcur = xa, xb, f(xa), f(xb)
    if fpre == 0 or fcur == 0:
        return xa if fpre == 0 else xb
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + 4 * sys.float_info.epsilon * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect, as C does where the step divides by zero
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                if den := dblk * dpre * (fblk - fpre):
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NonConvergenceError(f"root solve failed to converge after {maxiter} iterations")


def _gpd_profile(u: float, exc: np.ndarray, zmax: float):
    """(negative log-likelihood, sigma, xi) of the exceedances at
    theta = xi / sigma = expm1(u) / zmax, maximised over the shape.

    The unconstrained maximiser is xi = mean(log1p(theta z)); below the
    constraint the likelihood falls monotonically, so xi is clipped to it.
    u = 0 is the exponential limit theta = 0, where sigma = mean(z).
    """
    theta = math.expm1(u) / zmax
    if theta == 0.0:
        sigma = float(exc.mean())
        return exc.size * (math.log(sigma) + 1.0), sigma, 0.0
    xihat = float(np.log1p(theta * exc).sum()) / exc.size
    xi = max(xihat, _XI_MIN)
    sigma = xi / theta
    # xihat / xi is 1 unless xi is clipped: the term is (1 + 1/xi) xihat
    return exc.size * (math.log(sigma) + xihat + xihat / xi), sigma, xi


def fit_gpd_sorted(srt: np.ndarray, threshold_quantile: float = 0.9) -> GpdFit:
    """fit_gpd_pot of a finite sample already sorted ascending."""
    if not 0.0 <= threshold_quantile < 1.0:
        raise ValueError("threshold_quantile must lie in [0, 1)")
    mu = sorted_quantile(srt, threshold_quantile)
    exc = srt[np.searchsorted(srt, mu, side="right"):] - mu
    if exc.size < _MIN_EXCEEDANCES:
        raise InsufficientTailDataError(
            f"{exc.size} exceedances above threshold, need >= {_MIN_EXCEEDANCES}"
        )
    zmax = float(exc[-1])
    # One pass over the exceedances per grid point: a (grid, m) array costs
    # more than this loop once m reaches thousands.
    i = int(np.argmin([_gpd_profile(u, exc, zmax)[0] for u in _GPD_GRID]))
    u = _bounded_argmin(lambda u: _gpd_profile(u, exc, zmax)[0],
                        _GPD_GRID[max(i - 1, 0)], _GPD_GRID[min(i + 1, len(_GPD_GRID) - 1)])
    nll, sigma, xi = _gpd_profile(u, exc, zmax)
    if not (math.isfinite(nll) and sigma > 0):
        raise NonConvergenceError("GPD likelihood optimization failed")
    return GpdFit(mu=mu, sigma=sigma, xi=xi, n_exceed=int(exc.size), loglik=-nll)


def fit_gpd_pot(values, threshold_quantile: float = 0.9) -> GpdFit:
    """Peaks-over-threshold GPD fit at the given quantile threshold.

    Needs at least 30 exceedances.  Maximum likelihood by Grimshaw's
    profile in theta = xi / sigma (Technometrics 1993): for a fixed theta
    the best shape is the mean of log1p(theta z), so a coarse grid over
    theta > -1/z_max and one bounded scalar solve find the fit.  Shapes
    are constrained to xi > -0.99, where the likelihood is regular.  The
    exceedances are taken from the sorted sample, so the fit does not
    depend on the order of the values.
    """
    return fit_gpd_sorted(np.sort(_check_values(values)), threshold_quantile)


def _exp_ratio(y: float) -> float:
    """y / expm1(y), with its limit 1 at y = 0."""
    return y / math.expm1(y) if y > 0 else 1.0


def _censored_log_y(n1: int, n_cens: int, log_r: float) -> float:
    """log y solving n1 + n_cens y / expm1(y) = y R, with log_r = log R:
    the Weibull rate's score equation in y = (censor point / scale)^shape.
    The root lies between log(n1 / R) and log((n1 + n_cens) / R)."""
    def excess(ly):
        return math.log(n1 + n_cens * _exp_ratio(math.exp(ly))) - ly - log_r

    a, b = math.log(n1) - log_r, math.log(n1 + n_cens) - log_r
    if excess(b) >= 0.0:
        return b
    if excess(a) <= 0.0:
        return a
    return _brentq(excess, a, b, xtol=1e-14)


def fit_censored_weibull(values, threshold_quantile: float = 0.9) -> CensWeibullFit:
    """Weibull MLE with the sample below the threshold left-censored at it.

    Samples reaching zero or below are first shifted to strictly positive
    support; threshold_quantile = 0 censors nothing and reduces to the
    plain Weibull MLE.  A sample with variance below 1e-12 is degenerate.
    For a fixed shape k, the best rate b = scale^-k solves one scalar
    equation in S_k = sum x^k (b = n / S_k when nothing is censored), so
    one bounded solve over log k finds the fit.
    """
    x = _check_values(values)
    if not 0.0 <= threshold_quantile < 1.0:
        raise ValueError("threshold_quantile must lie in [0, 1)")
    if x.var() < 1e-12:
        raise DegenerateSampleError("degenerate sample: variance below 1e-12")
    shift = _support_shift(x)
    xs = x - shift
    thr = float(np.quantile(xs, threshold_quantile))
    nonc = xs[xs >= thr]
    n1 = nonc.size
    n_cens = int(xs.size - n1)
    if n1 < _MIN_EXCEEDANCES:
        raise InsufficientTailDataError(
            f"{n1} non-censored points, need >= {_MIN_EXCEEDANCES}"
        )
    # Powers are taken of x / top <= 1, so S_k / top^k never overflows.
    top = float(nonc.max())
    log_ratio = np.log(nonc / top)
    sum_log_ratio = float(log_ratio.sum())
    log_censor = math.log(thr / top)

    def profile(log_k):
        """(log-likelihood, log(b top^k)) at the best rate for shape e^log_k."""
        k = math.exp(log_k)
        log_s = math.log(float(np.exp(k * log_ratio).sum()))
        if n_cens:
            ly = _censored_log_y(n1, n_cens, log_s - k * log_censor)
            y = math.exp(ly)
            log_b = ly - k * log_censor
            b_s = n1 + n_cens * _exp_ratio(y)
            censored = n_cens * (math.log(-math.expm1(-y)) if y > 0 else ly)
        else:
            log_b, b_s, censored = math.log(n1) - log_s, n1, 0.0
        ll = n1 * (log_k + log_b - math.log(top)) + (k - 1.0) * sum_log_ratio - b_s + censored
        return ll, log_b

    log_k = _bounded_argmin(lambda t: -profile(t)[0], *_LOG_SHAPE_BOUNDS)
    loglik, log_b = profile(log_k)
    shape = math.exp(log_k)
    scale = top * math.exp(-log_b / shape)
    if not (math.isfinite(loglik) and scale > 0):
        raise NonConvergenceError("Weibull likelihood optimization failed")
    return CensWeibullFit(
        shape=shape,
        scale=scale,
        threshold=thr + shift,
        n_noncensored=n1,
        n_censored=n_cens,
        loglik=loglik,
        shift=shift,
    )


def fit_comparators(values) -> list:
    """Uncensored Weibull and Log-Normal MLE fits over a whole sample of at
    least 30 points (the Weibull is the censored fit with nothing censored)."""
    x = _check_values(values)
    fit = fit_censored_weibull(x, 0.0)
    weib = FittedCdf("weibull", {"shape": fit.shape, "scale": fit.scale},
                     shift=fit.shift, loglik=fit.loglik, n_used=x.size)
    xs = x - fit.shift

    logs = np.log(xs)
    mu = float(logs.mean())
    sd = float(logs.std())
    if sd < 1e-12:
        raise DegenerateSampleError("degenerate sample on the log scale")
    ll = float(
        -0.5 * xs.size * math.log(2.0 * math.pi)
        - xs.size * math.log(sd)
        - logs.sum()
        - ((logs - mu) ** 2).sum() / (2.0 * sd * sd)
    )
    lognorm = FittedCdf(
        "lognormal",
        {"mu": mu, "sigma": sd},
        shift=fit.shift,
        loglik=ll,
        n_used=xs.size,
    )
    return [weib, lognorm]


# ---------------------------------------------------------------------------
# FittedCdf builders


def fitted_cdf_from_gpd(fit: GpdFit, values) -> FittedCdf:
    x = _check_values(values)
    p_tail = fit.n_exceed / x.size
    return FittedCdf(
        "gpd",
        {"mu": fit.mu, "sigma": fit.sigma, "xi": fit.xi, "p_tail": p_tail},
        threshold=fit.mu,
        loglik=fit.loglik,
        n_used=fit.n_exceed,
        sample=x,
    )


def fitted_cdf_from_cens_weibull(fit: CensWeibullFit) -> FittedCdf:
    return FittedCdf(
        "cens_weibull",
        {"shape": fit.shape, "scale": fit.scale},
        shift=fit.shift,
        threshold=fit.threshold,
        loglik=fit.loglik,
        n_used=fit.n_noncensored + fit.n_censored,
    )


def empirical_cdf(values) -> FittedCdf:
    x = _check_values(values)
    return FittedCdf("empirical", {}, n_used=x.size, sample=x)


def exponential_cdf(rate: float = 1.0, loc: float = 0.0) -> FittedCdf:
    return FittedCdf("exponential", {"rate": rate, "loc": loc})


# ---------------------------------------------------------------------------
# Diagnostics and exports


def qq_points(fit: FittedCdf, values, upper_tail_only: bool = False) -> np.ndarray:
    """(theoretical, empirical) quantile pairs at positions (i - 0.5)/m.

    With upper_tail_only the sample is restricted to values above the
    fit's threshold and positions map into the conditional distribution
    above it.
    """
    x = _check_values(values)
    if upper_tail_only:
        if fit.threshold is None:
            raise ValueError("fit has no threshold to restrict to")
        x = x[x > fit.threshold]
        if x.size == 0:
            raise InsufficientTailDataError("no values above the fit threshold")
    srt = np.sort(x)
    m = srt.size
    pp = (np.arange(1, m + 1) - 0.5) / m
    if upper_tail_only:
        base = float(fit.cdf(fit.threshold))
        pp = base + pp * (1.0 - base)
    theo = fit.quantile(pp)
    return np.column_stack([theo, srt])


def write_fit_report(fit: FittedCdf, path, meta: dict | None = None) -> None:
    write_json(path, {
        "family": fit.family,
        "parameters": fit.params,
        "threshold": fit.threshold,
        "shift": fit.shift,
        "loglik": fit.loglik,
        "n_used": fit.n_used,
        **(meta or {}),
    })


def write_qq_csv(points: np.ndarray, path) -> None:
    _write_qq(points, path, None)


def _write_qq(points: np.ndarray, path, sample):
    """write_qq_csv; returns sample, or (empirical column, its cells) when
    sample is None.  fit-tail passes the return to each later write of the
    same sample, whose empirical columns are all suffixes of the first:
    those cells are reused, and a theoretical value is formatted only where
    its bits differ from the empirical value beside it."""
    theo, emp = points.T
    sample = sample or (emp, float_cells(emp))
    write_csv(path, ("theoretical", "empirical"),
              [Cells(float_cells(theo, sample)), Cells(float_cells(emp, sample))])
    return sample


def write_density_overlay(fit: FittedCdf, values, path) -> None:
    """CSV of empirical histogram density and fitted density on a
    512-point grid over the sample range."""
    x = _check_values(values)
    grid = np.linspace(x.min(), x.max(), 512)
    write_csv(path, ("x", "empirical_density", "fitted_density"),
              [grid, _hist_density(np.histogram(x, bins="auto", density=True), grid),
               fit.pdf(grid)])
