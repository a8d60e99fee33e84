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
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import optimize, special

from .errors import (
    DegenerateSampleError,
    InsufficientTailDataError,
    NonConvergenceError,
)
from .textio import write_csv, write_json

_MIN_EXCEEDANCES = 30
_XI_EXP_BRANCH = 1e-6  # |xi| below this uses the exponential-limit formulas
_SHIFT_MARGIN = 1e-6
_NM_OPTIONS = {"xatol": 1e-9, "fatol": 1e-12, "maxfev": 10_000}
_PENALTY = 1e18


@dataclass(frozen=True)
class GpdFit:
    """Generalized Pareto over threshold mu: scale sigma, shape xi."""

    mu: float
    sigma: float
    xi: float
    n_exceed: int
    loglik: float
    threshold_quantile: float


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
    threshold_quantile: float


# ---------------------------------------------------------------------------
# Evaluators: one closed form per family, vectorized over 1-d float arrays


class _Composite:
    """Empirical body (ecdf, histogram density, order-statistic quantile)
    with an optional peaks-over-threshold tail (mu, sigma, xi, p_tail):
    above mu the survival is p_tail * H((x - mu) / sigma), H the GPD
    survival."""

    def __init__(self, sample, tail=None):
        self.sorted = np.sort(_check_values(sample))
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


def _elementwise(fn, x):
    """Apply an evaluator to a float array; scalars in give floats out."""
    x = np.asarray(x, dtype=np.float64)
    out = fn(np.atleast_1d(x))
    return float(out[0]) if x.ndim == 0 else out


class FittedCdf:
    """Evaluable fitted distribution: cdf, survival, pdf and quantile.

    family is one of gpd, cens_weibull, weibull, lognormal, exponential,
    empirical; an unknown family, a missing parameter or a non-positive
    scale, shape or rate raises ValueError here.  The gpd family is the
    composite peaks-over-threshold model: empirical below the threshold,
    1 - p_tail + p_tail * H(r) above it, with p_tail the exceedance
    fraction; empirical is the same composite with no tail.  Survival is
    computed directly (not as 1 - cdf) so tiny tail probabilities keep
    precision.
    """

    def __init__(self, family, params, shift=0.0, threshold=None,
                 loglik=None, n_used=0, sample=None):
        self.family = family
        self.params = dict(params)
        self.shift = float(shift)
        self.threshold = threshold
        self.loglik = loglik
        self.n_used = int(n_used)
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        positive, build = _FAMILIES[family]
        try:
            for name in positive:
                if not self.params[name] > 0:
                    raise ValueError(f"{name} must be positive, got {self.params[name]}")
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


def _nelder_mead(nll, x0):
    res = optimize.minimize(nll, x0, method="Nelder-Mead", options=_NM_OPTIONS)
    if not res.success:
        logging.getLogger(__name__).debug(
            "Nelder-Mead stopped unconverged after %d evaluations: %s", res.nfev, res.message
        )
    x = res.x
    val = nll(x)
    if not np.all(np.isfinite(x)) or not np.isfinite(val) or val >= _PENALTY:
        raise NonConvergenceError("optimizer failed to find usable estimates")
    return x, -val


def _gpd_pwm_start(exc: np.ndarray):
    """Probability-weighted-moment initial values for (sigma, xi)."""
    srt = np.sort(exc)
    n = srt.size
    a0 = srt.mean()
    a1 = float((srt * (1.0 - (np.arange(1, n + 1) - 0.35) / n)).mean())
    denom = a0 - 2.0 * a1
    if denom <= 0 or a1 <= 0:
        return max(a0, 1e-12), 0.0
    rho = a0 / a1
    xi = (4.0 - rho) / (2.0 - rho) if rho != 2.0 else 0.0
    xi = float(np.clip(xi, -0.9, 0.9))
    sigma = max(a0 * (1.0 - xi), 1e-12)
    return sigma, xi


def gpd_exceedance_loglik(sigma: float, xi: float, exc: np.ndarray) -> float:
    """Log-likelihood of exceedances y - mu >= 0 under GPD(sigma, xi)."""
    if sigma <= 0 or xi <= -0.99:
        return -np.inf
    z = exc / sigma
    if abs(xi) < _XI_EXP_BRANCH:
        return float(-exc.size * math.log(sigma) - z.sum())
    w = 1.0 + xi * z
    if w.min() <= 0:
        return -np.inf
    return float(-exc.size * math.log(sigma) - (1.0 + 1.0 / xi) * np.log(w).sum())


def fit_gpd_pot(values, threshold_quantile: float = 0.9) -> GpdFit:
    """Peaks-over-threshold GPD fit at the given quantile threshold.

    Needs at least 30 exceedances.  Maximum likelihood over (log sigma,
    xi) by Nelder-Mead from probability-weighted-moment starts; shapes
    are constrained to xi > -0.99 where the likelihood is regular.
    """
    x = _check_values(values)
    if not 0.0 <= threshold_quantile < 1.0:
        raise ValueError("threshold_quantile must lie in [0, 1)")
    mu = float(np.quantile(x, threshold_quantile))
    exc = x[x > mu] - mu
    if exc.size < _MIN_EXCEEDANCES:
        raise InsufficientTailDataError(
            f"{exc.size} exceedances above threshold, need >= {_MIN_EXCEEDANCES}"
        )
    zmax = float(exc.max())

    def nll(params):
        sigma, xi = math.exp(params[0]), params[1]
        if xi <= -0.99:
            return _PENALTY * (1.0 + (0.99 + xi) ** 2)
        # Grade the support violation so the simplex can walk back in.
        w_min = 1.0 + xi * zmax / sigma
        if w_min <= 0.0:
            return _PENALTY * (1.0 - w_min)
        ll = gpd_exceedance_loglik(sigma, xi, exc)
        return _PENALTY if not np.isfinite(ll) else -ll

    s0, xi0 = _gpd_pwm_start(exc)
    if xi0 < 0:
        # Moment starts can put the endpoint below the largest exceedance.
        s0 = max(s0, 1.05 * -xi0 * zmax)
    starts = [np.array([math.log(s0), xi0]),
              np.array([math.log(max(exc.mean(), 1e-12)), 0.0])]
    best, loglik = None, -np.inf
    for x0 in starts:
        try:
            cand, ll = _nelder_mead(nll, x0)
        except NonConvergenceError:
            continue
        if ll > loglik:
            best, loglik = cand, ll
    if best is None:
        raise NonConvergenceError("GPD likelihood optimization failed")
    return GpdFit(
        mu=mu,
        sigma=float(math.exp(best[0])),
        xi=float(best[1]),
        n_exceed=int(exc.size),
        loglik=float(loglik),
        threshold_quantile=threshold_quantile,
    )


def _weibull_regression_start(x: np.ndarray):
    """Slope of log(-log(1-F)) on log(x) gives a starting shape."""
    srt = np.sort(x)
    n = srt.size
    pp = (np.arange(1, n + 1) - 0.5) / n
    ly = np.log(-np.log1p(-pp))
    lx = np.log(srt)
    var = lx.var()
    shape = 1.0 if var <= 0 else float(np.cov(lx, ly)[0, 1] / var)
    shape = float(np.clip(shape, 0.05, 50.0))
    scale = float(np.exp(lx.mean() - ly.mean() / shape))
    return shape, max(scale, 1e-12)


def censored_weibull_loglik(shape: float, scale: float, noncensored: np.ndarray,
                            censor_point: float, n_censored: int) -> float:
    """Likelihood with n_censored observations left-censored at censor_point."""
    if shape <= 0 or scale <= 0:
        return -np.inf
    z = noncensored / scale
    ll = float(
        noncensored.size * (math.log(shape) - math.log(scale))
        + (shape - 1.0) * np.log(z).sum()
        - np.power(z, shape).sum()
    )
    if n_censored:
        t = (censor_point / scale) ** shape
        # log F(censor_point) = log(1 - exp(-t)), kept stable for tiny t
        ll += n_censored * math.log(-math.expm1(-t))
    return ll


def fit_censored_weibull(values, threshold_quantile: float = 0.9) -> CensWeibullFit:
    """Weibull MLE with the sample below the threshold left-censored at it.

    Samples reaching zero or below are first shifted to strictly positive
    support; threshold_quantile = 0 censors nothing and reduces to the
    plain Weibull MLE.
    """
    x = _check_values(values)
    if not 0.0 <= threshold_quantile < 1.0:
        raise ValueError("threshold_quantile must lie in [0, 1)")
    shift = _support_shift(x)
    xs = x - shift
    thr = float(np.quantile(xs, threshold_quantile))
    nonc = xs[xs >= thr]
    n_cens = int(xs.size - nonc.size)
    if nonc.size < _MIN_EXCEEDANCES:
        raise InsufficientTailDataError(
            f"{nonc.size} non-censored points, need >= {_MIN_EXCEEDANCES}"
        )

    def nll(params):
        ll = censored_weibull_loglik(
            math.exp(params[0]), math.exp(params[1]), nonc, thr, n_cens
        )
        return _PENALTY if not np.isfinite(ll) else -ll

    k0, s0 = _weibull_regression_start(xs)
    best, loglik = _nelder_mead(nll, np.array([math.log(k0), math.log(s0)]))
    return CensWeibullFit(
        shape=float(math.exp(best[0])),
        scale=float(math.exp(best[1])),
        threshold=thr + shift,
        n_noncensored=int(nonc.size),
        n_censored=n_cens,
        loglik=float(loglik),
        shift=shift,
        threshold_quantile=threshold_quantile,
    )


def fit_comparators(values) -> list:
    """Uncensored Weibull and Log-Normal MLE fits over a whole sample of at
    least 30 points (the Weibull is the censored fit with nothing censored)."""
    x = _check_values(values)
    if x.var() < 1e-12:
        raise DegenerateSampleError("degenerate sample: variance below 1e-12")
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
    write_csv(path, ("theoretical", "empirical"), points.T)


def write_density_overlay(fit: FittedCdf, values, path) -> None:
    """CSV of empirical histogram density and fitted density on a
    512-point grid over the sample range."""
    x = _check_values(values)
    grid = np.linspace(x.min(), x.max(), 512)
    write_csv(path, ("x", "empirical_density", "fitted_density"),
              [grid, _hist_density(np.histogram(x, bins="auto", density=True), grid),
               fit.pdf(grid)])
