import dataclasses
import json
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

from dppdesign import (
    DegenerateSampleError,
    InsufficientTailDataError,
    empirical_cdf,
    exponential_cdf,
    fit_censored_weibull,
    fit_comparators,
    fit_gpd_pot,
    fitted_cdf_from_cens_weibull,
    fitted_cdf_from_gpd,
    qq_points,
)
import dppdesign as d
from dppdesign import tails
from dppdesign.errors import DesignError, NonConvergenceError
from dppdesign.tails import (
    _MIN_EXCEEDANCES,
    _XI_EXP_BRANCH,
    CensWeibullFit,
    FittedCdf,
    GpdFit,
    _check_values,
    _support_shift,
)


# ---------------------------------------------------------------------------
# The two likelihoods in their plain form, for the fits' oracles and checks


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


def gpd_sample(xi, n, seed, sigma=1.0):
    return stats.genpareto.rvs(c=xi, scale=sigma, size=n, random_state=seed)


# ---------------------------------------------------------------------------
# The two-parameter Nelder-Mead fits that the profile-likelihood fits
# replaced, kept verbatim as the oracle (under old_ names).

_NM_OPTIONS = {"xatol": 1e-9, "fatol": 1e-12, "maxfev": 10_000}
_PENALTY = 1e18


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


def old_fit_gpd_pot(values, threshold_quantile: float = 0.9) -> GpdFit:
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


def old_fit_censored_weibull(values, threshold_quantile: float = 0.9) -> CensWeibullFit:
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
    )


def run_old(fit, *args):
    """(result, converged) of an old fit: converged is False when one of
    its Nelder-Mead runs logged that it stopped unconverged."""
    logger = logging.getLogger(__name__)
    seen = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = seen.append
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return fit(*args), not seen
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


class TestGpdFit:
    @pytest.mark.parametrize("xi", [-0.2, 0.0, 0.2])
    def test_recovers_simulated_shape_and_scale(self, xi):
        # the sample below the threshold is irrelevant; feed pure exceedances
        x = gpd_sample(xi, 10_000, seed=100 + int(xi * 10))
        fit = fit_gpd_pot(x, 0.0)
        assert fit.xi == pytest.approx(xi, abs=0.05)
        assert fit.sigma == pytest.approx(1.0, abs=0.05)

    def test_exponential_data_gives_zero_shape(self):
        rng = np.random.default_rng(55)
        x = rng.exponential(size=10_000)
        fit = fit_gpd_pot(x, 0.0)
        assert fit.xi == pytest.approx(0.0, abs=0.05)

    def test_threshold_is_requested_quantile(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=2000)
        fit = fit_gpd_pot(x, 0.9)
        assert fit.mu == pytest.approx(np.quantile(x, 0.9))
        assert fit.n_exceed == int((x > fit.mu).sum())

    def test_requires_thirty_exceedances(self):
        rng = np.random.default_rng(4)
        with pytest.raises(InsufficientTailDataError):
            fit_gpd_pot(rng.normal(size=200), 0.9)

    def test_deterministic_refits(self):
        x = gpd_sample(0.1, 3000, seed=8)
        a = fit_gpd_pot(x, 0.5)
        b = fit_gpd_pot(x, 0.5)
        assert (a.sigma, a.xi, a.loglik) == (b.sigma, b.xi, b.loglik)

    def test_loglik_is_local_maximum(self):
        x = gpd_sample(-0.1, 5000, seed=21)
        fit = fit_gpd_pot(x, 0.0)
        exc = x[x > fit.mu] - fit.mu
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = fit.sigma * (1 + rng.uniform(-0.1, 0.1))
            t = fit.xi + rng.uniform(-0.1, 0.1) * max(abs(fit.xi), 0.1)
            assert gpd_exceedance_loglik(s, t, exc) <= fit.loglik + 1e-9


# name -> (kernel seed, search and jitter seed, rows) of a jittered k = 10
# search trace on synth_kernel(30, 2.0, 1e-6, kernel seed).
ORACLE_TRACES = {
    **{f"trace{s}-{rows // 1000}k": (s, s, rows) for s in range(8) for rows in (5000, 40_000)},
    "criterion-7": (7, 0, 100_000),
}
ORACLE_SHAPES = (-0.4, -0.2, 0.0, 0.2, 0.4)


@pytest.fixture(scope="module")
def trace_values():
    """values(name): the trace's jittered values; each search runs once, to
    the longest row count any name asks of it."""
    cache = {}

    def values(name):
        kernel_seed, seed, rows = ORACLE_TRACES[name]
        if (kernel_seed, seed) not in cache:
            longest = max(r for ks, s, r in ORACLE_TRACES.values() if (ks, s) == (kernel_seed, seed))
            K = d.synth_kernel(30, 2.0, 1e-6, seed=kernel_seed)
            trace = d.dpp_search(K, 10, longest, seed=seed, workers=2)
            cache[kernel_seed, seed] = d.jitter_trace(trace, d.JitterConfig(seed=seed)).values
        return cache[kernel_seed, seed][:rows]
    return values


class TestProfileFitsAgainstNelderMead:
    """The profile-likelihood fits reach at least the old fits' likelihood
    on every sample, and agree with them wherever Nelder-Mead converged."""

    @staticmethod
    def check(x):
        for q in (0.0, 0.9):
            new = fit_gpd_pot(x, q)
            old, converged = run_old(old_fit_gpd_pot, x, q)
            assert (new.mu, new.n_exceed) == (old.mu, old.n_exceed)
            assert new.loglik >= old.loglik - 1e-9 * abs(old.loglik)
            if converged:
                assert (new.sigma, new.xi) == pytest.approx((old.sigma, old.xi), rel=1e-6)

            new = fit_censored_weibull(x, q)
            old, converged = run_old(old_fit_censored_weibull, x, q)
            assert (new.threshold, new.n_censored, new.shift) == (
                old.threshold, old.n_censored, old.shift)
            assert new.loglik >= old.loglik - 1e-9 * abs(old.loglik)
            if converged:
                assert (new.shape, new.scale) == pytest.approx((old.shape, old.scale),
                                                               rel=1e-6)

    @pytest.mark.parametrize("xi", ORACLE_SHAPES)
    def test_gpd_samples(self, xi):
        self.check(gpd_sample(xi, 5000, seed=1))

    @pytest.mark.parametrize("name", sorted(ORACLE_TRACES))
    def test_search_traces(self, name, trace_values):
        self.check(trace_values(name))

    @pytest.mark.parametrize("name", ["trace0-40k", "criterion-7"])
    def test_gpd_fit_ignores_sample_order(self, name, trace_values):
        x = trace_values(name)
        for q in (0.0, 0.9):
            perm = np.random.default_rng(1).permutation(x)
            assert fit_gpd_pot(perm, q) == fit_gpd_pot(x, q)

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 0.9, 0.999])
    def test_sorted_quantile_is_numpy_quantile(self, q):
        rng = np.random.default_rng(2)
        for n in [*range(1, 60), 999, 1000, 1001, 40_000, 99_999]:
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            assert tails.sorted_quantile(np.sort(x), q) == np.quantile(x, q)


class TestCompositeGpdCdf:
    @pytest.fixture
    def fitted(self):
        rng = np.random.default_rng(17)
        x = np.concatenate([rng.normal(size=9000), 3 + rng.exponential(0.5, 1000)])
        fit = fit_gpd_pot(x, 0.9)
        return fitted_cdf_from_gpd(fit, x), fit, x

    def test_cdf_at_threshold_is_one_minus_ptail(self, fitted):
        model, fit, x = fitted
        p_tail = fit.n_exceed / x.size
        assert model.cdf(fit.mu) == pytest.approx(1 - p_tail, abs=1e-12)

    def test_continuous_at_threshold(self, fitted):
        model, fit, _ = fitted
        eps = 1e-9 * max(1.0, abs(fit.mu))
        jump = model.cdf(fit.mu) - model.cdf(fit.mu - eps)
        assert 0 <= jump < 1e-12 + 1e-4 * eps

    def test_monotone_and_limits(self, fitted):
        model, _, x = fitted
        grid = np.linspace(x.min() - 1, x.max() + 5, 400)
        vals = model.cdf(grid)
        assert np.all(np.diff(vals) >= -1e-12)
        assert model.cdf(x.min() - 10) == 0.0
        assert model.cdf(x.max() + 1e9) == pytest.approx(1.0, abs=1e-9)

    def test_exponential_branch_at_tiny_shape(self):
        x = np.concatenate([np.zeros(900), gpd_sample(0.0, 1000, seed=1)])
        rng = np.random.default_rng(2)
        x[:900] = rng.uniform(-5, -1, 900)
        fit = fit_gpd_pot(x, 0.0)
        model = fitted_cdf_from_gpd(fit, x)
        if abs(fit.xi) < 1e-6:
            # survival above threshold decays exactly exponentially
            s1 = model.survival(fit.mu + 1.0)
            s2 = model.survival(fit.mu + 2.0)
            assert s2 / s1 == pytest.approx(math.exp(-1.0 / fit.sigma), rel=1e-9)

    def test_exponential_limit_formulas_at_zero_shape(self):
        model = FittedCdf("gpd", {"mu": 1, "sigma": 2, "xi": 0.0, "p_tail": 0.1},
                          threshold=1, sample=np.linspace(-3.0, 3.0, 101))
        x = np.array([1.0, 1.5, 3.0, 10.0, 50.0])
        survival = 0.1 * np.exp(-(x - 1) / 2)
        assert np.array_equal(model.survival(x), survival)
        assert np.array_equal(model.pdf(x), survival / 2)
        q = np.array([0.91, 0.95, 0.99, 0.999999])
        assert np.array_equal(model.quantile(q), 1 - 2 * np.log((1 - q) / 0.1))

    def test_pdf_integrates_to_one(self, fitted):
        model, fit, x = fitted
        p_tail = model.params["p_tail"]
        # below threshold the pdf is the scaled histogram: integrate exactly
        dens, edges = model._eval.hist
        below = (1 - p_tail) * float((dens * np.diff(edges)).sum())
        upper = np.inf if fit.xi >= 0 else fit.mu + fit.sigma / -fit.xi
        above, _ = integrate.quad(
            lambda r: model.pdf(r), fit.mu, upper, limit=200
        )
        assert below + above == pytest.approx(1.0, abs=1e-4)


class TestCensoredWeibull:
    def test_recovers_simulated_parameters(self):
        x = stats.weibull_min.rvs(2.0, scale=1.0, size=10_000, random_state=42)
        fit = fit_censored_weibull(x, 0.9)
        assert fit.shape == pytest.approx(2.0, abs=0.1)
        assert fit.scale == pytest.approx(1.0, abs=0.05)
        assert fit.n_censored + fit.n_noncensored == 10_000

    @pytest.mark.parametrize("sample", [
        stats.weibull_min.rvs(1.5, scale=2.0, size=4000, random_state=7),
        np.append(np.random.default_rng(4).normal(size=999), 0.0),
        stats.weibull_min.rvs(3.0, scale=1.0, size=30, random_state=2),
    ], ids=["positive", "nonpositive", "thirty"])
    def test_zero_quantile_matches_plain_mle(self, sample):
        cens = fit_censored_weibull(sample, 0.0)
        plain = next(f for f in fit_comparators(sample) if f.family == "weibull")
        assert (plain.params["shape"], plain.params["scale"], plain.loglik,
                plain.shift) == (cens.shape, cens.scale, cens.loglik, cens.shift)
        assert cens.n_censored == 0 and plain.n_used == sample.size
        old, converged = run_old(old_fit_censored_weibull, sample, 0.0)
        assert converged and cens.shift == old.shift
        assert (cens.shape, cens.scale) == pytest.approx((old.shape, old.scale), rel=1e-6)
        assert cens.loglik >= old.loglik - 1e-9 * abs(old.loglik)

    def test_fewer_than_thirty_points_is_an_error(self):
        x = stats.weibull_min.rvs(3.0, scale=1.0, size=29, random_state=2)
        with pytest.raises(InsufficientTailDataError):
            fit_censored_weibull(x, 0.0)
        with pytest.raises(InsufficientTailDataError):
            fit_comparators(x)

    def test_unconverged_fit_is_logged_at_debug(self, monkeypatch, caplog):
        x = stats.weibull_min.rvs(2.0, scale=1.0, size=500, random_state=3)
        caplog.set_level(logging.DEBUG, logger="dppdesign.tails")
        fit_censored_weibull(x, 0.5)
        assert caplog.records == []
        monkeypatch.setitem(tails._SOLVE_OPTIONS, "maxiter", 5)
        fit_censored_weibull(x, 0.5)
        (record,) = caplog.records
        assert record.name == "dppdesign.tails" and record.levelno == logging.DEBUG
        assert "after 5 evaluations" in record.getMessage()
        assert "Maximum number of function calls" in record.getMessage()

    def test_solve_on_its_bound_is_logged_at_debug(self, caplog):
        # a spread of 1e-7 relative asks for a shape beyond e^12
        x = 1000.0 + 1e-4 * np.random.default_rng(0).random(200)
        caplog.set_level(logging.DEBUG, logger="dppdesign.tails")
        fit = fit_censored_weibull(x, 0.0)
        assert fit.shape == pytest.approx(math.exp(12.0), rel=1e-6)
        (record,) = caplog.records
        assert "bounded solve on [-12, 12] stopped at 11.99" in record.getMessage()

    @pytest.mark.parametrize("n,q", [(400, 0.9), (100, 0.0)])
    def test_constant_sample_is_degenerate(self, n, q):
        with pytest.raises(DegenerateSampleError):
            fit_censored_weibull(np.full(n, 3.0), q)

    def test_all_censored_is_an_error(self):
        rng = np.random.default_rng(11)
        with pytest.raises(InsufficientTailDataError):
            fit_censored_weibull(rng.random(100), 0.9)

    def test_loglik_is_local_maximum(self):
        x = stats.weibull_min.rvs(2.0, scale=1.0, size=3000, random_state=3)
        fit = fit_censored_weibull(x, 0.9)
        xs = x - fit.shift
        thr = np.quantile(xs, 0.9)
        nonc = xs[xs >= thr]
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = fit.shape * (1 + rng.uniform(-0.1, 0.1))
            c = fit.scale * (1 + rng.uniform(-0.1, 0.1))
            ll = censored_weibull_loglik(s, c, nonc, thr, fit.n_censored)
            assert ll <= fit.loglik + 1e-9

    def test_negative_data_is_shifted(self):
        x = stats.weibull_min.rvs(2.0, scale=1.0, size=2000, random_state=9) - 50.0
        fit = fit_censored_weibull(x, 0.5)
        assert fit.shift == pytest.approx(x.min() - 1e-6)
        model = fitted_cdf_from_cens_weibull(fit)
        assert model.cdf(x.min() - 1.0) == 0.0
        assert model.cdf(x.max() + 10.0) > 0.99


class TestComparators:
    def test_lognormal_closed_form(self):
        rng = np.random.default_rng(31)
        x = rng.lognormal(mean=0.0, sigma=1.0, size=10_000)
        logn = next(f for f in fit_comparators(x) if f.family == "lognormal")
        shifted_logs = np.log(x - logn.shift)
        assert logn.params["mu"] == pytest.approx(shifted_logs.mean(), abs=1e-12)
        assert logn.params["mu"] == pytest.approx(0.0, abs=0.05)
        assert logn.params["sigma"] == pytest.approx(1.0, abs=0.05)

    def test_weibull_shape_one_is_exponential(self):
        rng = np.random.default_rng(13)
        x = rng.exponential(scale=2.0, size=10_000)
        weib = next(f for f in fit_comparators(x) if f.family == "weibull")
        assert weib.params["shape"] == pytest.approx(1.0, abs=0.05)
        assert weib.params["scale"] == pytest.approx(2.0, abs=0.1)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            fit_comparators(np.full(100, 3.0))

    def test_parametric_pdfs_integrate_to_one(self):
        rng = np.random.default_rng(8)
        x = rng.lognormal(size=3000)
        for f in fit_comparators(x):
            val, _ = integrate.quad(f.pdf, f.shift, np.inf, limit=300)
            assert val == pytest.approx(1.0, abs=1e-4)


class TestQqPoints:
    def test_empirical_self_sample_on_diagonal(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=500)
        fit = empirical_cdf(x)
        pts = qq_points(fit, x)
        assert np.allclose(pts[:, 0], pts[:, 1])

    def test_single_point_is_median_pair(self):
        fit = exponential_cdf(rate=1.0)
        pts = qq_points(fit, [4.0])
        assert pts.shape == (1, 2)
        assert pts[0, 0] == pytest.approx(math.log(2))  # quantile at 1/2
        assert pts[0, 1] == 4.0

    def test_gpd_tail_qq_close_on_simulated_data(self):
        # bounded-tail truth keeps the top order statistics stable enough
        # for the 5%-of-tail-range bound on the top decile
        x = gpd_sample(-0.2, 10_000, seed=130)
        fit = fit_gpd_pot(x, 0.9)
        model = fitted_cdf_from_gpd(fit, x)
        pts = qq_points(model, x, upper_tail_only=True)
        top = pts[-len(pts) // 10:]
        tail_range = x.max() - fit.mu
        assert np.abs(top[:, 0] - top[:, 1]).max() < 0.05 * tail_range


class TestFittedCdfPlumbing:
    @pytest.mark.parametrize("family", ["gpd", "empirical"])
    def test_body_quantile_is_inverted_cdf(self, family):
        x = gpd_sample(0.1, 2001, seed=6)
        if family == "gpd":
            # levels above 1 - p_tail belong to the GPD tail formula
            model = fitted_cdf_from_gpd(fit_gpd_pot(x, 0.9), x)
            top = 1.0 - model.params["p_tail"]
        else:
            model = empirical_cdf(x)
            top = 1.0
        n = x.size
        levels = np.concatenate([
            np.random.default_rng(0).uniform(0.0, top, 5000),
            np.arange(n + 1) / n, [0.0, top],
        ])
        levels = levels[levels <= top]
        expect = np.quantile(np.sort(x), levels, method="inverted_cdf")
        assert np.array_equal(model.quantile(levels), expect)
        for q in (0.0, top):
            assert model.quantile(q) == np.quantile(x, q, method="inverted_cdf")

    # (family, params, shift, the support's ends, the quantile at levels 0.95
    # and 0.999 from its closed form)
    @pytest.mark.parametrize("family,params,shift,ends,inner", [
        ("gpd", {"mu": 0.5, "sigma": 0.2, "xi": 0.3, "p_tail": 0.1}, 0.0, [-0.25, math.inf],
         lambda q: 0.5 + 0.2 * (np.power((1.0 - q) / 0.1, -0.3) - 1.0) / 0.3),
        ("gpd", {"mu": 0.5, "sigma": 0.2, "xi": 1e-7, "p_tail": 0.1}, 0.0, [-0.25, math.inf],
         lambda q: 0.5 - 0.2 * np.log((1.0 - q) / 0.1)),
        ("gpd", {"mu": 0.5, "sigma": 0.2, "xi": -0.4, "p_tail": 0.1}, 0.0, [-0.25, 1.0],
         lambda q: 0.5 + 0.2 * (np.power((1.0 - q) / 0.1, 0.4) - 1.0) / -0.4),
        ("empirical", {}, 0.0, [-0.25, 1.0],
         lambda q: np.quantile(np.linspace(-0.25, 1.0, 101), q, method="inverted_cdf")),
        ("weibull", {"shape": 2.5, "scale": 1.5}, -0.3, [-0.3, math.inf],
         lambda q: -0.3 + 1.5 * np.power(-np.log1p(-q), 1.0 / 2.5)),
        ("cens_weibull", {"shape": 0.7, "scale": 2.0}, 0.25, [0.25, math.inf],
         lambda q: 0.25 + 2.0 * np.power(-np.log1p(-q), 1.0 / 0.7)),
        ("exponential", {"rate": 3.0, "loc": -1.0}, 0.0, [-1.0, math.inf],
         lambda q: -1.0 + (1.0 / 3.0) * np.power(-np.log1p(-q), 1.0)),
        ("lognormal", {"mu": 0.2, "sigma": 0.8}, 0.4, [0.4, math.inf],
         lambda q: 0.4 + np.exp(0.2 + 0.8 * special.ndtri(q))),
    ], ids=["gpd-power", "gpd-log", "gpd-bounded", "empirical", "weibull", "cens_weibull",
            "exponential", "lognormal"])
    def test_quantile_at_the_ends_of_the_support(self, family, params, shift, ends, inner):
        model = FittedCdf(family, params, shift=shift, sample=np.linspace(-0.25, 1.0, 101))
        levels = np.array([0.0, 0.95, 0.999, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.quantile(levels)
            assert [model.quantile(0.0), model.quantile(1.0)] == ends
        assert got[[0, -1]].tolist() == ends
        assert np.array_equal(got[1:-1], inner(levels[1:-1]))

    @pytest.mark.parametrize("family,params,shift,x,survival", [
        ("weibull", {"shape": 1.76e16, "scale": 1.0}, 0.0, [0.5, 1.01], [1.0, 0.0]),
        ("weibull", {"shape": 2.0, "scale": 1e-300}, 0.0, [1e10], [0.0]),
        ("weibull", {"shape": 2.0, "scale": 1.0}, -1e308, [1e308], [0.0]),
        ("lognormal", {"mu": 1.7976931348623157e308, "sigma": 0.5}, 0.0, [2.0], [1.0]),
        ("lognormal", {"mu": 0.0, "sigma": 1e-320}, 0.0, [0.5, 2.0], [1.0, 0.0]),
    ])
    def test_survival_overflow_gives_its_limit(self, family, params, shift, x, survival):
        # dppdesign's RuntimeWarnings are errors in this suite
        assert FittedCdf(family, params, shift=shift).survival(x).tolist() == survival

    @pytest.mark.parametrize("xi", [0.0, 0.3, -0.5])
    def test_gpd_tail_of_a_tiny_sigma_is_zero(self, xi):
        x = np.linspace(0.0, 1.0, 101)
        model = FittedCdf("gpd", {"mu": 0.5, "sigma": 1e-320, "xi": xi, "p_tail": 0.1},
                          sample=x)
        assert model.survival(1.0) == 0.0 and model.pdf(1.0) == 0.0

    def test_weibull_pdf_is_zero_where_z_to_the_k_overflows(self):
        model = FittedCdf("weibull", {"shape": 1.6e5, "scale": 1.0})
        assert model.pdf(1.01) == 0.0
        assert model.pdf([0.5, 1.0, 2.0]).tolist() == [0.0, 1.6e5 * math.exp(-1.0), 0.0]

    def test_weibull_pdf_keeps_its_bits_where_finite(self):
        k, scale, shift = 2.7, 1.3, -0.4
        x = np.linspace(-1.0, 40.0, 4001)
        y = x - shift
        pos = y > 0
        z = y[pos] / scale
        want = np.zeros_like(y)
        want[pos] = (k / scale) * np.power(z, k - 1.0) * np.exp(-np.power(z, k))
        got = FittedCdf("weibull", {"shape": k, "scale": scale}, shift=shift).pdf(x)
        assert np.array_equal(got, want)

    def test_empirical_survival_and_pdf(self):
        x = np.array([3.0, 1.0, 2.0, 2.0, 5.0])
        model = empirical_cdf(x)
        grid = np.array([0.0, 1.0, 1.5, 2.0, 4.9, 5.0, 6.0])
        assert model.survival(grid) == pytest.approx([1.0, 0.8, 0.8, 0.4, 0.2, 0.0, 0.0],
                                                     abs=1e-15)
        assert model.survival(2.5) == pytest.approx(0.4, abs=1e-15)
        # the histogram density of the whole sample, zero outside its edges
        dens, edges = np.histogram(x, bins="auto", density=True)
        centres = (edges[:-1] + edges[1:]) / 2
        assert np.array_equal(model.pdf(centres), dens)
        assert model.pdf(edges[-1]) == dens[-1]
        assert np.array_equal(model.pdf(np.array([edges[0] - 1e-9, edges[-1] + 1e-9])),
                              [0.0, 0.0])

    def test_unknown_family_raises_at_construction(self):
        with pytest.raises(ValueError, match="unknown family"):
            FittedCdf("cauchy", {"loc": 0.0, "scale": 1.0})

    @pytest.mark.parametrize("family,params", [
        ("gpd", {"mu": 0.0, "sigma": 1.0, "xi": 0.1}),
        ("weibull", {"shape": 2.0}),
        ("cens_weibull", {"scale": 1.0}),
        ("lognormal", {"mu": 0.0}),
        ("exponential", {"rate": 1.0}),
    ])
    def test_missing_parameter_raises_at_construction(self, family, params):
        with pytest.raises(ValueError, match="missing parameter"):
            FittedCdf(family, params, sample=np.arange(50.0))

    @pytest.mark.parametrize("family,params,name", [
        ("gpd", {"mu": 0.0, "sigma": 1.0, "xi": 0.1, "p_tail": 0.1}, "sigma"),
        ("weibull", {"shape": 2.0, "scale": 1.0}, "shape"),
        ("weibull", {"shape": 2.0, "scale": 1.0}, "scale"),
        ("cens_weibull", {"shape": 2.0, "scale": 1.0}, "shape"),
        ("cens_weibull", {"shape": 2.0, "scale": 1.0}, "scale"),
        ("lognormal", {"mu": 0.0, "sigma": 1.0}, "sigma"),
        ("exponential", {"rate": 1.0, "loc": 0.0}, "rate"),
    ])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_nonpositive_scale_or_shape_raises_at_construction(self, family, params,
                                                               name, bad):
        FittedCdf(family, params, sample=np.arange(50.0))
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            FittedCdf(family, {**params, name: bad}, sample=np.arange(50.0))

    @pytest.mark.parametrize("name", ["mu", "sigma", "xi", "p_tail", "shift", "threshold",
                                      "loglik"])
    @pytest.mark.parametrize("bad", [True, "0.5", None, [0.5], math.nan, -math.inf, 10**400])
    def test_non_finite_or_non_real_scalar_raises_at_construction(self, name, bad):
        params = {"mu": 0.0, "sigma": 1.0, "xi": 0.1, "p_tail": 0.1}
        scalars = {"shift": 0.0, "threshold": 0.0, "loglik": -1.0}
        (params if name in params else scalars)[name] = bad
        if name in ("threshold", "loglik") and bad is None:
            FittedCdf("gpd", params, sample=np.arange(50.0), **scalars)  # optional
            return
        # a sigma the positivity check can compare keeps its message
        message = "must be positive" if name == "sigma" and bad in (math.nan, -math.inf) else (
            "must be a finite real number")
        with pytest.raises(ValueError, match=f"{name} {message}"):
            FittedCdf("gpd", params, sample=np.arange(50.0), **scalars)

    @pytest.mark.parametrize("bad", [None, [], True, np.bool_(True), -1, "5", 5.0])
    def test_n_used_must_be_a_nonnegative_integer(self, bad):
        with pytest.raises(ValueError, match="n_used must be an integer >= 0"):
            FittedCdf("exponential", {"rate": 1.0, "loc": 0.0}, n_used=bad)

    def test_numpy_scalars_are_accepted(self):
        model = FittedCdf("weibull", {"shape": np.float32(2.0), "scale": np.float64(1.0)},
                          shift=np.int64(0), threshold=np.float64(0.5),
                          loglik=np.float32(-3.0), n_used=np.int64(7))
        assert model.shift == 0.0 and model.n_used == 7 and type(model.n_used) is int
        assert model.survival(1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_composite_needs_sample(self):
        with pytest.raises(ValueError, match="values"):
            FittedCdf("empirical", {})

    def test_histogram_is_built_on_first_pdf_call(self):
        x = gpd_sample(0.1, 2000, seed=3)
        model = fitted_cdf_from_gpd(fit_gpd_pot(x, 0.9), x)
        model.survival(x)
        model.quantile(0.5)
        assert "hist" not in vars(model._eval)
        dens, edges = model._eval.hist
        body = x[x <= model.threshold]
        ref_dens, ref_edges = np.histogram(body, bins="auto", density=True)
        assert np.array_equal(dens, ref_dens) and np.array_equal(edges, ref_edges)
        grid = np.linspace(x.min() - 1.0, model.threshold, 200)
        inside = (grid >= edges[0]) & (grid <= edges[-1])
        idx = np.clip(np.searchsorted(edges, grid, side="right") - 1, 0, dens.size - 1)
        expect = np.where(inside, (1 - model.params["p_tail"]) * dens[idx], 0.0)
        assert np.array_equal(model.pdf(grid)[grid < model.threshold],
                              expect[grid < model.threshold])

    def test_exponential_survival_precision(self):
        F = exponential_cdf(rate=1.0)
        assert F.survival(500.0) == pytest.approx(math.exp(-500), rel=1e-12)

    def test_rebuild_from_params_matches(self):
        x = gpd_sample(-0.1, 5000, seed=2)
        fit = fit_gpd_pot(x, 0.8)
        model = fitted_cdf_from_gpd(fit, x)
        clone = FittedCdf("gpd", model.params, threshold=model.threshold, sample=x)
        grid = np.linspace(x.min(), x.max(), 50)
        assert np.allclose(model.cdf(grid), clone.cdf(grid))

    def test_quantile_inverts_cdf(self):
        x = gpd_sample(0.1, 4000, seed=14)
        model = fitted_cdf_from_gpd(fit_gpd_pot(x, 0.5), x)
        for q in (0.6, 0.9, 0.99, 0.999):
            assert model.cdf(model.quantile(q)) == pytest.approx(q, abs=5e-3)

    def test_fit_report_json(self, tmp_path):
        from dppdesign import write_fit_report

        F = exponential_cdf(rate=1.0)
        path = tmp_path / "fit.json"
        write_fit_report(F, path, {"trace_sha256": "abc"})
        payload = json.loads(path.read_text())
        assert payload["family"] == "exponential"
        assert payload["parameters"]["rate"] == 1.0
        assert payload["trace_sha256"] == "abc"


# ---------------------------------------------------------------------------
# Every fit returns finite parameters or raises a DesignError

_SHAPES = {
    "gumbel": lambda rng, n: rng.gumbel(size=n),
    "normal": lambda rng, n: rng.standard_normal(n),
    "exponential": lambda rng, n: rng.exponential(size=n),
    "uniform": lambda rng, n: rng.random(n),
    "pareto3": lambda rng, n: rng.pareto(3.0, n),
    "jittered_integers": lambda rng, n: rng.integers(0, 20, n) + rng.normal(0.0, 1e-6, n),
}


def _fit_numbers(fit):
    """Every number a fit reports: parameters, shift, threshold, loglik, counts."""
    if isinstance(fit, list):
        return [v for f in fit for v in [*f.params.values(), f.shift, f.loglik]]
    return dataclasses.astuple(fit)


@given(shape=st.sampled_from(sorted(_SHAPES)), n=st.integers(40, 20_000),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(-12.0, 12.0).map(lambda e: 10.0**e),
       offset=st.sampled_from([0.0, 1e6, -1e6]),
       q=st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999, 0.9995]))
# near-total censoring: y / expm1(y) past expm1's overflow
@example(shape="gumbel", n=100_000, seed=0, scale=1.0, offset=0.0, q=0.999)
@example(shape="gumbel", n=100_000, seed=0, scale=1.0, offset=0.0, q=0.9995)
# a minimum below -2**34, which absorbs the 1e-6 shift margin
@example(shape="gumbel", n=400, seed=0, scale=7.6e11, offset=0.0, q=0.9)
@settings(derandomize=True, max_examples=500, deadline=None)
def test_every_fit_returns_finite_parameters_or_a_design_error(shape, n, seed, scale,
                                                                offset, q):
    x = offset + scale * _SHAPES[shape](np.random.default_rng(seed), n)
    for fit in (lambda: fit_gpd_pot(x, q), lambda: fit_censored_weibull(x, q),
                lambda: fit_comparators(x)):
        try:
            numbers = _fit_numbers(fit())
        except DesignError:
            continue
        assert all(math.isfinite(v) for v in numbers)
