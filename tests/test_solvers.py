"""The in-package solvers against scipy.

tails._fminbound ports scipy's bounded minimiser, the one ported solver,
and meets it bit for bit on 10^4 seeded problems; the three tail fits meet
the same fits with scipy's minimiser patched in.  The censored Weibull's
rate equation is solved by bisection, which meets scipy's brentq within
its tolerance on 10^4 seeded score equations.  tails._ndtri ports Cephes'
ndtri, scipy.special's normal quantile, and meets it bit for bit.
"""

import math

import numpy as np
import pytest
from scipy import optimize, special

from dppdesign import fit_censored_weibull, fit_comparators, fit_gpd_pot, tails


def scipy_fminbound(f, a, b, xatol, maxiter):
    res = optimize.minimize_scalar(f, bounds=(a, b), method="bounded",
                                   options={"xatol": xatol, "maxiter": maxiter})
    return float(res.x), res.nfev, res.status


def _hex_result(x, nfev, status):
    return float(x).hex(), nfev, status


# ---------------------------------------------------------------------------
# Bounded minimiser


def _minimum_problem(rng):
    """(f factory, a, b, xatol, maxiter): a fresh f per solve, since some
    count their calls."""
    a = float(rng.uniform(-20.0, 10.0))
    b = a + float(rng.choice([1e-9, 1e-4, rng.uniform(0.1, 40.0)]))
    w = b - a
    m = float(rng.choice([a, b, a + 1e-7 * w, b - 1e-7 * w, rng.uniform(a - w, b + w)]))
    c, p = float(rng.uniform(0.1, 10.0)), float(rng.choice([0.5, 1.0, 2.0, 3.0]))
    kind = int(rng.integers(7))
    nan_after = int(rng.integers(1, 12))
    cut = float(rng.uniform(a, b))

    def factory():
        calls = []

        def f(x):
            calls.append(x)
            if kind == 0:
                return c * (x - m) ** 2
            if kind == 1:
                return abs(x - m) ** p
            if kind == 2:  # flat
                return c
            if kind == 3:  # flat in steps
                return float(math.floor(c * (x - a) / w * 4.0))
            if kind == 4:  # NaN from the nan_after-th call on
                return math.nan if len(calls) >= nan_after else c * (x - m) ** 2
            if kind == 5:  # NaN beyond a cut
                return math.nan if x > cut else abs(x - m) ** p
            return math.sin(c * x) + 0.01 * x * x - (math.inf if x < cut - 0.5 * w else 0.0)
        return f

    xatol = float(rng.choice([1e-10, 1e-5, 1e-3]))
    maxiter = int(rng.integers(1, 11)) if rng.random() < 0.5 else 500
    return factory, a, b, xatol, maxiter


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # scipy's NaN steps
def test_bounded_minimiser_matches_scipy_bitwise():
    rng = np.random.default_rng(20)
    statuses = set()
    for _ in range(10_000):
        factory, a, b, xatol, maxiter = _minimum_problem(rng)
        want = _hex_result(*scipy_fminbound(factory(), a, b, xatol, maxiter))
        got = _hex_result(*tails._fminbound(factory(), a, b, xatol, maxiter))
        assert got == want, (a, b, xatol, maxiter)
        statuses.add(want[2])
    assert statuses == {0, 1, 2}


# ---------------------------------------------------------------------------
# The censored Weibull's rate equation


def _score_equation(n1, n_cens, log_r):
    """(excess, a, b) of _censored_log_y's equation and bracket."""
    def excess(ly):
        return math.log(n1 + n_cens * tails._exp_ratio(math.exp(ly))) - ly - log_r
    return excess, math.log(n1) - log_r, math.log(n1 + n_cens) - log_r


def test_censored_root_matches_scipy_within_its_tolerance():
    rng = np.random.default_rng(21)
    for _ in range(10_000):  # the fit's equations, where R >= n1
        n1 = int(rng.integers(30, 5000))
        n_cens = int(rng.integers(1, 20 * n1))
        log_r = math.log(n1) + float(rng.uniform(0.0, 10.0))
        excess, a, b = _score_equation(n1, n_cens, log_r)
        want = optimize.brentq(excess, a, b, xtol=1e-14)
        got = tails._censored_log_y(n1, n_cens, log_r)
        assert a <= got <= b
        assert abs(got - want) <= 2.0 * (1e-14 + 4.0 * math.ulp(1.0) * abs(want)), (n1, n_cens)


@pytest.mark.parametrize("n1,n_cens,log_r,end", [
    (30, 1, 700.0, "b"),  # y = (n1 + n_cens) / R underflows: y / expm1(y) is 1
    (1000, 1, math.log(1000 / 800), "a"),  # y = n1 / R = 800: y / expm1(y) is 0
])
def test_censored_root_returns_a_solved_end_exactly(n1, n_cens, log_r, end):
    excess, a, b = _score_equation(n1, n_cens, log_r)
    assert excess(b) >= 0.0 if end == "b" else excess(a) <= 0.0
    assert tails._censored_log_y(n1, n_cens, log_r) == (b if end == "b" else a)


# ---------------------------------------------------------------------------
# Normal quantile


def test_normal_quantile_matches_scipy_bitwise():
    rng = np.random.default_rng(23)
    m, e2 = 50_000, math.exp(-2.0)
    # x = sqrt(-2 log y) = 8, where the tail changes coefficients, at y = exp(-32)
    edges = [e2, 1.0 - e2, math.exp(-32.0), 1.0 - math.exp(-32.0)]
    near = [np.nextafter(e, d) for e in edges for d in (0.0, 1.0)]
    levels = np.concatenate([
        [0.0, 1.0, 5e-324, 0.5, *edges, *near],
        (np.arange(1, m + 1) - 0.5) / m,  # the QQ export's plotting positions
        rng.random(600_000),
        np.exp(-rng.uniform(0.0, 745.0, 200_000)),  # the lower tail, to the subnormals
        -np.expm1(-rng.uniform(0.0, 37.0, 100_000)),  # the upper tail
        *(e + min(e, 1.0 - e) * rng.uniform(-1e-3, 1e-3, 25_000) for e in edges),
    ])
    assert levels.size >= 10**6 and np.all((levels >= 0.0) & (levels <= 1.0))
    got, want = tails._ndtri(levels), special.ndtri(levels)
    assert got.tobytes() == want.tobytes()
    assert got[:2].tolist() == [-math.inf, math.inf]


# ---------------------------------------------------------------------------
# The fits


def _sample(rng):
    q = float(rng.choice([0.0, 0.5, 0.8, 0.9, 0.95]))
    n = math.ceil(int(rng.integers(25, 150)) / (1.0 - q))  # mostly >= 30 exceedances
    kind = int(rng.integers(4))
    if kind == 0:
        x = rng.gumbel(size=n)
    elif kind == 1:
        x = rng.weibull(float(rng.uniform(0.5, 4.0)), size=n)
    elif kind == 2:
        x = rng.pareto(float(rng.uniform(1.0, 6.0)), size=n)
    else:
        x = rng.normal(size=n) - 0.5
    return x, q


def _fits(x, q):
    """Each fit's repr, or its error's type and message."""
    out = []
    for fit in (lambda: fit_gpd_pot(x, q), lambda: fit_censored_weibull(x, q),
                lambda: [(c.family, c.params, c.shift, c.loglik, c.n_used)
                         for c in fit_comparators(x)]):
        try:
            out.append(repr(fit()))
        except Exception as exc:  # noqa: BLE001 - compare the errors too
            out.append((type(exc).__name__, str(exc)))
    return out


def test_fits_equal_the_scipy_backed_fits(monkeypatch):
    rng = np.random.default_rng(22)
    samples = [_sample(rng) for _ in range(1000)]
    ported = [_fits(x, q) for x, q in samples]
    monkeypatch.setattr(tails, "_fminbound", scipy_fminbound)
    assert [_fits(x, q) for x, q in samples] == ported
    assert sum(isinstance(f, str) for fits in ported for f in fits) > 2700
