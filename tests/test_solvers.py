"""The in-package Brent solvers against scipy, bit for bit.

tails._fminbound ports scipy's bounded minimiser and tails._brentq its C
brentq; scipy stays their oracle here.  Each solver meets at least 10^4
seeded problems, and the three tail fits meet the same fits with
scipy-backed solvers patched in.
"""

import bisect
import math

import numpy as np
import pytest
from scipy import optimize

from dppdesign import fit_censored_weibull, fit_comparators, fit_gpd_pot, tails
from dppdesign.errors import NonConvergenceError


def scipy_fminbound(f, a, b, xatol, maxiter):
    res = optimize.minimize_scalar(f, bounds=(a, b), method="bounded",
                                   options={"xatol": xatol, "maxiter": maxiter})
    return float(res.x), res.nfev, res.status


def scipy_brentq(f, xa, xb, xtol, maxiter=100):
    try:
        return optimize.brentq(f, xa, xb, xtol=xtol, maxiter=maxiter)
    except RuntimeError as exc:
        raise NonConvergenceError(str(exc)) from None


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
# Root solver


def _root_problem(rng):
    """(f, xa, xb) with f(xa) and f(xb) of opposite signs or one of them 0."""
    a = float(rng.uniform(-10.0, 10.0))
    b = a + float(rng.choice([1e-6, rng.uniform(0.01, 30.0)]))
    r = float(rng.choice([a, b, rng.uniform(a, b)]))
    c = float(rng.uniform(0.01, 20.0))
    kind = int(rng.integers(8))
    if kind == 0:
        def f(x):
            return (x - r) * (1.0 + c * (x - r) ** 2)
    elif kind == 1:
        def f(x):
            return math.tanh(c * (x - r))
    elif kind == 2:
        def f(x):
            return math.exp(min(x, 700.0)) - math.exp(min(r, 700.0))
    elif kind == 3:  # flat at the root
        def f(x):
            return (x - r) ** 3
    elif kind == 4:  # a jump: bisection only
        def f(x):
            return -1.0 if x < r else 1.0
    elif kind == 5:  # steps among a few levels: repeated function values
        edges = np.sort(rng.uniform(a, b, size=5)).tolist()
        levels = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=6).tolist()

        def f(x):
            return levels[bisect.bisect(edges, x)]
    elif kind == 6:  # tiny values: the extrapolation's denominator underflows to 0
        def f(x):
            return 1e-300 * (x - r) * (1.0 + c * (x - r) ** 2)
    else:  # the censored Weibull's score equation, where R >= n1
        n1 = int(rng.integers(30, 5000))
        n_cens = int(rng.integers(1, 20 * n1))
        log_r = math.log(n1) + float(rng.uniform(0.0, 10.0))

        def f(ly):
            return math.log(n1 + n_cens * tails._exp_ratio(math.exp(ly))) - ly - log_r
        a, b = math.log(n1) - log_r, math.log(n1 + n_cens) - log_r
    if rng.random() < 0.5:  # reversed brackets
        a, b = b, a
    if f(a) == 0 or f(b) == 0 or math.copysign(1.0, f(a)) != math.copysign(1.0, f(b)):
        return f, a, b
    return None


def _solve(solver, f, a, b, xtol, maxiter):
    try:
        return solver(f, a, b, xtol, maxiter).hex()
    except NonConvergenceError:
        return "unconverged"


def test_root_solver_matches_scipy_bitwise():
    rng = np.random.default_rng(21)
    seen, ends, unconverged = 0, 0, 0
    while seen < 10_000:
        problem = _root_problem(rng)
        if problem is None:
            continue
        f, a, b = problem
        seen += 1
        ends += f(a) == 0 or f(b) == 0
        xtol = float(rng.choice([1e-14, 2e-12, 1e-8]))
        maxiter = int(rng.integers(1, 10)) if rng.random() < 0.1 else 100
        want = _solve(scipy_brentq, f, a, b, xtol, maxiter)
        unconverged += want == "unconverged"
        assert _solve(tails._brentq, f, a, b, xtol, maxiter) == want, (a, b, xtol, maxiter)
    assert ends > 100 and unconverged > 100


def test_root_solver_reports_non_convergence():
    def f(x):
        return math.exp(x) - 2.0

    assert tails._brentq(f, 0.0, 1.0, 1e-14) == optimize.brentq(f, 0.0, 1.0, xtol=1e-14)
    with pytest.raises(RuntimeError, match="Failed to converge after 2 iterations"):
        optimize.brentq(f, 0.0, 1.0, xtol=1e-14, maxiter=2)
    with pytest.raises(NonConvergenceError, match="after 2 iterations"):
        tails._brentq(f, 0.0, 1.0, 1e-14, maxiter=2)
    with pytest.raises(ValueError, match="different signs"):
        tails._brentq(f, 1.0, 2.0, 1e-14)


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
    monkeypatch.setattr(tails, "_brentq", scipy_brentq)
    assert [_fits(x, q) for x, q in samples] == ported
    assert sum(isinstance(f, str) for fits in ported for f in fits) > 2700
