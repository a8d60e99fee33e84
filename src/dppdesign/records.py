"""Record statistics of search traces.

An observation is an upper record when it strictly exceeds everything
before it; the first observation is the trivial record.  For i.i.d.
sequences from a continuous distribution the record times, counts and
gaps are distribution-free:

    P(I_n = 1) = 1/n                      (n-th value is a record)
    E N_n = sum 1/i,  Var N_n = sum (1/i)(1 - 1/i)
    P(N_n = j) = S_n^(j) / n!             (unsigned Stirling, first kind)
    P(T_j = n) = (1/n) P(N_{n-1} = j)
    P(gap_j > m) = sum_{i=0..m} C(m,i) (-1)^i (1+i)^(-j)

Discrete-valued traces are jittered with tiny Gaussian noise first so ties
occur with probability zero and the classical model applies.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import streams
from .errors import TieError
from .tails import sorted_quantile
from .textio import write_csv
from .trace import SampleTrace, record_flags

_STIRLING_MAX_N = 170
# Alternating binomial sums cancel catastrophically in floats; evaluate
# them in exact rational arithmetic up to this gap size.
_EXACT_GAP_LIMIT = 64


@dataclass(frozen=True)
class JitterConfig:
    """Additive Gaussian noise: sigma is small but strictly positive."""

    sigma: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


class RecordSequence:
    """Records extracted from one trace.

    values/times/subsets describe the records in order; subsets is a
    read-only (R, k) int64 array whose row d is record d's subset, or None.
    increments[0] is the trivial record value itself and gaps has one entry
    per non-trivial record.  trace_iqr is the interquartile range of the
    source trace, kept for reporting layers that need a scale.
    """

    def __init__(self, values, times, subsets, total_observations, trace_iqr):
        vals = np.asarray(values, dtype=np.float64)
        ts = np.asarray(times, dtype=np.int64)
        # A view, so that marking it read-only leaves a caller's array writable.
        subs = None if subsets is None else np.asarray(subsets, dtype=np.int64).view()
        if vals.size == 0 or vals.size != ts.size or (
                subs is not None and (subs.ndim != 2 or len(subs) != vals.size)):
            raise ValueError("records must be nonempty and aligned")
        if np.any(np.diff(vals) <= 0) or np.any(np.diff(ts) <= 0):
            raise ValueError("record values and times must strictly increase")
        if ts[0] != 1:
            raise ValueError("the first observation is always a record")
        self.values = vals
        self.times = ts
        self.subsets = subs
        self.total_observations = int(total_observations)
        self.trace_iqr = float(trace_iqr)
        self.increments = np.concatenate([[vals[0]], np.diff(vals)])
        self.gaps = np.diff(ts)
        for arr in (self.values, self.times, self.increments, self.gaps, subs):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def count(self) -> int:
        return self.values.size


def jitter_noise(cfg: JitterConfig):
    """The jitter noise of cfg as a function of a count: noise(m) returns
    the next m values of the stream, so successive calls concatenate to
    the noise one call would draw for the whole sequence."""
    rng = streams.stream(cfg.seed, streams.DOMAIN_JITTER, 0)
    return lambda m: rng.normal(0.0, cfg.sigma, m)


def jitter_trace(trace: SampleTrace, cfg: JitterConfig) -> SampleTrace:
    """Add i.i.d. Gaussian(0, sigma^2) noise to every trace value.

    The noise stream depends only on (seed, position), so jittering a
    prefix of a trace gives a prefix of the jittered trace.
    """
    return SampleTrace(
        trace.iterations,
        trace.values + jitter_noise(cfg)(trace.n),
        trace.index,
    )


_TIE_MESSAGE = "unjittered tie: jitter the trace before extracting records"


def _sorted_iqr(srt: np.ndarray) -> float:
    return sorted_quantile(srt, 0.75) - sorted_quantile(srt, 0.25)


def extract_records(trace: SampleTrace) -> RecordSequence:
    """Strict running maxima of a trace with pairwise-distinct values."""
    srt = np.unique(trace.values)
    if srt.size != trace.n:
        raise TieError(_TIE_MESSAGE)
    idx = np.flatnonzero(record_flags(trace.values))
    return RecordSequence(trace.values[idx], trace.iterations[idx], trace.index[idx],
                          trace.n, _sorted_iqr(srt))


class RunningPrefix:
    """A sequence of values observed at iterations 1, 2, ..., grown one
    block at a time, with the running state that extract_records would
    compute from the whole prefix, updated from each block alone: the
    values sorted ascending (each block is merged in), whether two of them
    tie, and the record values and times."""

    def __init__(self):
        self.sorted = np.empty(0)
        self._tied = False
        self._values = np.empty(0)
        self._times = np.empty(0, dtype=np.int64)

    def extend(self, block: np.ndarray) -> None:
        n = self.sorted.size
        best = self._values[-1] if self._values.size else -np.inf
        idx = np.flatnonzero(record_flags(np.concatenate([[best], block]))[1:])
        self._values = np.concatenate([self._values, block[idx]])
        self._times = np.concatenate([self._times, n + 1 + idx])
        new = np.sort(block)
        pos = np.searchsorted(self.sorted, new)
        inside = pos < n
        self._tied = self._tied or bool(np.any(new[1:] == new[:-1])
                                        or np.any(self.sorted[pos[inside]] == new[inside]))
        self.sorted = np.insert(self.sorted, pos, new)

    def records(self) -> RecordSequence:
        """The records of the prefix, without subsets; TieError if two
        values tie."""
        if self._tied:
            raise TieError(_TIE_MESSAGE)
        return RecordSequence(self._values, self._times, None, self.sorted.size,
                              _sorted_iqr(self.sorted))


def expected_record_count(n: int):
    """(mean, variance) of the record count in n i.i.d. observations.

    Exact partial sums of 1/i and (1/i)(1 - 1/i), not the log
    approximation.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    mean = 0.0
    var = 0.0
    chunk = 10**7
    for lo in range(1, n + 1, chunk):
        inv = 1.0 / np.arange(lo, min(lo + chunk, n + 1), dtype=np.float64)
        mean += float(inv.sum())
        var += float((inv * (1.0 - inv)).sum())
    return mean, var


_STIRLING_CACHE: list = [[1]]


def _stirling(n: int, j: int) -> int:
    """Unsigned Stirling number of the first kind, cached row by row."""
    while len(_STIRLING_CACHE) <= n:
        m = len(_STIRLING_CACHE)
        prev = _STIRLING_CACHE[m - 1]
        row = [0] * (m + 1)
        for jj in range(1, m + 1):
            row[jj] = prev[jj - 1] + (m - 1) * (prev[jj] if jj <= m - 1 else 0)
        _STIRLING_CACHE.append(row)
    return _STIRLING_CACHE[n][j] if j <= n else 0


def record_count_pmf(n: int, j: int) -> float:
    """P(exactly j records among n observations).

    Exact big-integer Stirling ratio for n <= 170; the classical
    log(n)^j / (n j!) approximation beyond that.
    """
    if n < 1 or not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    if n <= _STIRLING_MAX_N:
        return float(Fraction(_stirling(n, j), math.factorial(n)))
    return math.exp(
        j * math.log(math.log(n)) - math.log(n) - math.lgamma(j + 1)
    )


def record_time_pmf(kth: int, n: int) -> float:
    """P(the kth non-trivial record occurs at observation n).

    Equals (1/n) P(N_{n-1} = kth); for kth = 1 the closed form
    1/(n(n-1)) is used so arbitrarily large n stays exact.
    """
    if kth < 1 or n < kth + 1:
        raise ValueError(f"need n >= kth+1 >= 2, got kth={kth}, n={n}")
    if kth == 1:
        return 1.0 / (n * (n - 1.0))
    return record_count_pmf(n - 1, kth) / n


def _exact_gap_tail(kth: int, j: int) -> Fraction:
    """P(gap after the (kth-1)-th record exceeds j), as an exact rational
    alternating sum."""
    return sum((Fraction((-1) ** m * math.comb(j, m), (1 + m) ** kth)
                for m in range(j + 1)), Fraction(0))


def inter_record_time_tail(kth: int, j: int) -> float:
    """P(gap after the (kth-1)-th record exceeds j).

    Exact rational alternating sum for j <= 64; for larger j the float
    alternating sum cancels, so the equivalent integral is used instead:
    conditioning on the previous record value (a Gamma(kth) variable for
    unit-exponential data) gives
    int_0^inf x^(kth-1)/Gamma(kth) e^-x (1-e^-x)^j dx.
    """
    if kth < 1:
        raise ValueError(f"kth must be >= 1, got {kth}")
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if j <= _EXACT_GAP_LIMIT:
        return float(_exact_gap_tail(kth, j))

    lg = math.lgamma(kth)

    def integrand(x):
        if x <= 0.0:
            return 0.0
        return math.exp(
            (kth - 1) * math.log(x) - x + j * math.log1p(-math.exp(-x)) - lg
        )

    from scipy import integrate

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
    return min(max(float(val), 0.0), 1.0)  # quad's rounding can end just past 1


def inter_record_time_pmf(kth: int, j: int) -> float:
    """P(gap after the (kth-1)-th record equals j), j >= 1.

    Exact rational differences of tails up to j = 65.  Past that the tails
    both near 1 would cancel, so the pmf's own integral is used,
    int_0^inf x^(kth-1)/Gamma(kth) e^-2x (1-e^-x)^(j-1) dx: its peak is
    narrow, so it is integrated scaled to 1 at its mode, over a window of
    ten widths either side of the mode and the two pieces outside it.
    """
    if kth < 1 or j < 1:
        raise ValueError(f"kth and j must be >= 1, got {kth} and {j}")
    if j - 1 <= _EXACT_GAP_LIMIT:
        return float(_exact_gap_tail(kth, j - 1) - _exact_gap_tail(kth, j))

    def log_integrand(x):
        return (kth - 1) * math.log(x) - 2.0 * x + (j - 1) * math.log1p(-math.exp(-x))

    def slope(x):  # log_integrand's derivative plus 2, falling from +inf
        return (kth - 1) / x + (j - 1) * math.exp(-x) / -math.expm1(-x)

    # The mode, where slope(x) = 2, lies below kth + log(j) + 1.
    lo, hi = 0.0, kth + math.log(j) + 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) > 2.0 else (lo, mid)
    mode = 0.5 * (lo + hi)
    width = ((kth - 1) / mode**2 + (j - 1) * math.exp(-mode) / math.expm1(-mode) ** 2) ** -0.5
    peak = log_integrand(mode)

    def scaled(x):
        return math.exp(log_integrand(x) - peak) if x > 0.0 else 0.0

    from scipy import integrate

    edges = [0.0, max(0.0, mode - 10.0 * width), mode + 10.0 * width, np.inf]
    val = sum(integrate.quad(scaled, a, b, limit=200)[0] for a, b in zip(edges, edges[1:]))
    return val * math.exp(peak - math.lgamma(kth))


def record_value_pdf(dist, d: int, r: float) -> float:
    """Density of the d-th record value under reference distribution dist.

    dist must expose cdf/pdf; the density is
    f(r) * (-log(1 - F(r)))^d / d!, zero by convention where F(r) = 1.
    """
    if d < 0:
        raise ValueError(f"record index must be >= 0, got {d}")
    fr = float(dist.cdf(r))
    if fr >= 1.0:
        return 0.0
    dens = float(dist.pdf(r))
    if d == 0:
        return dens
    s = -math.log1p(-fr)
    if s == 0.0:
        return 0.0
    return dens * math.exp(d * math.log(s) - math.lgamma(d + 1))


RECORD_LOG_HEADER = "d,record_value,record_time,gap,increment,subset"


def write_record_log(records: RecordSequence, path) -> None:
    subsets = [None] * records.count if records.subsets is None else records.subsets
    write_csv(path, RECORD_LOG_HEADER.split(","),
              [range(records.count), records.values, records.times,
               [None, *records.gaps.tolist()], records.increments, subsets])
