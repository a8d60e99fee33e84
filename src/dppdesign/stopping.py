"""Stopping diagnostics for record sequences under a fitted distribution.

Everything reduces to survival ratios of the fitted model F: the chance
that the next record improves on r by a chosen margin is
(1 - F(target)) / (1 - F(r)), and the waiting time to the next record is
geometric with success probability 1 - F(r).  A search should stop when
a meaningful improvement has become unlikely and the expected wait long.
"""

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .records import RecordSequence
from .tails import FittedCdf
from .textio import write_csv

DEFAULT_EPSILONS = (0.0001, 0.0005, 0.001)


@dataclass(frozen=True)
class StoppingPolicy:
    """Stop when P(next record beats (1+epsilon) * current) < delta AND the
    expected wait for any next record exceeds max_expected_wait."""

    epsilon: float = 0.001
    delta: float = 0.01
    max_expected_wait: float = 1e6
    check_every: int = 1000

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not self.max_expected_wait > 0:
            raise ValueError("max_expected_wait must be positive")
        if (isinstance(self.check_every, bool)
                or not isinstance(self.check_every, numbers.Integral)
                or self.check_every < 1):
            raise ValueError(
                f"check_every must be a positive integer, got {self.check_every!r}"
            )


@dataclass(frozen=True)
class PolicyCheck:
    """One evaluation of a stopping policy during a search.

    iteration is the prefix length checked; threshold (the GPD threshold
    mu), xi, p_eps and expected_wait are None where the check failed
    before computing them.  decision is "stop" or "continue", or
    "unevaluable" with the failure in reason.
    """

    iteration: int
    threshold: float | None
    xi: float | None
    p_eps: float | None
    expected_wait: float | None
    decision: str
    reason: str = ""


@dataclass(frozen=True)
class StoppingRow:
    """Diagnostics for one record under one fitted model.

    eps_probs maps each increment epsilon to the conditional probability
    of that improvement; beat_reference exceeds 1.0 when the record has
    already beaten the reference (serialized as ">1").
    """

    n_sims: int
    record: float
    eps_probs: dict
    beat_reference: float | None
    expected_wait: float
    beyond_support: bool


@dataclass(frozen=True)
class StoppingReport:
    model: str
    epsilons: tuple
    rows: tuple
    increment_mode: str
    increment_scale: float | None
    reference: float | None


def _survival_ratio(fit: FittedCdf, r_from: float, r_to: float) -> float:
    s_from = float(fit.survival(r_from))
    if s_from <= 0.0:
        return 0.0
    return float(fit.survival(r_to)) / s_from


def record_increment_prob(fit: FittedCdf, r_d: float, epsilon: float) -> float:
    """P(next record > (1 + epsilon) * r_d | current record r_d).

    Multiplicative increments assume positive records; the target is
    floored at r_d so the value stays in [0, 1].  Returns 0 when r_d is
    beyond the fitted support (survival underflows to zero).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return _survival_ratio(fit, r_d, max((1.0 + epsilon) * r_d, r_d))


def beat_reference_prob(fit: FittedCdf, r_d: float, m: float) -> float:
    """P(next record beats reference m | current record r_d).

    The raw survival ratio (1 - F(m)) / (1 - F(r_d)) is returned; it
    exceeds 1 exactly when the current record already beats m, which the
    report serializes as the ">1" sentinel.  A reference beyond the
    fitted support gives 0, logged at DEBUG.
    """
    p = _survival_ratio(fit, r_d, m)
    if p == 0.0 and r_d <= m:
        logging.getLogger(__name__).debug("reference %r is beyond the fitted support", m)
    return math.inf if p == 0.0 and r_d > m else p


def expected_wait_next_record(fit: FittedCdf, r_d: float) -> float:
    """Mean of the geometric waiting time, 1 / (1 - F(r_d)); inf beyond
    the fitted support."""
    s = float(fit.survival(r_d))
    if s <= 0.0:
        return math.inf
    return 1.0 / s


def wait_tail_prob(fit: FittedCdf, r_d: float, j: int) -> float:
    """P(waiting time for the next record exceeds j) = F(r_d)^j."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if j == 0:
        return 1.0
    return float(fit.cdf(r_d)) ** j


def is_beyond_support(fit: FittedCdf, r: float) -> bool:
    return float(fit.survival(r)) <= 0.0


def _increment_targets(r: float, epsilons, mode: str, scale: float):
    if mode == "multiplicative":
        return [max((1.0 + e) * r, r) for e in epsilons]
    return [r + e * scale for e in epsilons]


def _build_row(fit, time, value, epsilons, mode, scale, reference) -> StoppingRow:
    probs = {
        e: _survival_ratio(fit, value, t)
        for e, t in zip(epsilons, _increment_targets(value, epsilons, mode, scale))
    }
    beat = None if reference is None else beat_reference_prob(fit, value, reference)
    return StoppingRow(
        n_sims=int(time),
        record=float(value),
        eps_probs=probs,
        beat_reference=beat,
        expected_wait=expected_wait_next_record(fit, value),
        beyond_support=is_beyond_support(fit, value),
    )


def _increment_setup(records: RecordSequence, epsilons, reference):
    """Sorted epsilons, increment mode and additive scale for a report;
    rejects a negative or non-finite epsilon and a non-finite reference."""
    if records.count == 0:
        raise ValueError("record sequence is empty")
    eps = tuple(sorted(float(e) for e in (epsilons or DEFAULT_EPSILONS)))
    if not all(0 <= e < math.inf for e in eps):
        raise ValueError(f"epsilons must be finite and nonnegative, got {eps}")
    if reference is not None and not math.isfinite(reference):
        raise ValueError(f"reference must be finite, got {reference}")
    if records.values[0] <= 0:
        scale = records.trace_iqr
        if not np.isfinite(scale) or scale <= 0:
            scale = max(abs(float(records.values[-1])), 1.0)
        return eps, "additive", scale
    return eps, "multiplicative", None


def build_stopping_report(records: RecordSequence, fits, epsilons=None,
                          reference: float | None = None) -> list:
    """One report per fitted model, one row per record.

    Epsilon columns are sorted ascending.  Multiplicative (1 + epsilon)
    increments require positive records; when any record value is <= 0
    the report switches to additive increments r + epsilon * scale with
    scale the interquartile range of the source trace, and says so in
    increment_mode.
    """
    eps, mode, scale = _increment_setup(records, epsilons, reference)
    reports = []
    for fit in fits:
        rows = tuple(
            _build_row(fit, t, v, eps, mode, scale, reference)
            for t, v in zip(records.times, records.values)
        )
        reports.append(
            StoppingReport(
                model=fit.family,
                epsilons=eps,
                rows=rows,
                increment_mode=mode,
                increment_scale=scale,
                reference=reference,
            )
        )
    return reports


def evaluate_latest_record(records: RecordSequence, fit: FittedCdf,
                           epsilons, reference: float | None = None) -> StoppingRow:
    """Stopping diagnostics for the most recent record only: the last row
    of build_stopping_report, without building the others."""
    eps, mode, scale = _increment_setup(records, epsilons, reference)
    return _build_row(fit, records.times[-1], records.values[-1], eps, mode, scale, reference)


def should_stop(policy: StoppingPolicy, row: StoppingRow) -> bool:
    """Conjunction of both criteria: the epsilon-improvement has become
    unlikely AND the expected wait for any improvement is too long."""
    if policy.epsilon not in row.eps_probs:
        raise ValueError(
            f"row carries no increment probability for epsilon={policy.epsilon}"
        )
    return (
        row.eps_probs[policy.epsilon] < policy.delta
        and row.expected_wait > policy.max_expected_wait
    )


def _fmt_prob(p: float | None):
    if p is None:
        return "n/a"
    if p > 1.0:
        return ">1"
    return p


def write_stopping_csv(report: StoppingReport, path) -> None:
    """Table-style CSV: n_sims,record,p_eps_*,beat_reference,expected_wait."""
    rows = report.rows
    eps_cols = [f"p_eps_{i + 1}" for i in range(len(report.epsilons))]
    write_csv(path, ["n_sims", "record", *eps_cols, "beat_reference", "expected_wait"],
              [[r.n_sims for r in rows], [r.record for r in rows],
               *([r.eps_probs[e] for r in rows] for e in report.epsilons),
               [_fmt_prob(r.beat_reference) for r in rows],
               [r.expected_wait for r in rows]])


POLICY_LOG_HEADER = ("iteration", "threshold", "xi", "p_eps", "expected_wait",
                     "decision", "reason")


def write_policy_csv(checks, path) -> None:
    """One row per policy check (a list of PolicyCheck); empty cells where
    a failed check computed nothing."""
    write_csv(path, POLICY_LOG_HEADER,
              [[getattr(c, field) for c in checks] for field in POLICY_LOG_HEADER])
