"""Distances and fits of a sample against reference laws.

Each fit and distance takes a 1-D sample in any order and sorts it first.
Censored observations never enter a distance or a moment; callers count
them separately, since hitting the step cap is an anomaly signal rather
than distribution mass.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class FitReport:
    """Distances and moments of a sample against one reference law."""

    reference: str
    params: dict
    ks_distance: float | None
    w1_distance: float | None
    sample_mean: float
    sample_variance: float
    sem: float
    sup_tail_ratio: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def _fit_report(x, reference: str, params: dict, ks: float | None,
                w1: float | None, sup_tail_ratio: float | None = None) -> FitReport:
    """The report of ``x``'s distances to one law, with its moments."""
    v = np.sort(np.asarray(x, dtype=float))  # so the moments' bits do not depend on the order
    var = float(v.var(ddof=1)) if v.size > 1 else 0.0
    return FitReport(
        reference=reference,
        params=params,
        ks_distance=ks,
        w1_distance=w1,
        sample_mean=float(v.mean()) if v.size else math.nan,
        sample_variance=var,
        sem=math.sqrt(var / v.size) if v.size else math.nan,
        sup_tail_ratio=sup_tail_ratio,
    )


def ks_distance(x, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a reference CDF.

    Both one-sided jumps are evaluated at every sample point: the
    empirical CDF just after ``x_i`` against ``cdf(x_i)`` and just before
    ``x_i`` against the reference's left limit (taken one ulp below, which
    is exact for step references and immaterial for continuous ones).
    ``cdf`` must accept an ndarray.
    """
    v = np.sort(np.asarray(x, dtype=float))
    n = v.size
    if n < 1:
        raise ValueError("need at least one observation")
    # on a sorted sample, the index of a value's first copy is its rank
    distinct, first_idx, counts = np.unique(v, return_index=True, return_counts=True)
    f_right = np.asarray(cdf(distinct), dtype=float)
    f_left = np.asarray(cdf(np.nextafter(distinct, -np.inf)), dtype=float)
    after = (first_idx + counts) / n
    before = first_idx / n
    return float(np.maximum(np.abs(f_right - after), np.abs(f_left - before)).max())


def w1_distance(x, reference) -> float:
    """L1-Wasserstein distance against a reference sample or quantile function.

    Against another sample (any size) this is the exact area between the
    two empirical CDFs, which for equal sizes reduces to the mean absolute
    difference of order statistics. Against a quantile function ``Q`` it is
    the midpoint-grid average ``mean |x_(i) - Q((i - 1/2) / n)|``.
    """
    v = np.sort(np.asarray(x, dtype=float))
    if v.size < 1:
        raise ValueError("need at least one observation")
    if callable(reference):
        grid = (np.arange(v.size) + 0.5) / v.size
        return float(np.abs(v - np.asarray(reference(grid), dtype=float)).mean())
    other = np.sort(np.asarray(reference, dtype=float))
    if other.size == v.size:
        return float(np.abs(v - other).mean())
    return _ecdf_area(v, other)


def _ecdf_area(a: np.ndarray, b: np.ndarray) -> float:
    support = np.concatenate([a, b])
    support.sort(kind="mergesort")
    deltas = np.diff(support)
    f_a = np.searchsorted(a, support[:-1], side="right") / a.size
    f_b = np.searchsorted(b, support[:-1], side="right") / b.size
    return float(np.sum(np.abs(f_a - f_b) * deltas))


def ks_two_sample(x, reference) -> float:
    """Two-sample KS distance, ``sup_x |F_1(x) - F_2(x)|``: KS against the reference's ECDF.

    Between two of ``x``'s points the difference is monotone, so the jumps
    :func:`ks_distance` evaluates at ``x``'s points reach the sup.
    """
    other = np.sort(np.asarray(reference, dtype=float))
    return ks_distance(x, lambda t: np.searchsorted(other, t, side="right") / other.size)


def exponential_cdf(mean: float):
    """CDF of the exponential law with the given mean."""
    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, -np.expm1(-x / mean), 0.0)
    return cdf


def exponential_quantile(mean: float):
    def quantile(p):
        return -mean * np.log1p(-np.asarray(p, dtype=float))
    return quantile


def geometric_cdf(lam: float):
    """CDF of the geometric law on {0, 1, ...} with success probability lam."""
    def cdf(x):
        x = np.asarray(x, dtype=float)
        k = np.floor(x)
        return np.where(k >= 0, -np.expm1(np.log1p(-lam) * (k + 1.0)), 0.0)
    return cdf


def geometric_quantile(lam: float):
    def quantile(p):
        p = np.asarray(p, dtype=float)
        k = np.ceil(np.log1p(-p) / math.log1p(-lam)) - 1.0
        return np.maximum(k, 0.0)
    return quantile


def geometric_tail_fit(x, lam: float) -> FitReport:
    """Compare a sample of stopping times against Geom(lam) on {0, 1, ...}.

    ``sup_tail_ratio`` is the largest ``P_emp(X > t) / (1 - lam)^t`` over
    observed values ``t`` at which both tails are positive (1.0 when no
    such value exists, e.g. the degenerate ``lam = 1``). The denominator
    is the survival function of the geometric on {1, 2, ...}: it matches
    the meeting-time normalization, where the mass at 0 is vanishing, and
    sits one factor ``1 - lam`` above the {0, 1, ...} reference used for
    the KS and W1 distances.
    """
    if not 0 < lam <= 1:
        raise ValueError(f"rate must be in (0, 1], got {lam}")
    v = np.sort(np.asarray(x, dtype=float))
    n = v.size
    distinct, first_idx = np.unique(v, return_index=True)
    # P(X > t) just after the last copy of each distinct value.
    counts = np.diff(np.append(first_idx, n))
    tail = 1.0 - (first_idx + counts) / n
    ratios = []
    if lam < 1:
        log_q = math.log1p(-lam)
        for t, tail_p in zip(distinct, tail):
            if tail_p > 0:
                ratios.append(tail_p / math.exp(log_q * t))
    ks = ks_distance(v, geometric_cdf(lam)) if lam < 1 else None
    w1 = w1_distance(v, geometric_quantile(lam)) if lam < 1 else None
    return _fit_report(v, "geometric", {"lambda": lam}, ks, w1, max(ratios) if ratios else 1.0)


def exponential_fit(x, mean: float) -> FitReport:
    """KS and W1 distances of a sample against Exp(mean)."""
    if not 0 < mean < math.inf:
        raise ValueError(f"mean must be finite and positive, got {mean}")
    return _fit_report(x, "exponential", {"mean": mean}, ks_distance(x, exponential_cdf(mean)),
                       w1_distance(x, exponential_quantile(mean)))


def sample_fit(x, reference, name: str, params: dict | None = None) -> FitReport:
    """Two-sample KS and W1 distances against a reference sample."""
    return _fit_report(x, name, params or {}, ks_two_sample(x, reference),
                       w1_distance(x, reference))
