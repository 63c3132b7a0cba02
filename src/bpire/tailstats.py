"""Tail estimation on integer (or real) samples.

Every statistic reads a sample as a value histogram, its distinct values
ascending with their counts; a raw sample (counts=None) is reduced to one by
`np.unique`.  Raw draws and merged chunk histograms thus share one code path,
whose memory follows the number of distinct values, not of replicas.

Survival probabilities are plain exceedance counts with binomial standard
errors; ratios against a reference survival use the exact reference value at
the evaluated integer point, so grid granularity does not bias them.  The
Hill estimator shifts integer-valued samples by +0.5 before taking logs
(de-granulation: avoids log-of-tie degeneracy at small values); real-valued
samples are used as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOrderStats, InsufficientData, ReferenceVanishes

__all__ = [
    "TailReport",
    "histogram",
    "exceedances",
    "tail_ratio",
    "ratio_from_counts",
    "threshold_for_level",
    "grid_from_levels",
    "default_hill_k",
    "hill_estimate",
    "hill_sweep",
    "fit_geometric_decay",
    "tail_table",
    "hill_table",
]

_REF_FLOOR = 1e-300


@dataclass(frozen=True)
class TailReport:
    """Survival estimates on a grid and their ratios to a reference survival."""

    x_grid: np.ndarray
    survival: np.ndarray
    se: np.ndarray
    n: int
    ratio: np.ndarray
    ratio_se: np.ndarray


@dataclass(frozen=True)
class HillReport:
    k_grid: np.ndarray
    estimate: np.ndarray
    ci95: np.ndarray
    n: int


def _check_grid(x_grid) -> np.ndarray:
    x = np.asarray(x_grid, dtype=float)
    if x.size == 0:
        raise ValueError("empty evaluation grid")
    if x.size > 1 and not np.all(np.diff(x) > 0):
        raise ValueError("evaluation grid must be strictly increasing")
    return x


def histogram(values, counts=None) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values ascending, their counts).

    With counts=None, `values` is a raw sample and each entry counts once;
    otherwise `values` must already be strictly increasing with one count
    per value, as `np.unique(..., return_counts=True)` gives it.
    """
    if counts is None:
        return np.unique(np.asarray(values), return_counts=True)
    v, c = np.asarray(values), np.asarray(counts, dtype=np.int64)
    if v.shape != c.shape or v.ndim != 1 or np.any(v[1:] <= v[:-1]) or np.any(c < 0):
        raise ValueError("a histogram needs strictly increasing values with one count >= 0 each")
    return v, c


def exceedances(values, x_grid, counts=None) -> np.ndarray:
    """#{samples > x} at each grid point."""
    v, c = histogram(values, counts)
    at_most = np.concatenate(([0], np.cumsum(c)))
    return at_most[-1] - at_most[np.searchsorted(v, _check_grid(x_grid), side="right")]


def ratio_from_counts(exceed_counts, n: int, ref_survival, x_grid) -> TailReport:
    """Exceedance frequencies #{s > x}/n with binomial standard errors, and
    their ratios to an exact reference survival with delta-method standard
    errors (se / reference)."""
    x = _check_grid(x_grid)
    counts = np.asarray(exceed_counts, dtype=np.int64)
    if counts.shape != x.shape:
        raise ValueError("counts and grid must align")
    if n <= 0:
        raise ValueError("empty sample set")
    if counts.min(initial=0) < 0 or counts.max(initial=0) > n:
        raise ValueError("counts must lie in [0, n]")
    p = counts / n
    se = np.sqrt(p * (1.0 - p) / n)
    ref = np.array([float(ref_survival(v)) for v in x])
    if np.any(ref <= _REF_FLOOR):
        raise ReferenceVanishes(f"reference survival underflows at x = {x[ref <= _REF_FLOOR].tolist()}")
    return TailReport(x_grid=x, survival=p, se=se, n=int(n), ratio=p / ref, ratio_se=se / ref)


def tail_ratio(values, ref_survival, x_grid, counts=None) -> TailReport:
    """ratio_from_counts on the exceedances of a sample or histogram."""
    v, c = histogram(values, counts)
    return ratio_from_counts(exceedances(v, x_grid, c), int(c.sum()), ref_survival, x_grid)


def threshold_for_level(surv, level):
    """Smallest integer x >= 0 with surv(x) <= level for a non-increasing
    surv, elementwise over levels in (0, 1]: an int for a scalar level.

    surv is called on int64 arrays shaped like `level` (0-d for a scalar,
    so a scalar-only surv serves scalar levels).  The levels above surv at
    x double x from 1 in step, then bisect between its last two values; one
    above surv(2^62) raises OverflowError.
    """
    u = np.asarray(level, dtype=float)
    if not np.all((u > 0.0) & (u <= 1.0)):
        raise ValueError("levels must lie in (0, 1]")
    lo = hi = np.zeros(u.shape, dtype=np.int64)
    grow, step = surv(hi) > u, 1
    while np.any(grow):
        if step > 1 << 62:
            raise OverflowError(f"survival level {np.max(u[grow]):g} unreachable below 2^62")
        lo, hi = np.where(grow, hi, lo), np.where(grow, step, hi)
        grow, step = grow & (surv(hi) > u), 2 * step
    while np.any(hi - lo > 1):  # surv(lo) > u >= surv(hi) wherever hi > lo + 1
        span, mid = hi - lo > 1, (lo + hi) // 2
        below = surv(mid) <= u
        lo, hi = np.where(span & ~below, mid, lo), np.where(span & below, mid, hi)
    return int(hi) if hi.ndim == 0 else hi


def grid_from_levels(surv, levels) -> np.ndarray:
    """Integer grid points where the reference survival first drops to each
    level; levels must be strictly decreasing in (0, 1)."""
    lv = np.asarray(levels, dtype=float)
    if lv.size == 0:
        raise ValueError("no levels given")
    if np.any(lv <= 0.0) or np.any(lv >= 1.0):
        raise ValueError("levels must lie in (0, 1)")
    if lv.size > 1 and not np.all(np.diff(lv) < 0):
        raise ValueError("levels must be strictly decreasing")
    return np.array([threshold_for_level(surv, float(l)) for l in lv], dtype=np.int64)


def default_hill_k(n: int) -> int:
    """Default order-statistic count: floor(n^(2/3)), exactly.

    Float powering can undershoot at perfect-power boundaries (10^6 ** (2/3)
    lands just under 10^4), so the candidate is corrected with integer
    arithmetic: k = floor(n^(2/3)) iff k^3 <= n^2 < (k+1)^3.
    """
    k = int(math.floor(n ** (2.0 / 3.0)))
    while (k + 1) ** 3 <= n * n:
        k += 1
    while k > 0 and k**3 > n * n:
        k -= 1
    return k


def _log_spacings(values, counts):
    """Hill's one top-k routine, and n.

    Returns k -> sum_{i <= k} log(X_(i) / X_(k+1)) over the descending order
    statistics of a sample or histogram; integer values enter shifted by
    +0.5.  Copies of the threshold X_(k+1) inside the top k add nothing, so
    the sum runs over the distinct values above it, each times its count,
    and is 0 when the top k tie with the threshold.
    """
    v, c = histogram(values, counts)
    vals = v.astype(np.float64) + (0.5 if np.issubdtype(v.dtype, np.integer) else 0.0)
    if vals.size and vals[0] <= 0.0:
        raise ValueError("samples must be positive (integers enter shifted by +0.5)")
    logs, c = np.log(vals)[::-1], c[::-1]
    at_or_above = np.cumsum(c)

    def spacing(k: int) -> float:
        j = int(np.searchsorted(at_or_above, k, side="right"))  # X_(k+1)'s value
        return float(np.sum(c[:j] * (logs[:j] - logs[j])))

    return spacing, int(c.sum())


def hill_estimate(values, k: int, counts=None) -> tuple[float, float]:
    """Hill tail-index estimate from the top k order statistics of a sample
    (counts=None) or of a histogram.

    Returns (kappa_hat, ci95) where ci95 = 1.96 * kappa_hat / sqrt(k) is the
    asymptotic half-width for a continuous law.  On integer samples the
    threshold order statistic sits on an integer and the count above it is
    random, which that figure leaves out; there the true spread is wider (for
    stationary samples of config_a, about 1.4 times).
    """
    spacing, n = _log_spacings(values, counts)
    if not 2 <= k < n:
        raise InsufficientData(f"Hill estimate needs 2 <= k < n (k = {k}, n = {n})")
    denom = spacing(k)
    if denom <= 0.0:
        raise DegenerateOrderStats("top order statistics are tied; tail index undefined here")
    kappa_hat = k / denom
    return kappa_hat, 1.96 * kappa_hat / math.sqrt(k)


def hill_sweep(values, k_grid=None, counts=None) -> HillReport:
    """Hill estimates across k values (log-spaced by default); k values whose
    order statistics are degenerate are dropped from the report."""
    spacing, n = _log_spacings(values, counts)
    if n < 4:
        raise InsufficientData(f"too few samples for a Hill sweep (n = {n}, need 4)")
    if k_grid is None:
        hi = max(3, n // 10)
        k_grid = np.unique(np.round(np.logspace(math.log10(2), math.log10(hi), 30)).astype(int))
    spaced = [(int(k), spacing(int(k))) for k in np.asarray(k_grid, dtype=int) if 2 <= k < n]
    spaced = [(k, d) for k, d in spaced if d > 0.0]
    if not spaced:
        raise DegenerateOrderStats("no usable k in the requested sweep")
    ks = np.array([k for k, _ in spaced], dtype=np.int64)
    estimate = np.array([k / d for k, d in spaced])
    return HillReport(k_grid=ks, estimate=estimate, ci95=1.96 * estimate / np.sqrt(ks), n=n)


def fit_geometric_decay(ns, values) -> tuple[float, float]:
    """Least-squares fit of log(values) against ns.

    Returns (rho_hat, r_squared) with rho_hat = exp(slope).  Needs >= 3
    distinct n and strictly positive values.
    """
    ns = np.asarray(ns, dtype=float)
    v = np.asarray(values, dtype=float)
    if ns.size != v.size:
        raise ValueError("ns and values must align")
    if np.unique(ns).size < 3:
        raise ValueError("need at least 3 distinct n")
    if np.any(v <= 0.0):
        raise InsufficientData(
            "values must be > 0 for a log-linear fit; a level no sample reached needs more replicas"
        )
    y = np.log(v)
    slope, intercept = np.polyfit(ns, y, 1)
    pred = slope * ns + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(math.exp(slope)), r2


# ---- report files ----------------------------------------------------------

def _fmt(v) -> str:
    f = float(v)
    return str(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)


def tail_table(report: TailReport, reliable) -> tuple[str, list[tuple[str, ...]]]:
    """ratio.csv as (header, rows): x, survival, se, ratio, ratio_se and
    whether the reference survival at x is at least 1/sqrt(n)."""
    columns = (report.survival, report.se, report.ratio, report.ratio_se)
    rows = [
        (_fmt(x), *(repr(float(v)) for v in values), "1" if ok else "0")
        for x, *values, ok in zip(report.x_grid, *columns, reliable)
    ]
    return "x,survival,se,ratio,ratio_se,reliable", rows


def hill_table(report: HillReport) -> tuple[str, list[tuple[str, ...]]]:
    """hill.csv as (header, rows): k, kappa_hat, ci95 across the sweep grid."""
    rows = [
        (str(int(k)), repr(float(e)), repr(float(c)))
        for k, e, c in zip(report.k_grid, report.estimate, report.ci95)
    ]
    return "k,kappa_hat,ci95", rows
