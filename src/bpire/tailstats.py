"""Tail estimation on integer (or real) samples.

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
    "tail_ratio",
    "ratio_from_counts",
    "threshold_for_level",
    "grid_from_levels",
    "default_hill_k",
    "hill_estimate",
    "hill_sweep",
    "fit_geometric_decay",
    "summary_dict",
    "write_tail_csv",
    "write_hill_csv",
]

_REF_FLOOR = 1e-300


@dataclass(frozen=True)
class TailReport:
    """Survival estimates on a grid; ratio columns present when a reference
    survival was supplied."""

    x_grid: np.ndarray
    survival: np.ndarray
    se: np.ndarray
    n: int
    ratio: np.ndarray | None = None
    ratio_se: np.ndarray | None = None


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


def empirical_tail(samples, x_grid) -> TailReport:
    """Exceedance frequencies #{s > x}/n with binomial standard errors."""
    arr = np.asarray(samples)
    if arr.size == 0:
        raise ValueError("empty sample set")
    x = _check_grid(x_grid)
    s = np.sort(arr)
    n = s.size
    exceed = n - np.searchsorted(s, x, side="right")
    return tail_from_counts(exceed, n, x)


def tail_from_counts(exceed_counts, n: int, x_grid) -> TailReport:
    """Same report as empirical_tail, from precounted exceedances."""
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
    return TailReport(x_grid=x, survival=p, se=se, n=int(n))


def _attach_ratio(report: TailReport, ref_survival) -> TailReport:
    ref = np.array([float(ref_survival(x)) for x in report.x_grid])
    if np.any(ref <= _REF_FLOOR):
        bad = report.x_grid[ref <= _REF_FLOOR]
        raise ReferenceVanishes(f"reference survival underflows at x = {bad.tolist()}")
    return TailReport(
        x_grid=report.x_grid,
        survival=report.survival,
        se=report.se,
        n=report.n,
        ratio=report.survival / ref,
        ratio_se=report.se / ref,
    )


def tail_ratio(samples, ref_survival, x_grid) -> TailReport:
    """Empirical survival divided by an exact reference, with delta-method
    standard errors (se / reference)."""
    return _attach_ratio(empirical_tail(samples, x_grid), ref_survival)


def ratio_from_counts(exceed_counts, n: int, ref_survival, x_grid) -> TailReport:
    return _attach_ratio(tail_from_counts(exceed_counts, n, x_grid), ref_survival)


def threshold_for_level(surv, level: float) -> int:
    """Smallest integer x >= 0 with surv(x) <= level (surv non-increasing)."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    if float(surv(0)) <= level:
        return 0
    hi = 1
    while float(surv(hi)) > level:
        hi *= 2
        if hi > 1 << 62:
            raise OverflowError("survival level unreachable below 2^62")
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if float(surv(mid)) <= level:
            hi = mid
        else:
            lo = mid
    return hi


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


def _hill_values(samples) -> np.ndarray:
    arr = np.asarray(samples)
    if np.issubdtype(arr.dtype, np.integer):
        vals = arr.astype(np.float64) + 0.5  # integer de-granulation
    else:
        vals = arr.astype(np.float64)
    if vals.size and vals.min() <= 0.0:
        raise ValueError("samples must be positive (integers enter shifted by +0.5)")
    return vals


def hill_estimate(samples, k: int) -> tuple[float, float]:
    """Hill tail-index estimate from the top k order statistics.

    Returns (kappa_hat, ci95) where ci95 = 1.96 * kappa_hat / sqrt(k) is the
    asymptotic half-width for a continuous law.  On integer samples the
    threshold order statistic sits on an integer and the count above it is
    random, which that figure leaves out; there the true spread is wider (for
    stationary samples of config_a, about 1.4 times).
    """
    vals = _hill_values(samples)
    n = vals.size
    if not 2 <= k < n:
        raise InsufficientData(f"Hill estimate needs 2 <= k < n (k = {k}, n = {n})")
    part = np.partition(vals, n - k - 1)
    threshold = part[n - k - 1]
    top = part[n - k:]
    if top.max() == threshold:
        raise DegenerateOrderStats("top order statistics are tied; tail index undefined here")
    denom = float(np.sum(np.log(top) - math.log(threshold)))
    if denom <= 0.0:
        raise DegenerateOrderStats("nonpositive log spacing in top order statistics")
    kappa_hat = k / denom
    return kappa_hat, 1.96 * kappa_hat / math.sqrt(k)


def hill_sweep(samples, k_grid=None) -> HillReport:
    """Hill estimates across k values (log-spaced by default); k values whose
    order statistics are degenerate are dropped from the report."""
    vals = _hill_values(samples)
    n = vals.size
    if n < 4:
        raise InsufficientData(f"too few samples for a Hill sweep (n = {n}, need 4)")
    if k_grid is None:
        hi = max(3, n // 10)
        k_grid = np.unique(np.round(np.logspace(math.log10(2), math.log10(hi), 30)).astype(int))
    ks, est, ci = [], [], []
    desc = np.sort(vals)[::-1]
    logs = np.log(desc)
    cum = np.cumsum(logs)
    for k in np.asarray(k_grid, dtype=int):
        if not 2 <= k < n:
            continue
        denom = float(cum[k - 1] - k * logs[k])
        if denom <= 0.0:
            continue
        kh = k / denom
        ks.append(int(k))
        est.append(kh)
        ci.append(1.96 * kh / math.sqrt(k))
    if not ks:
        raise DegenerateOrderStats("no usable k in the requested sweep")
    return HillReport(
        k_grid=np.array(ks, dtype=np.int64),
        estimate=np.array(est),
        ci95=np.array(ci),
        n=n,
    )


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


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, exact under ties."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample set")
    pts = np.unique(np.concatenate([a, b]))
    cdf_a = np.searchsorted(a, pts, side="right") / a.size
    cdf_b = np.searchsorted(b, pts, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample rejection threshold at significance alpha."""
    if n <= 0 or m <= 0:
        raise ValueError("sample sizes must be positive")
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


# ---- report files ----------------------------------------------------------

def _fmt(v) -> str:
    f = float(v)
    return str(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)


def summary_dict(constant_hat: float, constant_theory: float, kappa_hat: float | None) -> dict:
    return {
        "constant_hat": constant_hat,
        "constant_theory": constant_theory,
        "kappa_hat": kappa_hat,
    }


def write_tail_csv(path, report: TailReport, reliable=None) -> None:
    """Rows (x, survival, se, ratio, ratio_se[, reliable]); requires ratio
    columns, which is what the experiments publish."""
    if report.ratio is None:
        raise ValueError("report carries no ratio columns")
    cols = ["x", "survival", "se", "ratio", "ratio_se"]
    if reliable is not None:
        cols.append("reliable")
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(report.x_grid.size):
            row = [
                _fmt(report.x_grid[i]),
                repr(float(report.survival[i])),
                repr(float(report.se[i])),
                repr(float(report.ratio[i])),
                repr(float(report.ratio_se[i])),
            ]
            if reliable is not None:
                row.append("1" if reliable[i] else "0")
            fh.write(",".join(row) + "\n")


def write_hill_csv(path, report: HillReport) -> None:
    """Rows (k, kappa_hat, ci95) across the sweep grid."""
    with open(path, "w") as fh:
        fh.write("k,kappa_hat,ci95\n")
        for i in range(report.k_grid.size):
            fh.write(
                f"{int(report.k_grid[i])},{repr(float(report.estimate[i]))},{repr(float(report.ci95[i]))}\n"
            )
