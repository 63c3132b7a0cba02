"""Judge one operation's artifacts against the reference values.

Each `check_*` returns the problems it finds in one operation's output; an
empty list means the output is correct.  Tolerances are in
standard errors (SE).  A family of several simultaneous comparisons (every
level of a tail grid, every depth of the decay table) uses 5 SE, so that a
correct program fails a run by chance with probability below 1e-5; a single
comparison uses 4 SE, as the acceptance gate does.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

import reference as ref

Z_SINGLE = 4.0
Z_FAMILY = 5.0
# Grid points whose exact expected exceedance count is below this are not
# judged: the normal approximation behind an SE bound needs the count.
MIN_EXPECTED = 100.0


def read_csv(path: Path) -> list[dict]:
    # decay.csv writes numpy scalars through repr(), as "np.float64(0.5)"
    unwrap = re.compile(r"^np\.\w+\((.*)\)$")
    with open(path) as fh:
        return [
            {k: float(unwrap.sub(r"\1", v)) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _row_at(rows: list[dict], x: int) -> dict | None:
    return next((r for r in rows if int(r["x"]) == x), None)


def check_grid(rows: list[dict], xs: list[int]) -> list[str]:
    got = [int(r["x"]) for r in rows]
    return [] if got == xs else [f"ratio.csv grid {got} differs from the reference grid {xs}"]


def check_stationary_ratio(rows, x: int, exact: tuple[float, float]) -> list[str]:
    """Ratio at x against the exact law at two caps (coarse, fine): within
    4 SE plus the cap-to-cap change."""
    row = _row_at(rows, x)
    if row is None:
        return [f"ratio.csv has no row at x = {x}"]
    coarse, fine = exact
    allowed = Z_SINGLE * row["ratio_se"] + abs(fine - coarse)
    gap = abs(row["ratio"] - fine)
    if gap > allowed:
        return [f"ratio at x = {x}: {row['ratio']:.6g}, exact {fine:.6g}, gap {gap:.3g} > {allowed:.3g}"]
    return []


def check_hill(kappa_hat: float, exact: tuple[float, float], sd: float) -> list[str]:
    """kappa_hat against the exact Hill functional at the run's k/n: within
    4 SE plus the cap-to-cap change, the SE being the estimate's standard
    deviation on the exact law (reference.hill_sd)."""
    coarse, fine = exact
    allowed = Z_SINGLE * sd + abs(fine - coarse)
    gap = abs(kappa_hat - fine)
    if gap > allowed:
        return [f"kappa_hat {kappa_hat:.6g}, exact Hill functional {fine:.6g}, gap {gap:.3g} > {allowed:.3g}"]
    return []


def check_exact_tail(rows, n: int, exact_tail: dict[int, float], ref_surv: dict[int, float]) -> list[str]:
    """Ratio at every grid point against the exact finite-level tail divided
    by the reference survival, with the exact binomial SE."""
    problems = []
    for x, p in exact_tail.items():
        if n * p < MIN_EXPECTED:
            continue
        row = _row_at(rows, x)
        if row is None:
            problems.append(f"ratio.csv has no row at x = {x}")
            continue
        want = p / ref_surv[x]
        se = math.sqrt(p * (1.0 - p) / n) / ref_surv[x]
        if abs(row["ratio"] - want) > Z_FAMILY * se:
            problems.append(
                f"ratio at x = {x}: {row['ratio']:.6g}, exact {want:.6g}, "
                f"{(row['ratio'] - want) / se:+.2f} SE (limit {Z_FAMILY:g})"
            )
    return problems


def check_limit_ratio(rows, x: int, limit: float, tolerance: float) -> list[str]:
    """Ratio at x within `tolerance` (relative) of the limit, widened by 4 SE."""
    row = _row_at(rows, x)
    if row is None:
        return [f"ratio.csv has no row at x = {x}"]
    allowed = tolerance * limit + Z_SINGLE * row["ratio_se"]
    if abs(row["ratio"] - limit) > allowed:
        return [f"ratio at x = {x}: {row['ratio']:.6g}, limit {limit:.6g}, gap > {allowed:.3g}"]
    return []


def check_decay(rows, rate: float) -> list[str]:
    """Unit-progeny moment at every depth n against rate^n."""
    problems = []
    for row in rows:
        n = int(row["n"])
        want = rate**n
        if abs(row["moment"] - want) > Z_FAMILY * row["se"]:
            problems.append(
                f"moment at depth {n}: {row['moment']:.6g}, exact {want:.6g}, "
                f"{(row['moment'] - want) / row['se']:+.2f} SE (limit {Z_FAMILY:g})"
            )
    return problems


def check_oracle(out: Path, replicas: int) -> list[str]:
    """P(X = 0) of the bernoulli chain: exact to 1e-9 in stationary.csv, and
    within 4 SE in the sampler's empirical.csv."""
    p0 = ref.stationary_zero_mass_bernoulli()
    exact = read_csv(out / "stationary.csv")[0]
    emp = read_csv(out / "empirical.csv")[0]
    problems = []
    if int(exact["state"]) != 0 or abs(exact["probability"] - p0) > 1e-9:
        problems.append(f"exact P(X = 0) = {exact['probability']!r}, product formula {p0!r}")
    se = math.sqrt(p0 * (1.0 - p0) / replicas)
    if int(emp["state"]) != 0 or abs(emp["probability"] - p0) > Z_SINGLE * se:
        problems.append(f"empirical P(X = 0) = {emp['probability']!r}, exact {p0!r}, SE {se:.3g}")
    return problems


def check_exact_law(out: Path, caps: tuple[int, int], independent: dict[int, np.ndarray], x: int, ref_surv_x: float) -> list[str]:
    """The oracle's pmfs at two caps: proper pmfs, stationary, close to the
    independent solve, and settled in the cap (clipped mass falls, the ratio
    at x moves by less than 5e-3)."""
    summary = read_json(out / "exact_law.json")
    problems = []
    ratio = {}
    for cap in caps:
        pmf = np.load(out / f"pmf_{cap}.npy")
        stats = summary[str(cap)]
        if pmf.shape != (cap + 1,) or pmf.min() < 0.0:
            problems.append(f"cap {cap}: pmf has shape {pmf.shape} or negative entries")
            continue
        if abs(pmf.sum() - 1.0) > 1e-9:
            problems.append(f"cap {cap}: pmf sums to {pmf.sum()!r}")
        if stats["stationarity"] > 1e-9:
            problems.append(f"cap {cap}: ||pi P - pi||_1 = {stats['stationarity']:.3g}")
        tv = 0.5 * float(np.abs(pmf - independent[cap]).sum())
        if tv > 1e-8:
            problems.append(f"cap {cap}: total variation {tv:.3g} from the independent solve")
        ratio[cap] = float(pmf[x + 1 :].sum()) / ref_surv_x
    coarse, fine = caps
    if not summary[str(fine)]["clipped"] < summary[str(coarse)]["clipped"]:
        problems.append("clipped mass does not fall from the coarse to the fine cap")
    if len(ratio) == 2 and abs(ratio[fine] - ratio[coarse]) >= 5e-3:
        problems.append(f"ratio at x = {x} moves by {abs(ratio[fine] - ratio[coarse]):.3g} between caps")
    return problems
