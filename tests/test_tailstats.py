"""Tail estimation: exceedance counting, threshold search, Hill estimator,
geometric decay fits, the CSV row builders, and the KS helpers of
tests/conftest.py.

The Hill estimator is validated on continuous Pareto draws where the index
is known exactly and against a naive sort of the sample; counting code is
validated against naive loops.  Raw samples and value histograms must give
the same numbers.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from bpire.env_model import ImmigrationFamily, env_immigration_survival, immigration_survival
from bpire.errors import DegenerateOrderStats, ReferenceVanishes
from bpire.experiments import RunReport, emit_report
from bpire.rng import RngState
from bpire.simulator import sample_immigration_batch
from bpire.tailstats import (
    default_hill_k,
    exceedances,
    fit_geometric_decay,
    grid_from_levels,
    hill_estimate,
    hill_sweep,
    hill_table,
    histogram,
    ratio_from_counts,
    tail_ratio,
    tail_table,
    threshold_for_level,
)

from conftest import hill_functional, ks_distance, ks_threshold, two_atom_env


def _empirical_tail(samples, grid):
    # against a unit reference the survival columns are the plain frequencies
    return ratio_from_counts(exceedances(samples, grid), len(samples), lambda x: 1.0, grid)


def test_empirical_tail_counts_by_hand():
    rep = _empirical_tail(np.array([1, 2, 3]), np.array([2.0]))
    assert rep.survival[0] == pytest.approx(1.0 / 3.0)
    assert rep.n == 3
    beyond = _empirical_tail(np.array([1, 2, 3]), np.array([5.0]))
    assert beyond.survival[0] == 0.0
    assert beyond.se[0] == 0.0


@given(
    samples=hst.lists(hst.integers(0, 30), min_size=1, max_size=60),
    xs=hst.lists(hst.integers(-2, 35), min_size=1, max_size=8, unique=True),
)
def test_empirical_tail_matches_a_naive_loop(samples, xs):
    grid = np.array(sorted(xs), dtype=float)
    naive = [sum(1 for s in samples if s > x) for x in grid]
    assert exceedances(np.array(samples), grid).tolist() == naive
    values, counts = np.unique(samples, return_counts=True)
    assert exceedances(values, grid, counts).tolist() == naive
    rep = _empirical_tail(np.array(samples), grid)
    for p, c in zip(rep.survival, naive):
        assert p == pytest.approx(c / len(samples))


def test_empirical_tail_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tail_ratio(np.array([], dtype=np.int64), lambda x: 1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        exceedances(np.array([1]), np.array([3.0, 2.0]))
    with pytest.raises(ValueError):
        ratio_from_counts(np.array([5]), 3, lambda x: 1.0, np.array([1.0]))


def test_histogram_of_raw_draws_and_its_checks():
    values, counts = histogram(np.array([4, 1, 4, 2, 4]))
    assert values.tolist() == [1, 2, 4] and counts.tolist() == [1, 1, 3]
    assert [a.tolist() for a in histogram(values, counts)] == [[1, 2, 4], [1, 1, 3]]
    with pytest.raises(ValueError):
        histogram(np.array([2, 1]), np.array([1, 1]))  # not increasing
    with pytest.raises(ValueError):
        histogram(np.array([1, 1]), np.array([1, 1]))  # repeated value
    with pytest.raises(ValueError):
        histogram(np.array([1, 2]), np.array([1]))  # misaligned
    with pytest.raises(ValueError):
        histogram(np.array([1, 2]), np.array([1, -1]))


def test_dpareto_sampler_meets_its_own_survival_deep_in_the_tail():
    # a million draws, x = 31: S = 32^-2
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    draws = sample_immigration_batch(law, RngState.from_seed(8), 1_000_000)
    rep = _empirical_tail(draws, np.array([31.0]))
    s = 1.0 / 1024.0
    se = math.sqrt(s * (1 - s) / 1_000_000)
    assert abs(rep.survival[0] - s) <= 4 * se


def test_tail_ratio_of_a_sampler_against_its_own_law_is_one():
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    draws = sample_immigration_batch(law, RngState.from_seed(9), 1_000_000)
    grid = np.array([3.0, 9.0, 31.0])
    rep = tail_ratio(draws, lambda x: float(immigration_survival(law, x)), grid)
    for r, se in zip(rep.ratio, rep.ratio_se):
        assert abs(r - 1.0) <= 4 * se


def test_ratio_from_counts_matches_tail_ratio():
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    draws = sample_immigration_batch(law, RngState.from_seed(10), 50_000)
    grid = np.array([1.0, 9.0])
    a = tail_ratio(draws, lambda x: float(immigration_survival(law, x)), grid)
    counts = np.array([(draws > x).sum() for x in grid])
    b = ratio_from_counts(counts, draws.size, lambda x: float(immigration_survival(law, x)), grid)
    values, hist_counts = np.unique(draws, return_counts=True)
    c = tail_ratio(values, lambda x: float(immigration_survival(law, x)), grid, hist_counts)
    for field in ("survival", "se", "ratio", "ratio_se"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert np.array_equal(getattr(c, field), getattr(b, field)), field
    assert a.n == c.n == draws.size


def test_ratio_rejects_vanishing_reference():
    with pytest.raises(ReferenceVanishes):
        tail_ratio(np.array([1, 2]), lambda x: 0.0, np.array([1.0]))


def test_threshold_for_level_boundaries():
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    surv = lambda x: float(immigration_survival(law, x))
    # smallest x with (1+x)^-2 <= level
    assert threshold_for_level(surv, 1e-2) == 9
    assert threshold_for_level(surv, 1e-3) == 31
    assert threshold_for_level(surv, 1e-4) == 99
    assert threshold_for_level(surv, 0.5) == 1
    assert threshold_for_level(surv, 1.0) == 0
    assert threshold_for_level(lambda x: 0.0, 0.5) == 0
    with pytest.raises(ValueError):
        threshold_for_level(surv, 1.5)


def test_threshold_for_level_is_elementwise_over_an_array_of_levels():
    # config_a's survival, called on int64 arrays shaped like the levels
    surv = lambda x: env_immigration_survival(two_atom_env(), x)
    levels = np.geomspace(0.5, 1e-6, 24).reshape(4, 6)
    got = threshold_for_level(surv, levels)
    assert got.shape == levels.shape and got.dtype == np.int64
    want = [threshold_for_level(lambda x: float(surv(x)), float(lv)) for lv in levels.ravel()]
    assert got.ravel().tolist() == want
    assert want[0] == 1 and want[-1] == 999


@pytest.mark.parametrize("level", [0.0, -0.1, 1.0 + 1e-12, math.nan, [0.5, 0.0]])
def test_threshold_for_level_refuses_levels_outside_the_unit_interval(level):
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    with pytest.raises(ValueError):
        threshold_for_level(lambda x: immigration_survival(law, x), level)


def test_grid_from_levels_is_monotone_and_validated():
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    surv = lambda x: float(immigration_survival(law, x))
    grid = grid_from_levels(surv, (1e-2, 1e-3, 1e-4))
    assert grid.tolist() == [9, 31, 99]
    with pytest.raises(ValueError):
        grid_from_levels(surv, (1e-3, 1e-2))
    with pytest.raises(ValueError):
        grid_from_levels(surv, ())


def test_default_hill_k():
    # perfect-power boundaries must land exactly
    assert default_hill_k(1_000_000) == 10_000
    assert default_hill_k(1000) == 100
    assert default_hill_k(999) == 99


@pytest.mark.parametrize("kappa", [0.8, 1.5, 2.5])
def test_hill_recovers_a_continuous_pareto_index(kappa):
    # U^(-1/kappa) is Pareto with survival x^-kappa on [1, inf)
    gen = np.random.default_rng(123)
    draws = gen.random(1_000_000) ** (-1.0 / kappa)
    k = default_hill_k(draws.size)
    est, ci = hill_estimate(draws, k)
    assert abs(est - kappa) <= 0.05 * kappa
    assert ci > 0.0


def test_hill_integer_shift_on_the_heavy_family():
    # integer samples enter shifted by +0.5; on the pure quadratic tail the
    # estimate lands near 2 with a small granularity premium
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    draws = sample_immigration_batch(law, RngState.from_seed(12), 1_000_000)
    est, _ = hill_estimate(draws, default_hill_k(draws.size))
    assert abs(est - 2.0) <= 0.25


def test_hill_rejects_tied_top_order_statistics():
    with pytest.raises(DegenerateOrderStats):
        hill_estimate(np.full(100, 7), 10)
    # the top 10 tie with the threshold in a sample that is not constant
    with pytest.raises(DegenerateOrderStats):
        hill_estimate(np.array([1] * 50 + [7] * 50), 10)
    with pytest.raises(DegenerateOrderStats):
        hill_estimate(np.array([1, 7]), 10, counts=np.array([50, 50]))


def _naive_hill(samples, k):
    """k / sum of log(X_(i) / X_(k+1)) over the top k of a full sort."""
    vals = np.asarray(samples, dtype=np.float64)
    if np.issubdtype(np.asarray(samples).dtype, np.integer):
        vals = vals + 0.5
    desc = np.sort(vals)[::-1]
    return k / math.fsum(math.log(v) - math.log(desc[k]) for v in desc[:k])


@pytest.mark.parametrize("continuous", [False, True])
def test_hill_matches_a_full_sort_on_samples_and_histograms(continuous):
    if continuous:
        draws = np.random.default_rng(21).random(20_000) ** -0.5
    else:
        law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
        draws = sample_immigration_batch(law, RngState.from_seed(21), 20_000)
    values, counts = np.unique(draws, return_counts=True)
    ks = [2, 17, 50, 300, 1999]
    sweep = hill_sweep(draws, ks)
    assert sweep.n == draws.size
    for k, swept in zip(sweep.k_grid, sweep.estimate):
        want = _naive_hill(draws, k)
        got, ci = hill_estimate(draws, k)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), k
        assert ci == 1.96 * got / math.sqrt(k)
        assert swept == got
        assert hill_estimate(values, k, counts) == (got, ci)
    from_hist = hill_sweep(values, ks, counts)
    for field in ("k_grid", "estimate", "ci95"):
        assert np.array_equal(getattr(from_hist, field), getattr(sweep, field)), field


def test_hill_sweep_drops_tied_ks():
    # the top 3 values are one value: k = 2 has no spacing, k = 3 does
    draws = np.array([9, 9, 9, 5, 4, 3, 2, 1, 1, 1])
    rep = hill_sweep(draws, [2, 3, 5])
    assert rep.k_grid.tolist() == [3, 5]
    with pytest.raises(DegenerateOrderStats):
        hill_sweep(draws, [2])


def test_hill_rejects_bad_k():
    with pytest.raises(ValueError):
        hill_estimate(np.arange(1, 50), 1)
    with pytest.raises(ValueError):
        hill_estimate(np.arange(1, 50), 49)


def test_hill_functional_of_the_empirical_pmf_is_hill_estimate():
    # the exact Hill reference of acceptance criterion 8 is this functional;
    # on a sample's own pmf it must reproduce the estimator to rounding
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    draws = sample_immigration_batch(law, RngState.from_seed(29), 100_000)
    n = draws.size
    top = np.sort(draws)[::-1]
    # k = 1000 and 4641 split a run of values tied at the threshold; k = edge
    # puts the threshold exactly at P(X > u) = k/n, where summed survivals
    # land on either side of k/n
    edge = int((draws > 10).sum())
    assert top[999] == top[1000] and top[4640] == top[4641]
    assert top[edge - 1] > 10 >= top[edge]
    pmf = np.bincount(draws) / n
    values, counts = np.unique(draws, return_counts=True)
    for k in (50, 1000, 4641, edge):
        want = hill_functional(pmf, k / n)
        assert hill_estimate(draws, k)[0] == pytest.approx(want, rel=1e-12, abs=0.0), k
        assert hill_estimate(values, k, counts)[0] == pytest.approx(want, rel=1e-12, abs=0.0), k


def test_hill_sweep_covers_usable_ks():
    gen = np.random.default_rng(5)
    draws = gen.random(10_000) ** (-1.0 / 2.0)
    rep = hill_sweep(draws)
    assert rep.k_grid.size >= 5
    assert np.all(np.diff(rep.k_grid) > 0)
    mid = rep.estimate[rep.k_grid >= 100]
    assert np.all(np.abs(mid - 2.0) <= 0.5)


def test_fit_geometric_decay_exact_recovery():
    ns = np.arange(0, 8)
    rho, r2 = fit_geometric_decay(ns, 0.5**ns)
    assert rho == pytest.approx(0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    rho2, r22 = fit_geometric_decay(ns, 3.0 * 0.7**ns)
    assert rho2 == pytest.approx(0.7, abs=1e-12)
    assert r22 == pytest.approx(1.0, abs=1e-12)


def test_fit_geometric_decay_validates_inputs():
    with pytest.raises(ValueError):
        fit_geometric_decay([0, 1], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_geometric_decay([0, 1, 2], [1.0, -0.5, 0.25])


def test_ks_distance_hand_cases():
    assert ks_distance([1, 2, 3], [1, 2, 3]) == 0.0
    assert ks_distance([0, 0], [1, 1]) == 1.0
    # F_a(1) = 1, F_b(1) = 1/2 at the point 1
    assert ks_distance([0, 1], [1, 2]) == pytest.approx(0.5)


def test_ks_threshold_formula():
    # c(0.01) * sqrt(2/n) with c = sqrt(-ln(0.005)/2)
    want = math.sqrt(-math.log(0.005) / 2.0) * math.sqrt(2.0 / 100_000)
    assert ks_threshold(100_000, 100_000, 0.01) == pytest.approx(want, rel=1e-12)


def test_tail_csv_layout():
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    draws = sample_immigration_batch(law, RngState.from_seed(14), 10_000)
    grid = np.array([1.0, 9.0])
    rep = tail_ratio(draws, lambda x: float(immigration_survival(law, x)), grid)
    header, rows = tail_table(rep, [True, False])
    assert header == "x,survival,se,ratio,ratio_se,reliable"
    assert len(rows) == 2
    assert rows[0][0] == "1" and rows[0][-1] == "1"
    assert rows[1][-1] == "0"
    assert [float(v) for v in rows[0][1:5]] == [rep.survival[0], rep.se[0], rep.ratio[0], rep.ratio_se[0]]


def test_hill_csv_layout():
    gen = np.random.default_rng(6)
    draws = gen.random(5_000) ** (-1.0 / 2.0)
    rep = hill_sweep(draws)
    header, rows = hill_table(rep)
    assert header == "k,kappa_hat,ci95"
    assert len(rows) == rep.k_grid.size
    k, est, ci = rows[0]
    assert int(k) == int(rep.k_grid[0])
    assert float(est) == rep.estimate[0] and float(ci) == rep.ci95[0]


def test_csv_writers_are_deterministic(tmp_path):
    # emit_report is the one CSV writer: header, then each row comma-joined
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    draws = sample_immigration_batch(law, RngState.from_seed(15), 20_000)
    grid = np.array([1.0, 3.0, 9.0])
    rep = tail_ratio(draws, lambda x: float(immigration_survival(law, x)), grid)
    header, rows = tail_table(rep, [True, True, True])
    run = RunReport("theorem", 1, True, (), 0.0, {}, (("ratio.csv", "csv", (header, rows)),))
    emit_report(run, tmp_path / "a")
    emit_report(run, tmp_path / "b")
    want = "".join(line + "\n" for line in [header, *(",".join(r) for r in rows)])
    assert (tmp_path / "a" / "ratio.csv").read_text() == want
    assert (tmp_path / "a" / "ratio.csv").read_bytes() == (tmp_path / "b" / "ratio.csv").read_bytes()
