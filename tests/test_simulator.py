"""Sampling layer: thinning closure, inversion immigration, chain steps,
truncation choice, backward sampler, sample dumps.

The load-bearing check is the closure audit: the thinning operator samples
the x-fold offspring sum through the family's summation closure, so we (a)
verify the closed-form pmf against an explicit x-fold convolution of the
single-draw pmf, and (b) chi-square the sampler against that pmf.  Together
these catch a wrong closure, a wrong pmf, or a biased sampler.
"""

import copy
import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bpire import experiments, simulator
from bpire.env_model import (
    DPARETO_BETA_PER_KAPPA,
    EnvAtom,
    EnvBatch,
    EnvGroup,
    EnvSpec,
    ImmigrationFamily,
    ModelSpec,
    OffspringFamily,
    draw_env_batch,
    env_immigration_survival,
    immigration_pmf,
    immigration_survival,
    mean_offspring,
    offspring_moment,
    thinned_offspring_mode,
    thinned_offspring_pmf,
)
from bpire.errors import NotSubcritical
from bpire.oracle import build_kernel, stationary_power_iteration
from bpire.rng import RngState
from bpire.simulator import (
    choose_truncation,
    composed_thinning_batch,
    imm_for_batch,
    random_sum_batch,
    sample_immigration_batch,
    sample_stationary_backward_batch,
    simulate_forward_batch,
    step_batch,
    thin_for_batch,
    unit_progeny_batch,
    write_samples_text,
)
from bpire.tailstats import threshold_for_level

from conftest import backward_terms, chi_square_pvalue, ks_distance, ks_threshold, two_atom_model

FAMILIES = [
    OffspringFamily.poisson(0.7),
    OffspringFamily.bernoulli(0.4),
    OffspringFamily.geometric0(0.6),
    OffspringFamily.binomial(3, 0.3),
]


# ---- thinning ---------------------------------------------------------------

def thin_batch(law, xs, rng):
    """One thinning stage with every entry under the one law `law`."""
    xs = np.asarray(xs)
    group = EnvGroup(1.0, ImmigrationFamily.constant(0), (law,), (1.0,))
    batch = EnvBatch(groups=(group,), group=np.zeros(xs.shape, dtype=np.int64))
    return thin_for_batch(batch, xs, rng)


def thin_one(law, x, rng):
    return int(thin_batch(law, np.array([x], dtype=np.int64), rng)[0])


def test_thin_of_zero_population_is_zero():
    rng = RngState.from_seed(0)
    for law in FAMILIES:
        assert thin_one(law, 0, rng) == 0


def test_thin_degenerate_laws():
    rng = RngState.from_seed(0)
    assert thin_one(OffspringFamily.poisson(0.0), 10, rng) == 0
    assert thin_one(OffspringFamily.bernoulli(0.0), 10, rng) == 0
    assert thin_one(OffspringFamily.geometric0(1.0), 10, rng) == 0
    assert thin_one(OffspringFamily.bernoulli(1.0), 10, rng) == 10


@pytest.mark.parametrize("law", FAMILIES, ids=lambda l: l.kind)
@pytest.mark.parametrize("x", [1, 2, 5, 17])
def test_closure_pmf_equals_explicit_convolution(law, x):
    # independent route: convolve the single-draw pmf x times
    hi = 40 + 4 * x
    base = np.asarray(thinned_offspring_pmf(law, 1, np.arange(hi + 1)), dtype=float)
    conv = np.array([1.0])
    for _ in range(x):
        conv = np.convolve(conv, base)
    ks = np.arange(hi + 1)
    closed = thinned_offspring_pmf(law, x, ks)
    assert np.allclose(closed, conv[: hi + 1], atol=1e-12)


@pytest.mark.parametrize("law", FAMILIES, ids=lambda l: l.kind)
@pytest.mark.parametrize("x", [1, 2, 5, 17])
def test_thin_sampler_matches_closure_pmf(law, x):
    rng = RngState.from_seed(1000 + 31 * x)
    draws = thin_batch(law, np.full(200_000, x, dtype=np.int64), rng)
    p = chi_square_pvalue(draws, lambda ks: thinned_offspring_pmf(law, x, ks))
    assert p > 0.01, f"{law.kind} x={x}: chi-square p={p:.4g}"


def test_poisson_thinning_collapses_to_single_poisson():
    # 4 Poisson(0.5) individuals total a Poisson(2.0) count
    got = thinned_offspring_pmf(OffspringFamily.poisson(0.5), 4, np.arange(30))
    want = thinned_offspring_pmf(OffspringFamily.poisson(2.0), 1, np.arange(30))
    assert np.allclose(got, want, atol=1e-15)


def test_thin_bernoulli_mean():
    rng = RngState.from_seed(7)
    draws = thin_batch(OffspringFamily.bernoulli(0.4), np.full(100_000, 25, dtype=np.int64), rng)
    se = math.sqrt(25 * 0.4 * 0.6 / 100_000)
    assert abs(float(draws.mean()) - 10.0) <= 4 * se


def test_thin_rejects_negative_population():
    with pytest.raises(ValueError):
        thin_batch(OffspringFamily.poisson(0.5), np.array([-1]), RngState.from_seed(0))


def test_thin_overflow_guard():
    rng = RngState.from_seed(0)
    with pytest.raises(OverflowError):
        thin_one(OffspringFamily.poisson(4.0), 1 << 61, rng)


@pytest.mark.parametrize("p, x", [(1e-6, 1 << 50), (1e-18, 1)])
def test_thin_geometric0_overflow_guard(p, x):
    # a mean of x (1 - p)/p past 2^62; at x = 1 the mean, 1e18, is below it
    # but numpy's own bound on the negative binomial is not
    with pytest.raises(OverflowError):
        thin_one(OffspringFamily.geometric0(p), x, RngState.from_seed(0))


# The four-family environment of the stream pins (PIN_INLINE["mixed"] in
# test_experiments.py): every offspring family, three immigration samplers,
# and two atoms that share one immigration law.
MIXED_ENV = EnvSpec.from_atoms(
    [
        EnvAtom(0.4, OffspringFamily.poisson(0.3), ImmigrationFamily.discrete_pareto(2.0, 1.0, 0.5)),
        EnvAtom(0.3, OffspringFamily.geometric0(0.6), ImmigrationFamily.bernoulli(0.5)),
        EnvAtom(0.2, OffspringFamily.binomial(2, 0.2), ImmigrationFamily.geometric0(0.5)),
        EnvAtom(0.1, OffspringFamily.bernoulli(0.5), ImmigrationFamily.discrete_pareto(2.0, 1.0, 0.5)),
    ]
)


def _group_thinned_pmf(group, x, ks):
    """The thinned law of a group: its atoms' x-fold sums, mixed by weight."""
    return sum(w * thinned_offspring_pmf(law, x, ks) for law, w in zip(group.offspring, group.weights))


def test_mixed_thinning_follows_each_groups_law():
    # every group's alias tables stacked into one lookup, the group of atoms
    # 0 and 3 as their offspring mixture: the draws of each (group,
    # population) cell must follow that group's thinned law
    n = 400_000
    rng = RngState.from_seed(61)
    batch = draw_env_batch(MIXED_ENV, rng, n)
    assert [len(g.offspring) for g in batch.groups] == [2, 1, 1]
    values = np.resize(np.array([0, 2, 7], dtype=np.int64), n)
    draws = thin_for_batch(batch, values, rng)
    assert not draws[values == 0].any()
    for j, group in enumerate(MIXED_ENV.groups):
        for x in (2, 7):
            cell = draws[(batch.group == j) & (values == x)]
            p = chi_square_pvalue(cell, lambda ks: _group_thinned_pmf(group, x, ks))
            assert p > 1e-3, f"group {j} x={x}: chi-square p={p:.4g}"


PAST_TABLE_LAWS = (
    OffspringFamily.binomial(3, 0.3),
    OffspringFamily.poisson(0.7),
    OffspringFamily.geometric0(0.6),
    OffspringFamily.bernoulli(0.4),
    OffspringFamily.poisson(0.2),
)
# immigration constants per atom: one group of all five atoms, one group per
# atom, and a group of four atoms beside a one-atom group
PAST_TABLE_GROUPINGS = {
    "one-group": (0, 0, 0, 0, 0),
    "per-atom": (0, 1, 2, 3, 4),
    "mixed-groups": (0, 0, 0, 1, 0),
}


@pytest.mark.parametrize(
    "grouping, only_poisson",
    [("one-group", False), ("per-atom", False), ("per-atom", True), ("mixed-groups", False)],
    ids=["one-group", "per-atom", "per-atom-poisson-only", "mixed-groups"],
)
def test_thinning_past_the_tables_draws_once_per_kind_in_numbering_order(grouping, only_poisson):
    # populations of 64 or more are past every table, so after the batch's
    # alias uniforms each entry in a group of several atoms resolves its atom
    # with one uniform, in index order (a right-sided search of the group's
    # cumulative weights), and then takes numpy's draw: Poisson, then
    # binomial (bernoulli with n = 1), then negative binomial, each over its
    # entries in index order; with the other groups at population 0, the
    # Poisson groups alone are past the tables
    env = EnvSpec.from_atoms(
        [EnvAtom(0.2, law, ImmigrationFamily.constant(b)) for law, b in zip(PAST_TABLE_LAWS, PAST_TABLE_GROUPINGS[grouping])]
    )
    n = 4096
    rng = RngState.from_seed(64)
    batch = draw_env_batch(env, rng, n)
    values = np.random.default_rng(64).integers(64, 400, n)
    if only_poisson:
        values[np.array([law.kind != "poisson" for law in PAST_TABLE_LAWS])[batch.group]] = 0
    ref = copy.deepcopy(rng)
    got = thin_for_batch(batch, values, rng)
    ref.gen.random(n)
    past = np.flatnonzero(values > 0)
    sizes = np.array([len(g.offspring) for g in env.groups])
    several = past[sizes[batch.group[past]] > 1]
    u = dict(zip(several.tolist(), ref.gen.random(several.size)))
    laws = []
    for i in past.tolist():
        g = env.groups[batch.group[i]]
        k = np.searchsorted(np.cumsum(g.weights), u[i], side="right") if i in u else 0
        laws.append(g.offspring[min(k, len(g.offspring) - 1)])
    assert all(sum(law == other for other in laws) >= 64 for law in set(laws))
    kind = np.array([law.x_fold()[0] for law in laws])
    want = np.zeros(n, dtype=np.int64)
    for d in (0, 1, 2):
        idx = np.flatnonzero(kind == d)
        x = values[past[idx]]
        each = np.array([laws[i].x_fold()[1] for i in idx], dtype=np.int64)
        p = np.array([laws[i].x_fold()[2] for i in idx])
        if d == 0:
            want[past[idx]] = ref.gen.poisson(p * x)
        elif d == 1:
            want[past[idx]] = ref.gen.binomial(each * x, p)
        else:
            want[past[idx]] = ref.gen.negative_binomial(x, p)
    assert np.array_equal(got, want)
    assert rng.gen.random(4).tolist() == ref.gen.random(4).tolist()


# ---- alias tables -------------------------------------------------------------

def _tabulated_rows(law) -> int:
    """Rows of `law`'s alias table that a draw can keep; the rest send every
    cell to numpy's draw."""
    return int(np.count_nonzero(simulator._alias_table((law,), (1.0,))[1][:, 0] >= 0))


def _tail_past_width(law, x) -> float:
    """P(X >= ALIAS_COLS) for the x-fold sum, summed from the oracle pmf."""
    ks = np.arange(simulator.ALIAS_COLS, 8 * simulator.ALIAS_COLS)
    return float(np.sum(thinned_offspring_pmf(law, x, ks)))


TABLE_LAWS = list(dict.fromkeys(FAMILIES + [atom.offspring for atom in MIXED_ENV.atoms])) + [
    OffspringFamily.poisson(0.9),
    OffspringFamily.poisson(5.0),
    OffspringFamily.binomial(1000, 0.001),
    OffspringFamily.geometric0(0.1),
    OffspringFamily.bernoulli(0.999999),
    OffspringFamily.binomial(3, 0.7),
]


@pytest.mark.parametrize("law", TABLE_LAWS, ids=lambda l: f"{l.kind}-{l.rate or l.p}-{l.n}")
def test_alias_tables_imply_the_thinned_pmf(law):
    # cell j keeps j with probability q[j] and hands the rest to alias[j];
    # the pmf that implies is checked against the oracle's closed-form pmf,
    # a route independent of the recurrence the tables are built from
    q, alias = simulator._alias_table((law,), (1.0,))
    cols = simulator.ALIAS_COLS
    rows = _tabulated_rows(law)
    assert (alias[rows:] == -1).all() and (q[rows:] == 0.0).all()
    for x in range(rows):
        implied = (q[x] + np.bincount(alias[x], weights=1.0 - q[x], minlength=cols)) / cols
        exact = thinned_offspring_pmf(law, x, np.arange(cols))
        tv = 0.5 * (np.abs(implied - exact).sum() + _tail_past_width(law, x))
        assert tv <= 1e-12, f"{law} x={x}: TV {tv:.3g}"
    # the rows stop at the first whose mass past the width reaches the cut
    if rows < simulator.ALIAS_ROWS:
        assert _tail_past_width(law, rows) >= simulator.ALIAS_CUT
    assert _tail_past_width(law, rows - 1) < simulator.ALIAS_CUT


# offspring mixtures of groups of atoms: config_a's, a three-way mix of
# every kind, and two whose wide atom spills past the width at x = 3; at
# weight 0.001 its spill there, 1.7e-14, is below ALIAS_CUT in the sum
MIXTURES = [
    ((OffspringFamily.poisson(0.3), OffspringFamily.poisson(0.9)), (0.5, 0.5)),
    ((OffspringFamily.binomial(2, 0.2), OffspringFamily.geometric0(0.6), OffspringFamily.bernoulli(0.999999)), (0.5, 0.3, 0.2)),
    ((OffspringFamily.poisson(0.3), OffspringFamily.poisson(20.0)), (0.9, 0.1)),
    ((OffspringFamily.poisson(0.3), OffspringFamily.poisson(20.0)), (0.999, 0.001)),
]


@pytest.mark.parametrize("laws, weights", MIXTURES, ids=["config_a", "three-kinds", "wide-atom", "diluted-wide-atom"])
def test_mixture_tables_imply_the_weighted_thinned_pmf(laws, weights):
    # a mixture row within the alias tables' TV bound of the exact weighted
    # pmf of its atoms, and tabulated only as far as every atom's own rows
    q, alias = simulator._alias_table(laws, weights)
    cols = simulator.ALIAS_COLS
    rows = int(np.count_nonzero(alias[:, 0] >= 0))
    assert rows == min(_tabulated_rows(law) for law in laws)
    assert (alias[rows:] == -1).all() and (q[rows:] == 0.0).all()
    for x in range(rows):
        implied = (q[x] + np.bincount(alias[x], weights=1.0 - q[x], minlength=cols)) / cols
        exact = sum(w * thinned_offspring_pmf(law, x, np.arange(cols)) for law, w in zip(laws, weights))
        past = sum(w * _tail_past_width(law, x) for law, w in zip(laws, weights))
        tv = 0.5 * (np.abs(implied - exact).sum() + past)
        assert tv <= 1.3e-13, f"{laws} x={x}: TV {tv:.3g}"


def test_mixture_sends_rows_past_its_widest_atom_to_numpy():
    # poisson:20 spills past the width from x = 3 on, so the mixture with
    # poisson:0.3 stops there too, though poisson:0.3 fills all 64 rows; an
    # entry at x = 3 or 40 resolves its atom and takes numpy's Poisson draw
    laws, weights = MIXTURES[2]
    assert _tabulated_rows(laws[0]) == simulator.ALIAS_ROWS and _tabulated_rows(laws[1]) == 3
    env = EnvSpec.from_atoms([EnvAtom(w, law, ImmigrationFamily.constant(0)) for law, w in zip(laws, weights)])
    n = 4096
    values = np.resize(np.array([2, 3, 40], dtype=np.int64), n)
    rng = RngState.from_seed(20)
    batch = draw_env_batch(env, rng, n)
    ref = copy.deepcopy(rng)
    got = thin_for_batch(batch, values, rng)
    # the reference: alias uniforms for all, then the table at x = 2 and one
    # resolution uniform and one Poisson draw per entry past it
    t = ref.gen.random(n) * simulator.ALIAS_COLS
    q, alias = simulator._alias_table(laws, weights)
    j = t.astype(np.int64)
    tabled = np.where(t - j < q[2, j], j, alias[2, j])
    past = np.flatnonzero(values > 2)
    atom = np.searchsorted(np.cumsum(weights), ref.gen.random(past.size), side="right")
    want = np.where(values == 2, tabled, 0)
    want[past] = ref.gen.poisson(np.array([law.rate for law in laws])[atom] * values[past])
    assert np.array_equal(got, want)
    # and the draws past the table follow the mixture's law at x = 40
    draws = thin_for_batch(batch, np.full(n, 40), rng)
    assert chi_square_pvalue(draws, lambda ks: _group_thinned_pmf(env.groups[0], 40, ks)) > 1e-3


def _upward_binomial_rows(law):
    """The binomial x-fold rows as stream version 5 built them, up from
    p_0 = (1 - p)^N at every p."""
    x = np.arange(simulator.ALIAS_ROWS, dtype=float)[:, None]
    k = np.arange(1, 2 * simulator.ALIAS_COLS, dtype=float)
    _, each, p = law.x_fold()
    trials = x * each
    head, ratio = (1.0 - p) ** trials, np.maximum(trials - k + 1.0, 0.0) * (p / (1.0 - p)) / k
    return np.cumprod(np.hstack([head, ratio]), axis=1)


@pytest.mark.parametrize("law", [OffspringFamily.bernoulli(p) for p in (1e-5, 0.1, 0.35, 0.5)] + [
    OffspringFamily.binomial(n, p) for n, p in ((2, 0.2), (3, 0.5), (1000, 0.001))
], ids=lambda l: f"{l.kind}-{l.p}-{l.n}")
def test_binomial_rows_at_p_at_most_half_run_up_as_before(law):
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(simulator._recurrence_rows(law), _upward_binomial_rows(law))


def test_binomial_near_one_fills_its_table():
    # run up from (1 - p)^N, p_0 underflows past row 53; run down from p^N,
    # every row of 64 is tabulated, within the TV bound (TABLE_LAWS)
    law = OffspringFamily.bernoulli(0.999999)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        assert int(np.argmin(_upward_binomial_rows(law)[:, 0] > 0)) == 54
    assert _tabulated_rows(law) == simulator.ALIAS_ROWS


def test_config_a_laws_fill_their_tables():
    # the bundled configs' populations sit below 64 all but a few in 10^4
    # times; the tables must cover them for thinning to stay cheap
    for rate in (0.3, 0.9):
        assert _tabulated_rows(OffspringFamily.poisson(rate)) == simulator.ALIAS_ROWS


@pytest.mark.parametrize("p", [0.0, 1e-5, 0.1, 0.35, 1.0])
def test_bernoulli_is_a_one_trial_binomial_to_the_bit(p):
    # every reader of the summation closure sees the same law in both
    coin, one_trial = OffspringFamily.bernoulli(p), OffspringFamily.binomial(1, p)
    xs, ks = np.arange(200)[:, None], np.arange(-1, 210)
    assert np.array_equal(thinned_offspring_pmf(coin, xs, ks), thinned_offspring_pmf(one_trial, xs, ks))
    assert np.array_equal(thinned_offspring_mode(coin, xs), thinned_offspring_mode(one_trial, xs))
    assert mean_offspring(coin) == mean_offspring(one_trial) == p
    assert offspring_moment(coin, 2.5) == offspring_moment(one_trial, 2.5) == p
    for table, other in zip(simulator._alias_table((coin,), (1.0,)), simulator._alias_table((one_trial,), (1.0,))):
        assert np.array_equal(table, other)
    # rows 0 .. 63 draw from the tables, 64 and 1000 from numpy's binomial
    xs = np.repeat(np.array([0, 1, 63, 64, 1000]), 500)
    draws = [thin_batch(law, xs, RngState.from_seed(3)) for law in (coin, one_trial)]
    assert np.array_equal(*draws)


OFFSPRING_LAWS = hst.one_of(
    hst.builds(OffspringFamily.poisson, hst.floats(0.0, 3.0)),
    hst.builds(OffspringFamily.bernoulli, hst.floats(0.0, 1.0)),
    hst.builds(OffspringFamily.geometric0, hst.floats(0.3, 1.0)),
    hst.builds(OffspringFamily.binomial, hst.integers(1, 5), hst.floats(0.0, 1.0)),
)


@given(law=OFFSPRING_LAWS, seed=hst.integers(0, 2**32))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_thinning_follows_the_thinned_pmf_across_the_table_edge(law, seed):
    # x = 1 and 63 draw from the tables where the law fills them, 64 and the
    # first untabulated row from numpy, all in one stage
    xs = (1, 63, 64, _tabulated_rows(law))
    n = 20_000
    draws = thin_batch(law, np.repeat(np.array(xs), n), RngState.from_seed(seed))
    for i, x in enumerate(xs):
        p = chi_square_pvalue(draws[i * n : (i + 1) * n], lambda ks: thinned_offspring_pmf(law, x, ks))
        assert p > 1e-4, f"{law} x={x}: chi-square p={p:.4g}"


@given(
    kind=hst.sampled_from(["poisson", "geometric0", "binomial"]),
    x=hst.sampled_from([1, 63, 64, 1 << 20]),
    scale=hst.floats(1.01, 1.9),
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_thinning_past_2_62_raises_overflow(kind, x, scale):
    # x times the offspring mean (the binomial trial count) is scale * 2^62
    target = scale * 2.0**62
    if kind == "poisson":
        law = OffspringFamily.poisson(target / x)
    elif kind == "geometric0":
        law = OffspringFamily.geometric0(x / (x + target))
    elif x == 1:  # the trial count is n itself, which the law refuses
        with pytest.raises(ValueError, match=r"binomial n must be an integer in \[1, 2\^62\)"):
            OffspringFamily.binomial(math.ceil(target), 0.5)
        return
    else:
        law = OffspringFamily.binomial(math.ceil(target / x), 0.5)
    with pytest.raises(OverflowError):
        thin_batch(law, np.array([0, x]), RngState.from_seed(0))


def test_mixed_immigration_follows_each_groups_law():
    # atoms 0 and 3 share one law, one group and one inversion
    n = 400_000
    rng = RngState.from_seed(62)
    batch = draw_env_batch(MIXED_ENV, rng, n)
    draws = imm_for_batch(batch, rng)
    for j, group in enumerate(batch.groups):
        p = chi_square_pvalue(draws[batch.group == j], lambda ks: immigration_pmf(group.immigration, ks))
        assert p > 1e-3, f"group {j} ({group.immigration.kind}): chi-square p={p:.4g}"


# ---- immigration ------------------------------------------------------------

class _FixedU:
    """Stand-in rng whose uniforms are pinned, to one value or to an array of
    `size` of them; exposes what inversion sees."""

    def __init__(self, u):
        self.u = u

    def uniform_open(self, size=None):
        if np.ndim(self.u):
            assert size == np.size(self.u)
            return np.array(self.u)
        return self.u if size is None else np.full(size, self.u)


def test_immigration_constant():
    assert sample_immigration_batch(ImmigrationFamily.constant(3), RngState.from_seed(0), 1)[0] == 3


def test_immigration_inversion_closed_form_boundary():
    # (c/U)^(1/kappa) - 1 = (1/0.25)^(1/2) - 1 lands exactly on 1
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    got = sample_immigration_batch(law, _FixedU(0.25), 4)
    assert np.array_equal(got, np.array([1, 1, 1, 1]))


def test_immigration_inversion_generic_points():
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    # S(1) = 0.25 > 0.2 >= S(2): smallest x with S(x) <= u is 2
    assert sample_immigration_batch(law, _FixedU(0.2), 1)[0] == 2
    assert sample_immigration_batch(law, _FixedU(1.0), 1)[0] == 0


@pytest.mark.parametrize(
    "law",
    [ImmigrationFamily.discrete_pareto(k, c) for k in (0.3, 1.0, 2.0, 3.7, 10.0) for c in (1.0, 0.5)]
    + [ImmigrationFamily.geometric0(p) for p in (1e-3, 0.05, 0.5, 0.9)],
    ids=lambda law: f"{law.kind}:{law.kappa},{law.c}" if law.kind == "dpareto" else f"{law.kind}:{law.p}",
)
def test_immigration_closed_form_matches_bisection_at_boundaries(law):
    # u = S(k) and one ulp either side, where the closed form is nearest an
    # integer: the draws that skip the survival check must still be exact,
    # against the doubling-then-bisection search of threshold_for_level
    pows = 2 ** np.arange(41)
    ks = np.unique(np.concatenate([
        np.arange(4097), pows - 1, pows, pows + 1,
        np.rint(np.geomspace(4096, 2.0**40, 2000)).astype(np.int64),
    ]))
    s = immigration_survival(law, ks)
    u = np.concatenate([s, np.nextafter(s, 0.0), np.nextafter(s, 2.0)])
    u = u[(u >= 2.0**-53) & (u <= 1.0)]
    got = sample_immigration_batch(law, _FixedU(u), u.size)
    assert np.array_equal(got, threshold_for_level(lambda x: immigration_survival(law, x), u))


def test_immigration_checks_survival_only_near_integers(monkeypatch):
    # the full check would evaluate S at 2 * 8192 points; no seeded closed
    # form here lands near an integer, so S is evaluated nowhere, not even
    # on empty arrays.  u = 0.25 puts the dpareto t exactly on 1: checked
    calls = []

    def counting(law, x):
        calls.append(np.size(x))
        return immigration_survival(law, x)

    monkeypatch.setattr(simulator, "immigration_survival", counting)
    dpareto = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    for law in (dpareto, ImmigrationFamily.geometric0(0.05)):
        sample_immigration_batch(law, RngState.from_seed(3), 8192)
    assert calls == []
    assert sample_immigration_batch(dpareto, _FixedU(0.25), 1).tolist() == [1]
    assert calls


def _survival_adjust_one_stage(law, cand, u, t, tol, survival):
    """`_survival_adjust` as stream version 5 had it, the per-entry
    near-integer test on every entry, with S evaluated by `survival`."""
    near = np.flatnonzero(~(np.abs(t - np.rint(t)) > tol * (1.0 + np.abs(t))))
    if not near.size:
        return cand
    x, v = cand[near], u[near]
    off = (survival(law, x) > v) | ((x > 0) & (survival(law, x - 1) <= v))
    if off.any():
        cand[near[off]] = threshold_for_level(lambda y: survival(law, y), v[off])
    return cand


def _both_adjustments(monkeypatch, law, cand, u, t, tol):
    """The two-stage and one-stage adjustments of the same candidates, each
    with the points at which it evaluated S."""
    new_seen, old_seen = [], []

    def counting(seen):
        def survival(law_, x):
            seen.append(np.array(x, copy=True))
            return immigration_survival(law_, x)

        return survival

    monkeypatch.setattr(simulator, "immigration_survival", counting(new_seen))
    got = simulator._survival_adjust(law, cand.copy(), u, t, tol, simulator._guard_draw(t))
    monkeypatch.undo()
    want = _survival_adjust_one_stage(law, cand.copy(), u, t, tol, counting(old_seen))
    return (got, new_seen), (want, old_seen)


def test_two_stage_near_integer_check_matches_one_stage_on_crafted_t(monkeypatch):
    # exact integers, one ulp either side, a NaN, t past 2^52 and the
    # negative t of a dpareto with c < 1: the same draws, and S evaluated at
    # the same points, as the per-entry test alone
    law = ImmigrationFamily.discrete_pareto(2.0, 0.5)
    tol = 2.0**-32 * 1.5
    ints = np.array([0.0, 1.0, 2.0, 7.0, 1000.0, 2.0**40])
    for t in (
        np.concatenate([ints, np.nextafter(ints, -np.inf), np.nextafter(ints, np.inf), [0.5, 3.25]]),
        np.array([2.0**52, 2.0**52 + 2.0, 3.0 * 2.0**53, 0.3]),
        np.array([-0.29, -0.5, 0.0, -0.0, np.nextafter(0.0, -1.0), 0.7]),
        np.array([0.4, np.nan, 2.0, 5.5]),
        # near -1, |t - rint(t)| exceeds tol (1 + max t) but not tol (1 + |t|)
        np.array([-0.2, -0.9, np.nextafter(-0.0, -1.0), -1.0 + 1.5 * tol]),
    ):
        u = np.clip(immigration_survival(law, np.nan_to_num(t, nan=0.0)), 2.0**-53, 1.0)
        cand = np.ceil(np.maximum(np.nan_to_num(t, nan=0.0), 0.0)).astype(np.int64)
        (got, seen), (want, seen_want) = _both_adjustments(monkeypatch, law, cand, u, t, tol)
        assert np.array_equal(got, want)
        assert len(seen) == len(seen_want) and all(map(np.array_equal, seen, seen_want))


@pytest.mark.parametrize(
    "law",
    [ImmigrationFamily.discrete_pareto(2.0, 1.0), ImmigrationFamily.discrete_pareto(2.0, 0.5), ImmigrationFamily.geometric0(0.05)],
    ids=["dpareto:2,1,0", "dpareto:2,0.5,0", "geometric0:0.05"],
)
def test_two_stage_near_integer_check_matches_one_stage_on_seeded_blocks(monkeypatch, law):
    # the closed forms of seeded 8192-draw blocks, built as
    # sample_immigration_batch builds them, with every fourth u moved onto
    # S(k) so that some t land on integers
    for seed in range(20):
        u = RngState.from_seed(seed).uniform_open(8192)
        u[::4] = immigration_survival(law, np.arange(2048) % 40)
        if law.kind == "geometric0":
            t = np.log(u) / math.log1p(-law.p)
            cand = np.clip(np.floor(t).astype(np.int64), 0, None)
            tol = 2.0**-32 * (1.0 - 1.0 / math.log1p(-law.p))
        else:
            t = (law.c / u) ** (1.0 / law.kappa) - 1.0
            cand = np.ceil(np.maximum(t, 0.0)).astype(np.int64)
            tol = 2.0**-32 * (1.0 + 1.0 / law.kappa)
        (got, seen), (want, seen_want) = _both_adjustments(monkeypatch, law, cand, u, t, tol)
        assert np.array_equal(got, want)
        assert len(seen) == len(seen_want) and all(map(np.array_equal, seen, seen_want))
        assert seen


def test_immigration_geometric0_overflow_guard():
    # a mean of 1e20: the closed form passes 2^62 and must not be cast
    with pytest.raises(OverflowError):
        sample_immigration_batch(ImmigrationFamily.geometric0(1e-20), RngState.from_seed(1), 10)


def test_immigration_dpareto_overflow_raises_without_a_warning():
    # (1 / 2^-53)^(1 / 0.05) = 2^1060 overflows the power to inf; the draw is
    # refused with the OverflowError alone, no numpy RuntimeWarning before it
    law = ImmigrationFamily.discrete_pareto(0.05, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            sample_immigration_batch(law, _FixedU(2.0**-53), 1)


IMMIGRATION_LAWS = hst.one_of(
    # beta as a share of the largest one ImmigrationFamily accepts
    hst.builds(
        lambda kappa, c, share: ImmigrationFamily.discrete_pareto(kappa, c, share * DPARETO_BETA_PER_KAPPA * kappa),
        kappa=hst.floats(0.05, 10.0),
        c=hst.floats(0.0, 1.0, exclude_min=True),
        share=hst.just(0.0) | hst.floats(0.0, 1.0, exclude_min=True),
    ),
    hst.builds(ImmigrationFamily.geometric0, p=hst.floats(-20.0, 0.0).map(lambda e: 10.0**e)),
)


@given(
    law=IMMIGRATION_LAWS,
    us=hst.lists(hst.floats(2.0**-53, 1.0), max_size=16),
    ks=hst.lists(hst.integers(0, 2**62), max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_immigration_draws_meet_the_survival_bracket(law, us, ks):
    # x is the inverse of u iff S(x) <= u and, past x = 0, u < S(x - 1); a
    # draw past 2^62 raises OverflowError instead, batched or alone
    s = immigration_survival(law, np.array(ks))
    u = np.concatenate([[2.0**-53, 1.0], us, s, np.nextafter(s, 0.0), np.nextafter(s, 2.0)])
    u = u[(u >= 2.0**-53) & (u <= 1.0)]
    try:
        batches = [(u, sample_immigration_batch(law, _FixedU(u), u.size))]
    except OverflowError:
        batches = []
        for v in u:
            try:
                batches.append((v, sample_immigration_batch(law, _FixedU(v), 1)))
            except OverflowError:
                pass
    for v, x in batches:
        assert np.all(immigration_survival(law, x) <= v), (law, v, x)
        assert np.all((x == 0) | (v < immigration_survival(law, x - 1))), (law, v, x)


def test_immigration_bisection_agrees_with_survival_definition():
    law = ImmigrationFamily.discrete_pareto(2.0, 0.8, 1.0)  # beta > 0 path
    rng = RngState.from_seed(11)
    draws = sample_immigration_batch(law, rng, 50_000)
    xs = np.array([0, 1, 5, 20])
    for x in xs:
        emp = float((draws > x).mean())
        s = float(immigration_survival(law, x))
        se = math.sqrt(s * (1 - s) / draws.size)
        assert abs(emp - s) <= 4 * se


def test_immigration_dpareto_deep_tail_frequency():
    # P(B > 10) = 1/121 over a million draws
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    draws = sample_immigration_batch(law, RngState.from_seed(5), 1_000_000)
    s = 1.0 / 121.0
    se = math.sqrt(s * (1 - s) / 1_000_000)
    assert abs(float((draws > 10).mean()) - s) <= 4 * se


def test_immigration_sampler_pmf_chi_square():
    for law in [
        ImmigrationFamily.discrete_pareto(2.0, 0.7),
        ImmigrationFamily.geometric0(0.35),
        ImmigrationFamily.bernoulli(0.6),
    ]:
        draws = sample_immigration_batch(law, RngState.from_seed(21), 200_000)
        p = chi_square_pvalue(draws, lambda ks: immigration_pmf(law, ks))
        assert p > 0.01, f"{law.kind}: chi-square p={p:.4g}"


# ---- chain steps -------------------------------------------------------------

def one_atom_env(offspring, immigration) -> EnvSpec:
    return EnvSpec.from_atoms([EnvAtom(1.0, offspring, immigration)])


def test_step_adds_immigration_to_survivors():
    env = one_atom_env(OffspringFamily.bernoulli(1.0), ImmigrationFamily.constant(3))
    got = step_batch(np.array([5]), env, RngState.from_seed(0))
    assert got.tolist() == [8]


def test_step_from_zero_is_pure_immigration():
    env = one_atom_env(OffspringFamily.poisson(0.9), ImmigrationFamily.constant(2))
    got = step_batch(np.array([0]), env, RngState.from_seed(0))
    assert got.tolist() == [2]


# an uneven offspring mixture under one immigration law, so that swapping
# the weights within its group moves the law
UNEVEN_ENV = EnvSpec.from_atoms(
    [
        EnvAtom(0.8, OffspringFamily.poisson(0.3), ImmigrationFamily.discrete_pareto(2.0, 1.0)),
        EnvAtom(0.2, OffspringFamily.poisson(0.9), ImmigrationFamily.discrete_pareto(2.0, 1.0)),
    ]
)


def _step_pvalues(env, exact_env, seed):
    """Chi-square p-values of one step from x in {0, 7, 63, 64, 200} under
    `env`, against the exact law of a step under `exact_env`: the atoms'
    x-fold sums mixed by weight, plus the shared immigration."""
    out = []
    rng = RngState.from_seed(seed)
    for x in (0, 7, 63, 64, 200):
        draws = step_batch(np.full(100_000, x), env, rng)

        def law(ks, x=x):
            # every x-fold sum here has mean below 200 and no float mass
            # past 1024
            thinned = sum(a.weight * thinned_offspring_pmf(a.offspring, x, ks[:1024]) for a in exact_env.atoms)
            return np.convolve(thinned, immigration_pmf(exact_env.atoms[0].immigration, ks))[: ks.size]

        out.append(chi_square_pvalue(draws, law))
    return out


# config_a's offspring under a dpareto law with kappa = 1.2: about 3 in 1000
# steps land in the tail cell B >= 128
HEAVY_ENV = EnvSpec.from_atoms(
    [
        EnvAtom(0.5, OffspringFamily.poisson(0.3), ImmigrationFamily.discrete_pareto(1.2, 1.0)),
        EnvAtom(0.5, OffspringFamily.poisson(0.9), ImmigrationFamily.discrete_pareto(1.2, 1.0)),
    ]
)


@pytest.mark.parametrize("env", [two_atom_model().env, UNEVEN_ENV, HEAVY_ENV], ids=["config_a", "uneven", "kappa-1.2"])
def test_step_follows_the_exact_mixture_law(env):
    # x = 0 is immigration alone, 7 and 63 draw from the step tables or thin
    # from the mixture tables after a tail-cell draw, 64 and 200 resolve
    # their atoms past them
    assert min(_step_pvalues(env, env, 71)) > 1e-3


def test_step_chi_square_fails_with_weights_swapped_within_the_group(monkeypatch):
    # a mutation: the group's tables and atom resolution read its weights
    # reversed, while the exact law keeps them
    (group,) = UNEVEN_ENV.groups
    swapped = EnvSpec.from_atoms(UNEVEN_ENV.atoms)
    monkeypatch.setitem(swapped.__dict__, "groups", (dataclasses.replace(group, weights=group.weights[::-1]),))
    pvalues = _step_pvalues(swapped, UNEVEN_ENV, 71)
    assert pvalues[0] > 1e-3  # immigration alone does not see it
    assert max(pvalues[1:]) < 1e-12


# ---- step tables ---------------------------------------------------------------

STEP_GROUPS = {
    "config_a": two_atom_model().env.groups[0],
    "uneven": UNEVEN_ENV.groups[0],
    "three-kinds": EnvGroup(1.0, ImmigrationFamily.discrete_pareto(2.0, 0.7), *MIXTURES[1]),
    "kappa-1.2": HEAVY_ENV.groups[0],
    "constant-200": EnvGroup(1.0, ImmigrationFamily.constant(200), (OffspringFamily.poisson(0.3),), (1.0,)),
    "bernoulli": EnvGroup(1.0, ImmigrationFamily.bernoulli(0.5), (OffspringFamily.geometric0(0.6),), (1.0,)),
}


@pytest.mark.parametrize("group", STEP_GROUPS.values(), ids=STEP_GROUPS.keys())
def test_step_tables_imply_the_exact_step_law(group):
    # each row within `_step_table`'s TV bound of the exact mixture of
    # thinned_offspring_pmf over 0..127, convolved with immigration_pmf at
    # 0..127, and the tail cell P(B >= 128); the rows are those the group's
    # thinning table keeps
    q, alias = simulator._step_table(group)
    cols, width = simulator.STEP_COLS, simulator.ALIAS_COLS
    rows = int(np.count_nonzero(alias[:, 0] >= 0))
    assert rows == int(np.count_nonzero(simulator._alias_table(group.offspring, group.weights)[1][:, 0] >= 0))
    assert (alias[rows:] == -1).all() and (q[rows:] == 0.0).all()
    ks = np.arange(width)
    pmf = immigration_pmf(group.immigration, ks)
    tail = immigration_survival(group.immigration, width - 1)
    for x in range(rows):
        implied = (q[x] + np.bincount(alias[x], weights=1.0 - q[x], minlength=cols)) / cols
        exact = np.append(np.convolve(_group_thinned_pmf(group, x, ks), pmf), tail)
        past = sum(w * _tail_past_width(law, x) for law, w in zip(group.offspring, group.weights))
        tv = 0.5 * (np.abs(implied - exact).sum() + past)
        assert tv <= 1.6e-13, f"x={x}: TV {tv:.3g}"
        if group.immigration.kind == "constant":
            assert implied[simulator._TAIL] == 1.0
        if group.immigration.kind == "bernoulli":
            assert implied[simulator._TAIL] == 0.0


def test_step_from_a_constant_past_the_width_adds_it_to_the_thinning():
    # every draw lands in the tail cell (x = 0, 5) or past the rows (x = 70)
    env = one_atom_env(OffspringFamily.bernoulli(1.0), ImmigrationFamily.constant(200))
    assert step_batch(np.array([5, 0, 70, 5]), env, RngState.from_seed(0)).tolist() == [205, 200, 270, 205]


def test_step_rejects_negative_population():
    # the table's gather would wrap a negative cell around silently: -2
    # would read row 63 of config_a's one table
    with pytest.raises(ValueError):
        step_batch(np.array([3, -2]), two_atom_model().env, RngState.from_seed(0))


class _OpenAtOne(RngState):
    """An rng whose `uniform_open` returns 1, the top of its range."""

    def uniform_open(self, size):
        return np.ones(size)


def test_tail_cell_at_u_one_draws_at_least_the_width():
    # at u = 1 a tail-cell draw inverts at S(127) itself, where the search
    # from 0 stops at 127; the step raises it to 128.  T = 0, so every draw
    # past 127 comes from the tail cell
    env = one_atom_env(OffspringFamily.bernoulli(0.0), ImmigrationFamily.discrete_pareto(1.2, 1.0))
    rng = RngState.from_seed(4)
    draws = step_batch(np.zeros(20_000, dtype=np.int64), env, _OpenAtOne(seq=rng.seq, gen=rng.gen))
    assert np.count_nonzero(draws >= 128) >= 30
    assert set(draws[draws >= 127].tolist()) <= {127, 128}
    assert np.count_nonzero(draws == 127) <= 3


@pytest.fixture
def fresh_step_tables():
    """Step tables built under the test's patches, none cached across it."""
    simulator._step_tables.cache_clear()
    yield
    simulator._step_tables.cache_clear()


def test_step_chi_square_fails_with_the_tail_cell_inverted_at_unscaled_u(monkeypatch):
    # a mutation: tail-cell draws invert at u, not u S(127), and so nearly
    # all read 128 + T; populations past the rows invert at u either way.
    # At x = 0 they all read 128, the sample maximum, which the chi-square
    # sees because its pools past the maximum stand apart
    tables = simulator._step_tables

    def unscaled(groups):
        threshold, alias, tails = tables(groups)
        return threshold, alias, np.ones_like(tails)

    monkeypatch.setattr(simulator, "_step_tables", unscaled)
    pvalues = _step_pvalues(HEAVY_ENV, HEAVY_ENV, 71)
    assert max(pvalues[:3]) < 1e-12
    assert min(pvalues[3:]) > 1e-3


def test_step_chi_square_fails_with_the_tail_cell_mass_dropped(monkeypatch, fresh_step_tables):
    # a mutation: the step rows lose their tail cell before the integer
    # weights, whose remainder then goes to each row's largest cell
    vose = simulator._vose

    def dropped(rows):
        if rows.shape[1] == simulator.STEP_COLS:
            rows = rows.copy()
            rows[:, simulator._TAIL] = 0.0
        return vose(rows)

    monkeypatch.setattr(simulator, "_vose", dropped)
    pvalues = _step_pvalues(HEAVY_ENV, HEAVY_ENV, 71)
    assert max(pvalues[:3]) < 1e-12
    assert min(pvalues[3:]) > 1e-3


def test_term_by_term_route_and_kernel_do_not_read_the_step_tables(monkeypatch):
    # the routes the step is checked against stay independent of it
    def refuse(groups):
        raise AssertionError("step tables read")

    monkeypatch.setattr(simulator, "_step_tables", refuse)
    model = two_atom_model()
    assert backward_terms(model, 4, RngState.from_seed(2), 1000).shape == (5, 1000)
    assert build_kernel(model.env, 64).matrix.shape == (65, 65)
    with pytest.raises(AssertionError, match="step tables read"):
        step_batch(np.zeros(4, dtype=np.int64), model.env, RngState.from_seed(2))


# ---- lockstep steps -------------------------------------------------------------

# two immigration groups: a heavy dpareto law shared by two atoms, whose
# steps land in the tail cell about 3 times in 1000, and a geometric law
LOCKSTEP_ENV = EnvSpec.from_atoms(
    [
        EnvAtom(0.4, OffspringFamily.poisson(0.3), ImmigrationFamily.discrete_pareto(1.2, 1.0)),
        EnvAtom(0.2, OffspringFamily.poisson(0.9), ImmigrationFamily.discrete_pareto(1.2, 1.0)),
        EnvAtom(0.4, OffspringFamily.poisson(0.6), ImmigrationFamily.geometric0(0.5)),
    ]
)
THREE_SLICES = 2 * simulator._BLOCK + 5


def _step_in_documented_order(values, env, rng):
    """One step rebuilt from explicit calls in the documented order: per
    slice of _BLOCK entries, its environments and its step-table draw; then,
    over the unfinished entries of every slice, one thinning of their
    populations and one immigration uniform each, inverted per group.  A
    continuous environment draws, thins and immigrates slice by slice."""
    slices = [values[lo : lo + simulator._BLOCK] for lo in range(0, values.size, simulator._BLOCK)]
    if not env.is_atomic:
        out = []
        for x in slices:
            batch = draw_env_batch(env, rng, x.size)
            out.append(thin_for_batch(batch, x, rng) + imm_for_batch(batch, rng))
        return np.concatenate(out)
    threshold, alias, tails = simulator._step_tables(env.groups)
    steps, groups = [], []
    for x in slices:
        batch = draw_env_batch(env, rng, x.size)
        steps.append(simulator._table_draw(threshold, alias, simulator.STEP_COLS, x, batch, rng))
        groups.append(batch.group)
    out = np.concatenate(steps)
    left = np.flatnonzero((out < 0) | (out == simulator._TAIL))
    tail, group = out[left] == simulator._TAIL, np.concatenate(groups)[left]
    out[left] = thin_for_batch(EnvBatch(groups=env.groups, group=group), values[left], rng)
    u = rng.uniform_open(left.size)
    u[tail] *= tails[group[tail]]
    for k, g in enumerate(env.groups):
        b = simulator._invert_immigration(g.immigration, u[group == k])
        out[left[group == k]] += np.where(tail[group == k], np.maximum(b, simulator.ALIAS_COLS), b)
    return out


@pytest.mark.parametrize(
    "env",
    [UNEVEN_ENV, LOCKSTEP_ENV, EnvSpec.uniform_poisson_rate(0.0, 0.9, ImmigrationFamily.discrete_pareto(2.0, 1.0))],
    ids=["uneven", "two-groups", "continuous"],
)
def test_a_step_over_slices_draws_in_the_documented_order(env):
    # populations 0..99 put about a third of every slice past the rows
    values = np.random.default_rng(5).integers(0, 100, THREE_SLICES)
    want = _step_in_documented_order(values, env, RngState.from_seed(3))
    # in place, each slice is overwritten before the unfinished entries thin
    assert step_batch(values, env, RngState.from_seed(3)) is values
    assert np.array_equal(values, want)


# sha256 of `step_batch` on populations 0..99 under LOCKSTEP_ENV at seed 3,
# recorded under STREAM_VERSION 7, when every step was one slice
V7_STEP_DIGESTS = {
    5: "554a12293b9eff7fe4ed44a2ad97f76e549f7dbe988c6f060357d5018465de4c",
    simulator._BLOCK: "b975a7fa3ac44728a61a767ae6739aa519994fed280df51c1eb266c2568120d2",
}


@pytest.mark.parametrize("size", V7_STEP_DIGESTS)
def test_a_step_of_one_slice_draws_as_stream_version_7(size):
    values = np.random.default_rng(5).integers(0, 100, size)
    out = step_batch(values.copy(), LOCKSTEP_ENV, RngState.from_seed(3))
    assert hashlib.sha256(out.tobytes()).hexdigest() == V7_STEP_DIGESTS[size]
    assert np.array_equal(out, _step_in_documented_order(values, LOCKSTEP_ENV, RngState.from_seed(3)))


# two immigration groups whose unfinished entries draw far apart: every step
# of the constant group lands in its tail cell, and its populations, at
# least 130, lie past the rows of both groups
FINISHING_MODEL = ModelSpec(
    env=EnvSpec.from_atoms(
        [
            EnvAtom(0.3, OffspringFamily.poisson(0.3), ImmigrationFamily.constant(130)),
            EnvAtom(0.2, OffspringFamily.poisson(0.6), ImmigrationFamily.constant(130)),
            EnvAtom(0.5, OffspringFamily.poisson(0.5), ImmigrationFamily.geometric0(0.5)),
        ]
    ),
    kappa=2.0,
)


def test_stationary_draws_over_three_slices_follow_the_kernel_law():
    # finishing an entry under another slice's groups, or thinning the value
    # a slice wrote over its population, fails this test
    model = FINISHING_MODEL
    exact = stationary_power_iteration(build_kernel(model.env, 1024))
    assert exact.residual < 1e-12
    trunc = choose_truncation(model, 1e-6)
    draws = sample_stationary_backward_batch(model, trunc, RngState.from_seed(41), THREE_SLICES)
    assert draws.max() <= 1024
    pmf = np.pad(exact.pmf, (0, 1025))  # the helper looks at most twice as far
    assert chi_square_pvalue(draws, lambda ks: pmf[ks]) > 1e-3


def test_a_stationary_chunk_thins_once_per_generation(monkeypatch):
    # a chunk of CHUNK_REPLICAS replicas is 16 slices, each with unfinished
    # entries in most generations, but one finishing pass per generation
    calls = []
    thin = simulator.thin_for_batch

    def counted(batch, values, rng):
        calls.append(1)
        return thin(batch, values, rng)

    monkeypatch.setattr(simulator, "thin_for_batch", counted)
    model = two_atom_model()
    trunc = choose_truncation(model, 1e-6)
    task = experiments._Task(
        sample_stationary_backward_batch, model, trunc, 1, (1, 0), experiments.CHUNK_REPLICAS,
        experiments._value_histogram, experiments._merge_histograms,
    )
    experiments._run_chunk(task)
    assert 0 < len(calls) <= trunc + 1


def test_simulate_forward_trajectory_shape():
    env = one_atom_env(OffspringFamily.bernoulli(1.0), ImmigrationFamily.constant(1))
    ends = [simulate_forward_batch(3, steps, env, RngState.from_seed(0), 1)[0] for steps in range(5)]
    assert ends == [3, 4, 5, 6, 7]
    assert simulate_forward_batch(7, 0, env, RngState.from_seed(0), 1).tolist() == [7]


def test_forward_mean_decays_at_the_mean_offspring_rate():
    # no immigration: E X_n = x0 * (E m)^n exactly; fitted slope of the log
    # of the cross-replica mean must sit within 5% of ln(0.5)
    env = EnvSpec.from_atoms(
        [EnvAtom(1.0, OffspringFamily.poisson(0.5), ImmigrationFamily.constant(0))]
    )
    rng = RngState.from_seed(33)
    v = np.full(4000, 1000, dtype=np.int64)
    means = []
    for _ in range(8):
        v = step_batch(v, env, rng)
        means.append(float(v.mean()))
    slope = np.polyfit(np.arange(1, 9), np.log(means), 1)[0]
    assert abs(slope - math.log(0.5)) <= 0.05 * abs(math.log(0.5))


def test_forward_overflow_guard():
    env = EnvSpec.from_atoms(
        [EnvAtom(1.0, OffspringFamily.poisson(3.0), ImmigrationFamily.constant(1))]
    )
    with pytest.raises(OverflowError):
        simulate_forward_batch(1 << 40, 60, env, RngState.from_seed(0), 4)


# ---- truncation choice --------------------------------------------------------

def test_choose_truncation_frozen_values():
    model = two_atom_model()
    # r = 0.45: smallest K with r^(K+1)/(1-r) <= 1e-4 is 12
    assert choose_truncation(model, 1e-4) == 12
    assert choose_truncation(model, 1e-6) == 18
    assert choose_truncation(model, 0.999) == 0


def test_choose_truncation_epsilon_at_least_one_needs_no_terms():
    assert choose_truncation(two_atom_model(), 1.0 - 1e-12) == 0


def test_choose_truncation_rejects_supercritical():
    env = EnvSpec.from_atoms(
        [EnvAtom(1.0, OffspringFamily.poisson(1.2), ImmigrationFamily.constant(1))]
    )
    with pytest.raises(NotSubcritical):
        choose_truncation(ModelSpec(env=env, kappa=1.0, delta=0.5), 1e-4)


@given(eps=hst.floats(1e-12, 0.9), r_scale=hst.floats(0.05, 0.95))
def test_choose_truncation_is_the_minimal_k(eps, r_scale):
    env = EnvSpec.from_atoms(
        [EnvAtom(1.0, OffspringFamily.bernoulli(r_scale), ImmigrationFamily.constant(1))]
    )
    model = ModelSpec(env=env, kappa=1.0, delta=0.5)
    r = r_scale
    k = choose_truncation(model, eps)
    assert r ** (k + 1) / (1.0 - r) <= eps
    if k > 0:
        assert r**k / (1.0 - r) > eps


# ---- backward sampler ----------------------------------------------------------

def test_backward_zero_truncation_is_a_plain_immigration_draw():
    model = two_atom_model()
    draws = sample_stationary_backward_batch(model, 0, RngState.from_seed(17), 200_000)
    p = chi_square_pvalue(
        draws,
        lambda ks: env_immigration_survival(model.env, ks - 1) - env_immigration_survival(model.env, ks),
    )
    assert p > 0.01


def test_backward_dead_offspring_reduces_to_first_term():
    # offspring mean 0 kills every term past i = 0 exactly
    env = EnvSpec.from_atoms(
        [EnvAtom(1.0, OffspringFamily.bernoulli(0.0), ImmigrationFamily.constant(4))]
    )
    model = ModelSpec(env=env, kappa=2.0, delta=0.5)
    for trunc in (0, 3, 9):
        draws = sample_stationary_backward_batch(model, trunc, RngState.from_seed(2), 64)
        assert np.all(draws == 4)


def test_backward_partial_sums_monotone_in_truncation():
    # terms share environments, so deepening K only ever adds mass
    model = two_atom_model()
    terms = backward_terms(model, 8, RngState.from_seed(9), 5000)
    assert terms.min() >= 0
    partial = np.cumsum(terms, axis=0)
    assert np.all(np.diff(partial, axis=0) >= 0)


def test_backward_mass_at_zero_matches_infinite_product():
    # coin config: P(X = 0) = prod_{k>=1} (1 - 2^-k); the product is an
    # absolutely convergent independent route to the same point mass
    env = EnvSpec.from_atoms(
        [EnvAtom(1.0, OffspringFamily.bernoulli(0.5), ImmigrationFamily.bernoulli(0.5))]
    )
    model = ModelSpec(env=env, kappa=2.0, delta=0.5)
    prod = 1.0
    k = 1
    while 2.0**-k > 1e-12:
        prod *= 1.0 - 2.0**-k
        k += 1
    draws = sample_stationary_backward_batch(model, 30, RngState.from_seed(77), 1_000_000)
    emp = float((draws == 0).mean())
    se = math.sqrt(prod * (1 - prod) / 1_000_000)
    assert abs(emp - prod) <= 4 * se


def test_nested_sampler_matches_the_term_by_term_sum():
    # the nested (Horner) form and the term-by-term sum are two routes to
    # the K-truncated backward law; config_a at its truncation K = 18
    model = two_atom_model()
    n = 100_000
    nested = sample_stationary_backward_batch(model, 18, RngState.from_seed(31), n)
    summed = backward_terms(model, 18, RngState.from_seed(32), n).sum(axis=0)
    assert ks_distance(nested, summed) < ks_threshold(n, n, 0.01)


def test_backward_rejects_negative_truncation():
    with pytest.raises(ValueError):
        sample_stationary_backward_batch(two_atom_model(), -1, RngState.from_seed(0), 8)


# ---- one-shot samplers ---------------------------------------------------------

def test_random_sum_with_constant_b_is_a_pure_thinning():
    model = two_atom_model()
    b_law = ImmigrationFamily.constant(2)
    draws = random_sum_batch(model, b_law, RngState.from_seed(27), 100_000)
    # mixture pmf of the 2-fold offspring sum over the two atoms
    def pmf(ks):
        return 0.5 * thinned_offspring_pmf(OffspringFamily.poisson(0.3), 2, ks) + 0.5 * thinned_offspring_pmf(
            OffspringFamily.poisson(0.9), 2, ks
        )

    assert chi_square_pvalue(draws, pmf) > 0.01


def test_composed_thinning_depth_zero_is_immigration():
    model = two_atom_model()
    draws = composed_thinning_batch(model, 0, RngState.from_seed(19), 100_000)
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    assert chi_square_pvalue(draws, lambda ks: immigration_pmf(law, ks)) > 0.01


def test_unit_progeny_mean_decays_geometrically():
    model = two_atom_model()
    rng = RngState.from_seed(23)
    means = [float(unit_progeny_batch(model, d, rng, 200_000).mean()) for d in (1, 2, 3)]
    # E m = 0.6 per stage
    for d, mean in zip((1, 2, 3), means):
        se = 3.0 / math.sqrt(200_000)  # loose bound on the sd
        assert abs(mean - 0.6**d) <= 4 * se


# ---- dumps ---------------------------------------------------------------------

def test_text_dump_round_trip(tmp_path):
    path = tmp_path / "samples.txt"
    data = np.array([0, 3, 17, 2**40], dtype=np.int64)
    write_samples_text(path, [data[:1], data[1:]])
    assert path.read_text() == "0\n3\n17\n1099511627776\n"
    assert np.array_equal(np.loadtxt(path, dtype=np.int64), data)


@pytest.mark.parametrize(
    "blocks",
    [
        [np.array([3]), np.array([0.5])],
        [np.array([3]), np.array([-1])],
        [np.array([], dtype=float)],
    ],
    ids=["non-integer", "negative", "empty-float"],
)
def test_text_dump_refuses_a_bad_block_before_writing(tmp_path, blocks):
    path = tmp_path / "samples.txt"
    with pytest.raises(ValueError):
        write_samples_text(path, blocks)
    assert not path.exists()


@pytest.mark.parametrize(
    "blocks",
    [
        [],
        [[]],
        [[0]],
        [[2**62 - 1]],
        [[], [0, 2**62 - 1], [], [7]],
        np.array_split(np.random.default_rng(9).integers(0, 2**62, 2 * 8192 + 5), [8192, 2 * 8192]),
        np.array_split(np.random.default_rng(9).integers(0, 10, 8493), [1, 8193, 8193]),
        np.array_split(np.arange(100), 37),
        [np.r_[0, np.random.default_rng(9).integers(0, 2**62, 8190), 2**62 - 1], [2**62 - 1, 0]],
    ],
    ids=[
        "no-blocks",
        "one-empty",
        "zero",
        "2^62-1",
        "empty-among-others",
        "three-blocks",
        "uneven-blocks",
        "many-small-blocks",
        "extremes-at-block-edges",
    ],
)
def test_text_dump_matches_a_line_by_line_writer(tmp_path, blocks):
    # the dump writes its blocks in order: empty blocks, the extreme values
    # and runs of several blocks write the bytes one line at a time would
    blocks = [np.asarray(b, dtype=np.int64) for b in blocks]
    write_samples_text(tmp_path / "dump.txt", blocks)
    with open(tmp_path / "lines.txt", "w") as fh:
        for block in blocks:
            for v in block:
                fh.write(f"{int(v)}\n")
    assert (tmp_path / "dump.txt").read_bytes() == (tmp_path / "lines.txt").read_bytes()


# ---- stream determinism ----------------------------------------------------------

def test_same_seed_same_draws():
    model = two_atom_model()
    a = sample_stationary_backward_batch(model, 6, RngState.from_seed(101), 512)
    b = sample_stationary_backward_batch(model, 6, RngState.from_seed(101), 512)
    assert np.array_equal(a, b)


def test_split_streams_are_stable_and_distinct():
    root = RngState.from_seed(5)
    a1 = root.split(1).gen.random(8)
    a2 = RngState.from_seed(5).split(1).gen.random(8)
    b = RngState.from_seed(5).split(2).gen.random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
