"""Sampling layer: thinning closure, inversion immigration, chain steps,
truncation choice, backward sampler, sample dumps.

The load-bearing check is the closure audit: the thinning operator samples
the x-fold offspring sum through the family's summation closure, so we (a)
verify the closed-form pmf against an explicit x-fold convolution of the
single-draw pmf, and (b) chi-square the sampler against that pmf.  Together
these catch a wrong closure, a wrong pmf, or a biased sampler.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bpire import simulator
from bpire.env_model import (
    DPARETO_BETA_PER_KAPPA,
    EnvAtom,
    EnvBatch,
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
    offspring_pmf,
    thinned_offspring_mode,
    thinned_offspring_pmf,
)
from bpire.errors import NotSubcritical
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
    batch = EnvBatch(laws=((law, ImmigrationFamily.constant(0)),), group=np.zeros(xs.shape, dtype=np.int64))
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
    base = np.asarray(offspring_pmf(law, np.arange(hi + 1)), dtype=float)
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


def test_mixed_thinning_follows_each_groups_law():
    # every group's alias tables stacked into one lookup: the draws of each
    # (group, population) cell must follow that group's thinned law
    n = 400_000
    rng = RngState.from_seed(61)
    batch = draw_env_batch(MIXED_ENV, rng, n)
    values = np.resize(np.array([0, 2, 7], dtype=np.int64), n)
    draws = thin_for_batch(batch, values, rng)
    assert not draws[values == 0].any()
    for j, atom in enumerate(MIXED_ENV.atoms):
        for x in (2, 7):
            cell = draws[(batch.group == j) & (values == x)]
            p = chi_square_pvalue(cell, lambda ks: thinned_offspring_pmf(atom.offspring, x, ks))
            assert p > 1e-3, f"group {j} ({atom.offspring.kind}) x={x}: chi-square p={p:.4g}"


# ---- alias tables -------------------------------------------------------------

def _tabulated_rows(law) -> int:
    """Rows of `law`'s alias table that a draw can keep; the rest send every
    cell to numpy's draw."""
    return int(np.count_nonzero(simulator._alias_table(law)[1][:, 0] >= 0))


def _tail_past_width(law, x) -> float:
    """P(X >= ALIAS_COLS) for the x-fold sum, summed from the oracle pmf."""
    ks = np.arange(simulator.ALIAS_COLS, 8 * simulator.ALIAS_COLS)
    return float(np.sum(thinned_offspring_pmf(law, x, ks)))


TABLE_LAWS = list(dict.fromkeys(FAMILIES + [atom.offspring for atom in MIXED_ENV.atoms])) + [
    OffspringFamily.poisson(0.9),
    OffspringFamily.poisson(5.0),
    OffspringFamily.binomial(1000, 0.001),
    OffspringFamily.geometric0(0.1),
]


@pytest.mark.parametrize("law", TABLE_LAWS, ids=lambda l: f"{l.kind}-{l.rate or l.p}-{l.n}")
def test_alias_tables_imply_the_thinned_pmf(law):
    # cell j keeps j with probability q[j] and hands the rest to alias[j];
    # the pmf that implies is checked against the oracle's closed-form pmf,
    # a route independent of the recurrence the tables are built from
    q, alias = simulator._alias_table(law)
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
    for table, other in zip(simulator._alias_table(coin), simulator._alias_table(one_trial)):
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
    # groups 0 and 3 share one law and one inversion
    n = 400_000
    rng = RngState.from_seed(62)
    batch = draw_env_batch(MIXED_ENV, rng, n)
    draws = imm_for_batch(batch, rng)
    for j, atom in enumerate(MIXED_ENV.atoms):
        p = chi_square_pvalue(draws[batch.group == j], lambda ks: immigration_pmf(atom.immigration, ks))
        assert p > 1e-3, f"group {j} ({atom.immigration.kind}): chi-square p={p:.4g}"


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
    # the full check would evaluate S at 2 * 8192 points
    seen = []

    def counting(law, x):
        seen.append(np.size(x))
        return immigration_survival(law, x)

    monkeypatch.setattr(simulator, "immigration_survival", counting)
    sample_immigration_batch(ImmigrationFamily.discrete_pareto(2.0, 1.0), RngState.from_seed(3), 8192)
    assert sum(seen) <= 8


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
    write_samples_text(path, data)
    assert path.read_text() == "0\n3\n17\n1099511627776\n"
    assert np.array_equal(np.loadtxt(path, dtype=np.int64), data)
    with pytest.raises(ValueError):
        write_samples_text(path, np.array([0.5]))


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
