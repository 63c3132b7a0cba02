"""Moment layer and pmf/survival evaluation.

Every nontrivial expected value is recomputed by an independent route
(direct series summation, hand quadrature, telescoping) instead of trusting
the function under test.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st
from scipy import integrate
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from bpire import env_model
from bpire.env_model import (
    DPARETO_BETA_PER_KAPPA,
    EnvAtom,
    EnvSpec,
    ImmigrationFamily,
    ModelSpec,
    OffspringFamily,
    check_conditions,
    draw_env_batch,
    env_immigration_survival,
    env_pareto_prefactor,
    immigration_pmf,
    immigration_survival,
    kappa_moment,
    log_mean_offspring,
    mean_offspring,
    moment_A,
    offspring_moment,
    pareto_tail_params,
    thinned_offspring_mode,
    thinned_offspring_pmf,
)
from bpire.errors import SeriesDivergence
from bpire.oracle import _BAND_FLOOR, _KERNEL_BLOCK, build_kernel
from bpire.rng import RngState

from conftest import two_atom_env, two_atom_model


def test_mean_offspring_closed_forms():
    assert mean_offspring(OffspringFamily.poisson(0.5)) == 0.5
    assert mean_offspring(OffspringFamily.bernoulli(0.3)) == 0.3
    assert mean_offspring(OffspringFamily.geometric0(0.5)) == 1.0
    assert mean_offspring(OffspringFamily.binomial(3, 0.5)) == 1.5


def test_offspring_moment_matches_direct_series():
    # geometric0(1/2): P(A = k) = 2^-(k+1); summing the series directly
    # gives exactly 3 for the second moment
    ks = np.arange(400, dtype=float)
    direct = float(np.sum(ks**2 * 0.5 ** (ks + 1.0)))
    assert direct == pytest.approx(3.0, abs=1e-12)
    assert offspring_moment(OffspringFamily.geometric0(0.5), 2.0) == pytest.approx(direct, rel=1e-9)


def test_offspring_moment_poisson_closed_form():
    # E A^2 = lam + lam^2
    assert offspring_moment(OffspringFamily.poisson(1.0), 2.0) == pytest.approx(2.0, rel=1e-10)
    assert offspring_moment(OffspringFamily.poisson(0.3), 2.0) == pytest.approx(0.39, rel=1e-10)


def test_offspring_moment_fractional_order_against_scipy_series():
    direct = float(np.sum(np.arange(200.0) ** 2.5 * st.poisson.pmf(np.arange(200), 0.9)))
    assert offspring_moment(OffspringFamily.poisson(0.9), 2.5) == pytest.approx(direct, rel=1e-9)
    direct_g = float(np.sum(np.arange(2000.0) ** 2.5 * st.nbinom.pmf(np.arange(2000), 1, 0.4)))
    assert offspring_moment(OffspringFamily.geometric0(0.4), 2.5) == pytest.approx(direct_g, rel=1e-9)


def test_offspring_moment_of_the_point_mass_is_exactly_zero():
    for law in (OffspringFamily.poisson(0.0), OffspringFamily.geometric0(1.0)):
        for order in (1.0, 2.5, 7.0):
            assert offspring_moment(law, order) == 0.0


def test_offspring_moment_cap_names_the_family(monkeypatch):
    # Poisson(10^6) (sd 1000) and geometric0(10^-4) (sd about 10^4) each take
    # more than one block of 4096 terms on their upper side before the tail
    # bound is met
    monkeypatch.setattr(env_model, "_SERIES_CAP", 100)
    for law in (OffspringFamily.poisson(1e6), OffspringFamily.geometric0(1e-4)):
        with pytest.raises(SeriesDivergence, match=f"^{law.kind} moment series exceeded iteration cap$"):
            offspring_moment(law, 2.0)


def test_a_moment_refused_at_the_cap_costs_a_bounded_number_of_blocks(monkeypatch):
    # geometric0:1e-7 (sd 10^7) runs its upper side to the cap of 10^7
    # terms; blocks of 256 took about 39 000 pmf calls to get there
    calls = []

    def counting(law, x, ks):
        calls.append(np.size(ks))
        return thinned_offspring_pmf(law, x, ks)

    monkeypatch.setattr(env_model, "thinned_offspring_pmf", counting)
    env = EnvSpec.from_atoms([
        EnvAtom(0.1, OffspringFamily.geometric0(1e-7), ImmigrationFamily.discrete_pareto(2.0, 1.0)),
        EnvAtom(0.9, OffspringFamily.poisson(0.0), ImmigrationFamily.discrete_pareto(2.0, 1.0)),
    ])
    with pytest.raises(SeriesDivergence, match="^geometric0 moment series exceeded iteration cap$"):
        check_conditions(ModelSpec(env=env, kappa=0.01))
    assert len(calls) <= 2500


def test_offspring_moment_takes_large_powers_in_logs():
    # k^order passes float64 within each sum (from k = 112, 371 and 635),
    # the moment does not; reference values summed with 50-digit mpmath
    cases = [
        (OffspringFamily.poisson(0.3), 150.5, 1.0432808427499605e175),
        (OffspringFamily.geometric0(0.5), 120.0, 6.088118052531736e217),
        (OffspringFamily.binomial(1000, 0.001), 110.0, 2.175441136767523e130),
    ]
    for law, order, want in cases:
        assert offspring_moment(law, order) == pytest.approx(want, rel=1e-12), law


def test_offspring_moment_bernoulli_binomial_exact():
    # A in {0, 1}: every moment is p
    assert offspring_moment(OffspringFamily.bernoulli(0.35), 7.3) == pytest.approx(0.35, rel=1e-12)
    direct = float(np.sum(np.arange(4.0) ** 2 * st.binom.pmf(np.arange(4), 3, 0.5)))
    assert offspring_moment(OffspringFamily.binomial(3, 0.5), 2.0) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize(
    "law, want",
    [
        # exp(-1000) underflows: a term carried as a product of floats reads 0
        (OffspringFamily.poisson(1000), 31682075.484289971),
        # 1 - 5e-13 rounds p by 1e-4 relative, so a head (1 - p)^N would read 0.98974789
        (OffspringFamily.binomial(10**12, 5e-13), 0.98979188371396148),
        (OffspringFamily.binomial(2000, 0.5), 31652422.028318644),
        (OffspringFamily.binomial(5, 1.0), 5**2.5),
        # a log pmf carried as a running sum of steps from k = 0 drifts by
        # about 1e-16 |log p_k| a step, past 1e-12 at these means
        (OffspringFamily.poisson(1e4), 10001875019.53129883),
        (OffspringFamily.poisson(1e5), 3162336952936.2707401),
    ],
    ids=["poisson-1000", "binomial-1e12", "binomial-2000", "binomial-p-1", "poisson-1e4", "poisson-1e5"],
)
def test_offspring_moment_against_mpmath(law, want):
    # E[A^2.5], the whole support (for Poisson, mean +- 50 sd) summed with
    # 40-digit mpmath
    assert offspring_moment(law, 2.5) == pytest.approx(want, rel=1e-12)


def test_a_huge_poisson_mean_costs_what_its_spread_needs():
    # E[A^2] = mu^2 + mu; the sum starts at the mode, so Poisson(5 * 10^6)
    # (sd 2236) takes about 64 blocks of 256 a side
    start = time.perf_counter()
    got = offspring_moment(OffspringFamily.poisson(5e6), 2.0)
    assert time.perf_counter() - start < 0.5
    assert got == pytest.approx(25000005000000.0, rel=1e-12)


def test_a_huge_trial_count_costs_what_the_support_needs():
    # binomial:10^12,5e-13 has 10^12 + 1 support points but mean 1/2: the
    # pmf, the kernel and the moment evaluate a few dozen of them
    law = OffspringFamily.binomial(10**12, 5e-13)
    env = EnvSpec.from_atoms([EnvAtom(1.0, law, ImmigrationFamily.discrete_pareto(2.0, 1.0))])
    for run in (lambda: build_kernel(env, 64), lambda: offspring_moment(law, 2.5)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
    ks = np.arange(200)
    want = st.binom.pmf(ks, 64 * 10**12, 5e-13)
    big = want >= 1e-250
    got = thinned_offspring_pmf(law, 64, ks)
    assert np.all(np.abs(got[big] - want[big]) <= 1e-10 * want[big])


OFFSPRING_LAWS = hst.one_of(
    hst.floats(0.0, 2.5).map(OffspringFamily.poisson),
    hst.floats(0.0, 1.0).map(OffspringFamily.bernoulli),
    hst.floats(0.01, 1.0).map(OffspringFamily.geometric0),
    hst.builds(OffspringFamily.binomial, hst.integers(1, 8), hst.floats(0.0, 1.0)),
)


def _scipy_thinned_pmf(law: OffspringFamily, x: int, ks: np.ndarray) -> np.ndarray:
    if x == 0:
        return (ks == 0).astype(float)
    if law.kind == "poisson":
        return st.poisson.pmf(ks, x * law.rate)
    if law.kind == "geometric0":
        return st.nbinom.pmf(ks, x, law.p)
    n = x * (law.n if law.kind == "binomial" else 1)
    try:
        return st.binom.pmf(ks, n, law.p)
    except OverflowError:  # scipy's pmf fails at some subnormal p (1.1e-308); its logpmf does not
        return np.exp(st.binom.logpmf(ks, n, law.p))


def _support_end(law: OffspringFamily, x: int) -> int:
    """A k beyond which the x-fold sum has mass far below 1e-16."""
    if law.kind in ("bernoulli", "binomial"):
        return x * (law.n if law.kind == "binomial" else 1)
    if law.kind == "poisson":
        mean = var = x * law.rate
    else:
        mean, var = x * (1.0 - law.p) / law.p, x * (1.0 - law.p) / law.p**2
    return int(mean + 40.0 * math.sqrt(var) + 60.0)


@given(law=OFFSPRING_LAWS, rows=hst.lists(hst.integers(0, 4095), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_mode_clamped_block_peak_is_the_block_maximum(law, rows):
    # build_kernel keeps a column block of a row iff the pmf at the row's mode
    # clamped into the block is above the floor; against the whole row's
    # pmf, cut into blocks, that must keep the same blocks and find each
    # block's largest entry up to rounding
    x = np.array(rows)[:, None]
    starts = np.arange(0, 4096, _KERNEL_BLOCK)
    full = thinned_offspring_pmf(law, x, np.arange(4096)).reshape(x.size, starts.size, _KERNEL_BLOCK)
    block_max = full.max(axis=2)
    peaks = np.clip(thinned_offspring_mode(law, x), starts, starts + _KERNEL_BLOCK - 1).astype(np.int64)
    at_peak = thinned_offspring_pmf(law, x, peaks)
    assert np.array_equal(at_peak > _BAND_FLOOR, block_max > _BAND_FLOOR)
    assert np.all(at_peak >= block_max * (1.0 - 1e-12))


@given(law=OFFSPRING_LAWS, x=hst.integers(0, 4096))
@settings(max_examples=60, deadline=None)
def test_thinned_pmf_matches_scipy(law, x):
    # the kernel's pmfs in numpy against scipy.stats, which the package no
    # longer imports; below 1e-250 only the size of the value is checked
    ks = np.arange(4097)
    got = thinned_offspring_pmf(law, x, ks)
    want = _scipy_thinned_pmf(law, x, ks)
    big = want >= 1e-250
    assert np.all(np.abs(got[big] - want[big]) <= 1e-10 * want[big]), np.max(np.abs(got[big] / want[big] - 1))
    assert np.all(got[~big] < 2e-250)
    row = thinned_offspring_pmf(law, x, np.arange(_support_end(law, x) + 1))
    assert abs(float(row.sum()) - 1.0) <= 1e-12
    assert row.min() >= 0.0


def test_kappa_moment_two_atom_mixture():
    assert kappa_moment(two_atom_env(), 2.0) == pytest.approx(0.45, abs=1e-15)


def test_kappa_moment_at_zero_is_exactly_one():
    assert kappa_moment(two_atom_env(), 0.0) == 1.0
    cont = EnvSpec.uniform_poisson_rate(0.0, 2.0, ImmigrationFamily.constant(1))
    assert kappa_moment(cont, 0.0) == 1.0


def test_kappa_moment_uniform_rate_quadrature():
    cont = EnvSpec.uniform_poisson_rate(0.0, 1.0, ImmigrationFamily.constant(1))
    # integral of r^2 over [0, 1] is 1/3
    assert kappa_moment(cont, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-9)
    # closed form against numerical quadrature of r^kappa over [lo, hi]
    for lo, hi, kappa in [(0.2, 1.3, 0.5), (0.5, 0.9, 2.0), (0.1, 1.1, 1.7), (0.0, 2.0, 0.3), (1.0, 4.0, 3.25)]:
        env = EnvSpec.uniform_poisson_rate(lo, hi, ImmigrationFamily.constant(1))
        integral, _ = integrate.quad(lambda r: r**kappa, lo, hi, epsabs=0.0, epsrel=1e-13)
        assert kappa_moment(env, kappa) == pytest.approx(integral / (hi - lo), rel=1e-12, abs=0.0)


@given(
    ws=hst.lists(hst.integers(1, 9), min_size=1, max_size=4),
    ps=hst.lists(hst.floats(0.01, 1.0), min_size=4, max_size=4),
    k_lo=hst.floats(0.1, 3.0),
    k_gap=hst.floats(0.1, 2.0),
)
def test_kappa_moment_monotone_for_means_below_one(ws, ps, k_lo, k_gap):
    total = sum(ws)
    atoms = [
        EnvAtom(w / total, OffspringFamily.bernoulli(p), ImmigrationFamily.constant(0))
        for w, p in zip(ws, ps)
    ]
    env = EnvSpec.from_atoms(atoms)
    assert kappa_moment(env, k_lo + k_gap) <= kappa_moment(env, k_lo) + 1e-12


def test_moment_A_mixture_order_two():
    # per-atom E A^2 = lam + lam^2, so 0.5 * 0.39 + 0.5 * 1.71
    assert moment_A(two_atom_env(), 2.0) == pytest.approx(1.05, rel=1e-9)


def _poisson_moment_direct(lam, order):
    # pmf-weighted sum, out to where the Poisson(lam) mass is far below 1e-16
    ks = np.arange(int(lam + 40 * math.sqrt(lam) + 60 + 4 * order))
    return float(np.sum(ks.astype(float) ** order * st.poisson.pmf(ks, lam)))


def test_moment_A_uniform_rate_quadrature():
    cont = EnvSpec.uniform_poisson_rate(0.0, 1.0, ImmigrationFamily.constant(1))
    # integral of (r + r^2) dr over [0, 1] = 1/2 + 1/3
    assert moment_A(cont, 2.0) == pytest.approx(5.0 / 6.0, abs=1e-8)
    # against adaptive quadrature of the directly summed Poisson moment
    cases = [
        (0.0, 1.0, 2.0),
        (0.0, 0.9, 2.5),
        (0.2, 1.3, 1.5),
        (0.5, 50.0, 11.0),
        (1.0, 4.0, 3.25),
        (0.1, 0.3, 7.0),
        (0.0, 0.05, 1.2),
    ]
    for lo, hi, order in cases:
        env = EnvSpec.uniform_poisson_rate(lo, hi, ImmigrationFamily.constant(1))
        integral, _ = integrate.quad(
            _poisson_moment_direct, lo, hi, args=(order,), epsabs=0.0, epsrel=1e-13, limit=200
        )
        assert moment_A(env, order) == pytest.approx(integral / (hi - lo), rel=1e-12, abs=0.0)


def test_moment_A_uniform_rate_to_the_rounding():
    # 30-digit mpmath quadrature of the Poisson series over the float
    # endpoints: the rule and each node's series add no error above rounding
    env = EnvSpec.uniform_poisson_rate(0.3, 0.9, ImmigrationFamily.constant(1))
    assert moment_A(env, 2.5) == pytest.approx(1.38276743015109075, rel=1e-14)


def test_log_mean_offspring_values():
    expected = 0.5 * math.log(0.3) + 0.5 * math.log(0.9)
    assert log_mean_offspring(two_atom_env()) == pytest.approx(expected, rel=1e-12)
    cont = EnvSpec.uniform_poisson_rate(0.0, 1.0, ImmigrationFamily.constant(1))
    # integral of ln r over [0, 1] is -1
    assert log_mean_offspring(cont) == pytest.approx(-1.0, rel=1e-12)


def test_log_mean_with_a_dead_atom_is_minus_infinity():
    env = EnvSpec.from_atoms(
        [
            EnvAtom(0.5, OffspringFamily.poisson(0.0), ImmigrationFamily.constant(1)),
            EnvAtom(0.5, OffspringFamily.poisson(0.9), ImmigrationFamily.constant(1)),
        ]
    )
    assert log_mean_offspring(env) == -math.inf


def test_check_conditions_two_atom_model_passes():
    rep = check_conditions(two_atom_model())
    assert rep.passed
    assert rep.subcritical
    assert rep.kappa_moment == pytest.approx(0.45, abs=1e-12)
    assert rep.log_mean < 0.0
    assert math.isfinite(rep.moment_a)


def test_check_conditions_rejects_supercritical_moment():
    env = EnvSpec.from_atoms(
        [EnvAtom(1.0, OffspringFamily.poisson(1.2), ImmigrationFamily.constant(1))]
    )
    rep = check_conditions(ModelSpec(env=env, kappa=1.0, delta=0.5))
    assert not rep.passed
    assert rep.kappa_moment == pytest.approx(1.2, rel=1e-12)
    # the verdict is known, so the offspring moment is not evaluated
    assert math.isnan(rep.moment_a)


def test_condition_report_json_keys():
    d = check_conditions(two_atom_model()).to_dict()
    assert set(d) == {"kappa_moment", "log_mean", "moment_A", "subcritical", "pass"}


def test_dpareto_survival_closed_points():
    law = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    assert immigration_survival(law, -1) == 1.0
    assert immigration_survival(law, 0) == 1.0
    assert immigration_survival(law, 1) == 0.25
    assert immigration_survival(law, 10) == pytest.approx(1.0 / 121.0, rel=1e-15)


def test_survival_light_tailed_families():
    assert immigration_survival(ImmigrationFamily.geometric0(0.5), 3) == pytest.approx(0.5**4)
    coin = ImmigrationFamily.bernoulli(0.4)
    assert immigration_survival(coin, 0) == 0.4
    assert immigration_survival(coin, 1) == 0.0
    const = ImmigrationFamily.constant(3)
    assert immigration_survival(const, 2) == 1.0
    assert immigration_survival(const, 3) == 0.0


@given(
    kappa=hst.floats(0.05, 10.0),
    c=hst.floats(5e-324, 1.0),
    share=hst.floats(0.0, 1.0),
)
@example(kappa=1.0, c=0.5, share=1.0)
@example(kappa=1.0, c=5e-324, share=0.5)
@settings(max_examples=60, deadline=None)
def test_dpareto_survival_monotone_and_pmf_telescopes(kappa, c, share):
    # beta up to the largest ImmigrationFamily accepts, the bound included.
    # c down to the least subnormal: S multiplies by c last, and rounding
    # c times a falling factor cannot make it rise, so S stays monotone
    # where it is rounded to a few multiples of 5e-324
    law = ImmigrationFamily.discrete_pareto(kappa, c, share * DPARETO_BETA_PER_KAPPA * kappa)
    xs = np.arange(0, 10**4 + 1)
    s = immigration_survival(law, xs)
    pmf = immigration_pmf(law, xs)
    assert pmf.min() >= 0.0
    assert float(np.sum(pmf)) == pytest.approx(1.0 - float(s[-1]), abs=1e-12)


def test_dpareto_law_whose_survival_rises_is_refused():
    # S(0..2) would read 0.5, 0.533, 0.558: a negative mass at 1
    with pytest.raises(ValueError, match="beta must be <= 2.4327 kappa"):
        ImmigrationFamily.discrete_pareto(0.3, 0.5, 1.0)
    with pytest.raises(ValueError, match="beta must be <= 2.4327 kappa"):
        ImmigrationFamily.discrete_pareto(1.0, 1.0, 2.44)
    ImmigrationFamily.discrete_pareto(1.0, 1.0, 2.4327)


@pytest.mark.parametrize(
    "kappa, c, beta", [(2.0, 1.0, 0.0), (0.3, 0.7, 0.0), (2.5, 0.4, 0.0), (2.0, 1.0, 0.3), (1.5, 0.2, 2.0)]
)
def test_dpareto_survival_equals_the_general_formula_exactly(kappa, c, beta):
    # at beta = 0 the log factor is skipped; ln(e + x) ** 0 == 1.0 exactly,
    # so every bit must still match the general formula, which takes c last
    x = np.concatenate([-np.arange(1.0, 6.0), np.arange(0.0, 5000.0), np.geomspace(5000.0, 1e18, 200)])
    xc = np.maximum(x, 0.0)
    tail = c * (np.log(math.e + xc) ** beta * (1.0 + xc) ** (-kappa))
    general = np.where(x < 0.0, 1.0, np.minimum(1.0, tail))
    got = immigration_survival(ImmigrationFamily.discrete_pareto(kappa, c, beta), x)
    assert np.array_equal(got, general)


def test_pmf_at_zero_is_one_minus_survival():
    law = ImmigrationFamily.discrete_pareto(2.0, 0.7)
    assert immigration_pmf(law, np.array([0]))[0] == pytest.approx(0.3, rel=1e-12)


def test_env_immigration_survival_mixes_atoms():
    env = EnvSpec.from_atoms(
        [
            EnvAtom(0.5, OffspringFamily.poisson(0.3), ImmigrationFamily.discrete_pareto(2.0, 1.0)),
            EnvAtom(0.5, OffspringFamily.poisson(0.9), ImmigrationFamily.discrete_pareto(2.0, 0.5)),
        ]
    )
    # 0.5 * 1/4 + 0.5 * 1/8 at x = 1
    assert env_immigration_survival(env, 1) == pytest.approx(0.1875, rel=1e-12)


def test_pareto_tail_params_and_prefactor():
    assert pareto_tail_params(ImmigrationFamily.discrete_pareto(2.0, 0.5, 1.0)) == (0.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        pareto_tail_params(ImmigrationFamily.geometric0(0.5))
    assert env_pareto_prefactor(two_atom_env()) == (1.0, 2.0, 0.0)
    mixed = EnvSpec.from_atoms(
        [
            EnvAtom(0.5, OffspringFamily.poisson(0.3), ImmigrationFamily.discrete_pareto(2.0, 1.0)),
            EnvAtom(0.5, OffspringFamily.poisson(0.9), ImmigrationFamily.discrete_pareto(2.0, 0.5)),
        ]
    )
    assert env_pareto_prefactor(mixed) == (0.75, 2.0, 0.0)


def test_env_pareto_prefactor_rejects_mismatched_exponents():
    env = EnvSpec.from_atoms(
        [
            EnvAtom(0.5, OffspringFamily.poisson(0.3), ImmigrationFamily.discrete_pareto(2.0, 1.0)),
            EnvAtom(0.5, OffspringFamily.poisson(0.9), ImmigrationFamily.discrete_pareto(3.0, 1.0)),
        ]
    )
    with pytest.raises(ValueError):
        env_pareto_prefactor(env)


def test_binomial_trial_counts_stay_below_2_to_the_62():
    # n itself is refused at 2^62; an x-fold sum whose x n reaches 2^62
    # raises OverflowError where int64 would wrap it
    assert OffspringFamily.binomial(2**62 - 1, 0.5).n == 2**62 - 1
    with pytest.raises(ValueError, match=r"binomial n must be an integer in \[1, 2\^62\)"):
        OffspringFamily.binomial(2**62, 0.5)
    law = OffspringFamily.binomial(2**61, 1.3e-19)
    assert thinned_offspring_mode(law, 1) == 0.0
    for x in (2, np.arange(64)):
        with pytest.raises(OverflowError, match="^binomial trial count"):
            thinned_offspring_mode(law, x)
        with pytest.raises(OverflowError, match="^binomial trial count"):
            thinned_offspring_pmf(law, x, np.arange(4))


def test_atom_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        EnvSpec.from_atoms(
            [EnvAtom(0.4, OffspringFamily.poisson(0.3), ImmigrationFamily.constant(1))]
        )


def test_sample_environment_single_atom_is_deterministic():
    env = EnvSpec.from_atoms(
        [EnvAtom(1.0, OffspringFamily.poisson(0.7), ImmigrationFamily.constant(2))]
    )
    rng = RngState.from_seed(1)
    for _ in range(5):
        atom = env.atoms[draw_env_batch(env, rng, 1).group[0]]
        assert atom.offspring == OffspringFamily.poisson(0.7)
        assert atom.immigration == ImmigrationFamily.constant(2)


def test_draw_env_batch_frequencies_and_determinism():
    env = two_atom_env()
    batch = draw_env_batch(env, RngState.from_seed(42), 200_000)
    freq = float((batch.group == 0).mean())
    se = math.sqrt(0.25 / 200_000)
    assert abs(freq - 0.5) <= 4 * se
    again = draw_env_batch(env, RngState.from_seed(42), 200_000)
    assert np.array_equal(batch.group, again.group)


class _FixedGen:
    """Stand-in rng whose `gen.random` returns pinned uniforms."""

    def __init__(self, u):
        self.gen = self
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u


# random weights over 1-8 atoms, or n equal weights, whose float cumulative
# sum can end below 1 (ten times 0.1 ends at 1 - 2^-53)
ATOM_WEIGHTS = hst.one_of(
    hst.lists(hst.floats(1e-3, 1.0), min_size=1, max_size=8).map(lambda w: list(np.divide(w, math.fsum(w)))),
    hst.integers(1, 10).map(lambda n: [1.0 / n] * n),
)


@given(weights=ATOM_WEIGHTS, seed=hst.integers(0, 2**32 - 1))
@example(weights=[0.1] * 10, seed=0)
@settings(max_examples=40, deadline=None)
def test_draw_env_batch_groups_match_a_right_sided_search(weights, seed):
    # the group of every uniform, at and beside each cumulative weight too,
    # is the one a right-sided search of the cumulative weights gives
    law = (OffspringFamily.poisson(0.5), ImmigrationFamily.constant(1))
    env = EnvSpec.from_atoms([EnvAtom(w, *law) for w in weights])
    cw = np.cumsum(weights)
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)], cw, np.nextafter(cw, 0.0), np.nextafter(cw, 2.0),
        np.random.default_rng(seed).random(256),
    ])
    want = np.clip(np.searchsorted(cw, u, side="right"), 0, len(weights) - 1)
    assert np.array_equal(draw_env_batch(env, _FixedGen(u), u.size).group, want)


def test_batch_offspring_means_lookup():
    env = two_atom_env()
    batch = draw_env_batch(env, RngState.from_seed(3), 1000)
    assert batch.laws == tuple((a.offspring, a.immigration) for a in env.atoms)
    assert np.allclose(batch.means, np.where(batch.group == 0, 0.3, 0.9))
    # the continuous mode is one group, Poisson at each draw's uniform rate
    imm = ImmigrationFamily.constant(1)
    cont = EnvSpec.uniform_poisson_rate(0.2, 0.8, imm)
    cbatch = draw_env_batch(cont, RngState.from_seed(3), 1000)
    assert cbatch.laws == ((None, imm),)
    assert not cbatch.group.any()
    assert np.array_equal(cbatch.means, 0.2 + (0.8 - 0.2) * RngState.from_seed(3).gen.random(1000))
    assert cbatch.means.min() >= 0.2 and cbatch.means.max() <= 0.8
