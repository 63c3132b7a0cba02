"""Exact truncated-kernel route and the brute-force convolution tail.

These are the independent checks the Monte Carlo engine is judged against,
so they get their own validation: kernel rows must be exact distributions,
the power iteration must land on known fixed points, and the convolution
tail must agree with the closed-form thinning sampler on light-tailed
configurations where both are sharp.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bpire.env_model import (
    EnvAtom,
    EnvSpec,
    ImmigrationFamily,
    ModelSpec,
    OffspringFamily,
    env_immigration_survival,
    immigration_pmf,
    thinned_offspring_pmf,
)
from bpire.errors import PmfUnavailable, ResidualTooLarge
from bpire.oracle import (
    brute_force_random_sum_tail,
    build_kernel,
    empirical_pmf,
    stationary_power_iteration,
    tv_distance,
)
from bpire.rng import RngState
from bpire.simulator import random_sum_batch, sample_stationary_backward_batch

from conftest import backward_terms, coin_env, coin_model, two_atom_env


def _single_atom(off, imm) -> EnvSpec:
    return EnvSpec.from_atoms([EnvAtom(1.0, off, imm)])


def test_kernel_dead_offspring_constant_immigration():
    # next state is always 2 regardless of the current one
    env = _single_atom(OffspringFamily.bernoulli(0.0), ImmigrationFamily.constant(2))
    kern = build_kernel(env, 8)
    assert np.allclose(kern.matrix[:, 2], 1.0)
    assert kern.mass_clip == 0.0


def test_kernel_rows_are_distributions():
    kern = build_kernel(coin_env(), 16)
    assert np.allclose(kern.matrix.sum(axis=1), 1.0, atol=1e-12)
    assert kern.matrix.min() >= 0.0


@given(
    off_p=hst.floats(0.1, 0.9),
    imm_q=hst.floats(0.0, 1.0),
    n_max=hst.integers(4, 24),
)
@settings(max_examples=25, deadline=None)
def test_kernel_rows_are_distributions_across_configs(off_p, imm_q, n_max):
    env = _single_atom(OffspringFamily.bernoulli(off_p), ImmigrationFamily.bernoulli(imm_q))
    kern = build_kernel(env, n_max)
    assert np.allclose(kern.matrix.sum(axis=1), 1.0, atol=1e-12)
    assert kern.matrix.min() >= -1e-15


@pytest.mark.parametrize("n_max", [8, 63, 200, 700])
@pytest.mark.parametrize("make_env", [two_atom_env, coin_env], ids=["config_a", "coin"])
def test_kernel_matches_per_row_convolution(make_env, n_max):
    # the build's blocked Toeplitz product against one np.convolve per row
    # and atom; 200 is not a multiple of the block size, and at 700 the
    # banded build leaves out whole blocks of config_a's thinned pmf (rows
    # 640-700 of Poisson(0.3 x) put below 1e-26 on states 0-63)
    env = make_env()
    ks = np.arange(n_max + 1)
    body = np.zeros((n_max + 1, n_max + 1))
    at_cap = np.zeros(n_max + 1)
    for atom in env.atoms:
        imm = immigration_pmf(atom.immigration, ks)
        for x in ks:
            conv = np.convolve(thinned_offspring_pmf(atom.offspring, int(x), ks), imm)
            body[x, :n_max] += atom.weight * conv[:n_max]
            at_cap[x] += atom.weight * conv[n_max]
    body[:, n_max] = np.maximum(0.0, 1.0 - body[:, :n_max].sum(axis=1))
    row_clip = np.maximum(0.0, body[:, n_max] - at_cap)
    kern = build_kernel(env, n_max)
    assert np.abs(kern.matrix - body).max() <= 1e-15
    assert np.abs(kern.row_clip - row_clip).max() <= 1e-15
    assert kern.matrix.min() >= 0.0


def test_kernel_hand_entry_for_the_coin_config():
    # from state 1: the one individual leaves no child AND nobody immigrates
    kern = build_kernel(coin_env(), 64)
    assert kern.matrix[1][0] == pytest.approx(0.25, abs=1e-15)


def test_kernel_rejects_continuous_env_and_bad_caps():
    cont = EnvSpec.uniform_poisson_rate(0.0, 1.0, ImmigrationFamily.constant(1))
    with pytest.raises(PmfUnavailable):
        build_kernel(cont, 8)
    with pytest.raises(ValueError):
        build_kernel(coin_env(), 0)
    with pytest.raises(ValueError):
        build_kernel(coin_env(), 5000)


def test_power_iteration_absorbing_state_fixed_point():
    # dead offspring + constant immigration jumps straight to 2 and stays
    env = _single_atom(OffspringFamily.bernoulli(0.0), ImmigrationFamily.constant(2))
    exact = stationary_power_iteration(build_kernel(env, 8))
    want = np.zeros(9)
    want[2] = 1.0
    assert np.allclose(exact.pmf, want, atol=1e-10)


def test_power_iteration_leaves_an_invariant_vector():
    kern = build_kernel(coin_env(), 64)
    exact = stationary_power_iteration(kern, tol=1e-13)
    drift = float(np.abs(exact.pmf @ kern.matrix - exact.pmf).sum())
    assert drift < 2e-13 * 10  # a couple of sweeps' worth of slack
    assert exact.pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_power_iteration_mass_at_zero_matches_infinite_product():
    # independent route: P(X = 0) = prod_{k>=1}(1 - 2^-k) for the coin config
    prod = 1.0
    k = 1
    while 2.0**-k > 1e-17:
        prod *= 1.0 - 2.0**-k
        k += 1
    exact = stationary_power_iteration(build_kernel(coin_env(), 64))
    assert exact.pmf[0] == pytest.approx(prod, abs=1e-10)
    assert exact.residual < 1e-12


def test_heavy_tailed_kernel_tail_ratio_is_stable_in_the_cap():
    # the acceptance gate checks the sampler's tail ratio at x = 31 against
    # this kernel on the heavy-tailed two-atom law; doubling the cap must
    # barely move it and must shrink the clipped stationary mass
    env = two_atom_env()
    ref = float(env_immigration_survival(env, 31))
    laws = [stationary_power_iteration(build_kernel(env, cap)) for cap in (512, 1024)]
    ratios = [float(law.pmf[32:].sum()) / ref for law in laws]
    assert abs(ratios[1] - ratios[0]) < 5e-3, ratios
    assert laws[1].residual < laws[0].residual


def test_brute_force_tail_trivial_cases():
    env = _single_atom(OffspringFamily.bernoulli(0.5), ImmigrationFamily.constant(0))
    assert brute_force_random_sum_tail(env, ImmigrationFamily.constant(0), 3, cap=4) == 0.0
    # B = 2, A Bernoulli(1/2): exceeding 1 needs both children, p = 1/4
    env2 = _single_atom(OffspringFamily.bernoulli(0.5), ImmigrationFamily.constant(2))
    got = brute_force_random_sum_tail(env2, ImmigrationFamily.constant(2), 1, cap=4)
    assert got == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize(
    "off,b_law",
    [
        (OffspringFamily.poisson(0.5), ImmigrationFamily.geometric0(0.5)),
        (OffspringFamily.geometric0(0.6), ImmigrationFamily.bernoulli(0.8)),
        (OffspringFamily.binomial(2, 0.4), ImmigrationFamily.geometric0(0.4)),
    ],
    ids=["poisson", "geometric0", "binomial"],
)
def test_brute_force_tail_agrees_with_the_thinning_sampler(off, b_law):
    # dual route: iterated single-draw convolution vs closed-family sampling
    env = _single_atom(off, ImmigrationFamily.constant(0))
    model = ModelSpec(env=env, kappa=1.0, delta=0.5)
    draws = random_sum_batch(model, b_law, RngState.from_seed(31), 400_000)
    for x in (0, 1, 3, 6):
        exact = brute_force_random_sum_tail(env, b_law, x, cap=200)
        emp = float((draws > x).mean())
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / draws.size)
        assert abs(emp - exact) <= 4 * se, f"x={x}: emp={emp:.5g} exact={exact:.5g}"


def test_brute_force_tail_rejects_heavy_b_over_a_low_cap():
    env = _single_atom(OffspringFamily.poisson(0.5), ImmigrationFamily.constant(0))
    with pytest.raises(ResidualTooLarge):
        brute_force_random_sum_tail(env, ImmigrationFamily.discrete_pareto(2.0, 1.0), 3, cap=50)


def test_brute_force_tail_rejects_continuous_env():
    cont = EnvSpec.uniform_poisson_rate(0.0, 1.0, ImmigrationFamily.constant(1))
    with pytest.raises(PmfUnavailable):
        brute_force_random_sum_tail(cont, ImmigrationFamily.constant(1), 1, cap=4)


def test_empirical_pmf_folds_the_overflow_into_the_cap():
    pmf = empirical_pmf(np.array([0, 1, 1, 9, 12]), 3)
    assert pmf.tolist() == [0.2, 0.4, 0.0, 0.4]
    # the same sample as a value histogram
    assert empirical_pmf(np.array([0, 1, 9, 12]), 3, np.array([1, 2, 1, 1])).tolist() == pmf.tolist()
    with pytest.raises(ValueError):
        empirical_pmf(np.array([-1]), 3)
    with pytest.raises(ValueError):
        empirical_pmf(np.array([], dtype=np.int64), 3)
    with pytest.raises(ValueError):
        empirical_pmf(np.array([], dtype=np.int64), 3, np.array([], dtype=np.int64))


def test_tv_distance_hand_values_and_padding():
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0], [0.5, 0.5]) == pytest.approx(0.5)


def test_backward_sampler_meets_the_kernel_stationary_law():
    # the acceptance-scale version runs in the acceptance gate; this is the
    # same dual route at a tenth the size, for the nested sampler and for the
    # term-by-term sum
    model = coin_model()
    kern = build_kernel(model.env, 64)
    exact = stationary_power_iteration(kern)
    nested = sample_stationary_backward_batch(model, 10, RngState.from_seed(71), 100_000)
    summed = backward_terms(model, 10, RngState.from_seed(72), 100_000).sum(axis=0)
    for draws in (nested, summed):
        assert tv_distance(exact.pmf, empirical_pmf(draws, 64)) <= 0.01
