"""Multiplicative twin of the chain: the affine recursion driven by the
realized offspring means, plus the term-by-term coupling to the thinned sum.

The coupling invariant carrying the comparison argument is that a thinned
term minus its multiplicative twin is exactly mean-zero given the
environment, and that the gap's tail is negligible next to the immigration
tail.  Both are checked by Monte Carlo with coupled draws.
"""

import math

import numpy as np
import pytest

from bpire.env_model import (
    EnvAtom,
    EnvSpec,
    ImmigrationFamily,
    ModelSpec,
    OffspringFamily,
    env_immigration_survival,
)
from bpire.rng import RngState
from bpire.sre_compare import coupled_gap_batch, sample_perpetuity_batch

from conftest import two_atom_model


def test_perpetuity_degenerate_env_is_a_geometric_series():
    # one atom, constant immigration 1: value is exactly sum of mu^i
    env = EnvSpec.from_atoms(
        [EnvAtom(1.0, OffspringFamily.poisson(0.5), ImmigrationFamily.constant(1))]
    )
    model = ModelSpec(env=env, kappa=1.0, delta=0.5)
    for trunc in (0, 3, 7):
        want = sum(0.5**i for i in range(trunc + 1))
        got = sample_perpetuity_batch(model, trunc, RngState.from_seed(0), 16)
        assert np.allclose(got, want, rtol=1e-12)


def test_perpetuity_zero_truncation_is_a_plain_immigration_draw():
    model = two_atom_model()
    vals = sample_perpetuity_batch(model, 0, RngState.from_seed(41), 200_000)
    assert np.all(vals == np.floor(vals))  # no product applied yet
    x = 9
    emp = float((vals > x).mean())
    s = float(env_immigration_survival(model.env, x))
    se = math.sqrt(s * (1 - s) / vals.size)
    assert abs(emp - s) <= 4 * se


def test_coupled_gap_depth_zero_is_identically_zero():
    gaps = coupled_gap_batch(two_atom_model(), 0, RngState.from_seed(2), 4096)
    assert np.all(gaps == 0.0)
    assert coupled_gap_batch(two_atom_model(), 0, RngState.from_seed(3), 1)[0] == 0.0


def test_coupled_gap_deterministic_thinning_is_zero():
    # bernoulli(1) offspring: thinning is the identity and the mean is 1,
    # so both sides agree path by path at every depth
    env = EnvSpec.from_atoms(
        [EnvAtom(1.0, OffspringFamily.bernoulli(1.0), ImmigrationFamily.geometric0(0.5))]
    )
    model = ModelSpec(env=env, kappa=2.0, delta=0.5)
    for depth in (1, 2, 5):
        gaps = coupled_gap_batch(model, depth, RngState.from_seed(4), 2048)
        assert np.all(gaps == 0.0)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
def test_coupled_gap_is_mean_zero(depth):
    gaps = coupled_gap_batch(two_atom_model(), depth, RngState.from_seed(50 + depth), 400_000)
    se = float(gaps.std(ddof=1)) / math.sqrt(gaps.size)
    assert abs(float(gaps.mean())) <= 4 * max(se, 1e-12)


def test_coupled_gap_tail_is_negligible_next_to_the_immigration_tail():
    # the comparison argument needs P(|gap| > x) = o(S(x)); at the 1e-3
    # quantile of S the measured ratio must sit far below the limit constant
    model = two_atom_model()
    x = 31  # S(31) ~ 9.77e-4 for the quadratic tail
    gaps = coupled_gap_batch(model, 3, RngState.from_seed(60), 1_000_000)
    p_gap = float((np.abs(gaps) > x).mean())
    s = float(env_immigration_survival(model.env, x))
    assert p_gap / s < 0.1 * 0.45


def test_gap_and_perpetuity_reject_negative_depth():
    with pytest.raises(ValueError):
        coupled_gap_batch(two_atom_model(), -1, RngState.from_seed(0), 4)
    with pytest.raises(ValueError):
        sample_perpetuity_batch(two_atom_model(), -2, RngState.from_seed(0), 4)
