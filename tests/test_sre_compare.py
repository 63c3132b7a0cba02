"""Multiplicative twin of the chain: the affine recursion driven by the
realized offspring means, checked in cases where its law is known.
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
from bpire.sre_compare import sample_perpetuity_batch

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


def test_gap_and_perpetuity_reject_negative_depth():
    with pytest.raises(ValueError):
        sample_perpetuity_batch(two_atom_model(), -2, RngState.from_seed(0), 4)
