"""Twin affine recursion Y' = m(xi) * Y + B of the branching chain.

Replacing the thinning operator by multiplication with the realized offspring
mean gives a scalar stochastic recurrence whose stationary tail obeys the
same limit constant.  Its perpetuity sampler draws environments and
immigration generation by generation like the backward sampler's inputs.
The offspring mean m(xi) needs each draw's atom, not only its immigration
group, so every generation then reads its means (`env_model.atom_means`):
one uniform per draw in a group of several atoms, resolving it, and none in
the continuous mode, whose means are the drawn rates.  A spec of one group,
as config_a, so spends as many uniforms as a version 5 environment draw did.
"""

from __future__ import annotations

import numpy as np

from .env_model import ModelSpec, atom_means, draw_env_batch
from .rng import RngState
from .simulator import imm_for_batch

__all__ = ["sample_perpetuity_batch"]


def sample_perpetuity_batch(model: ModelSpec, trunc: int, rng: RngState, size: int) -> np.ndarray:
    """`size` draws of sum_i prod_{j<i} m(xi_j) * B_i, i = 0..trunc.

    Environments and immigration are drawn generation by generation exactly
    like the backward sampler's inputs, and each generation's atoms are
    resolved after its immigration; the running product multiplies in a
    generation's mean only after its B has been weighted, so term i carries
    the product over generations strictly before i.
    """
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    total = np.zeros(size, dtype=np.float64)
    prod = np.ones(size, dtype=np.float64)
    for _ in range(trunc + 1):
        batch = draw_env_batch(model.env, rng, size)
        b = imm_for_batch(batch, rng)
        total += prod * b
        prod *= atom_means(batch, rng)
    return total
