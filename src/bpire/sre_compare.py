"""Twin affine recursion Y' = m(xi) * Y + B and its coupling to the chain.

Replacing the thinning operator by multiplication with the realized offspring
mean gives a scalar stochastic recurrence whose stationary tail obeys the
same limit constant.  The samplers here reuse the integer chain's environment
and immigration draws so the two processes can be compared term by term: the
gap between a thinned term and its multiplicative twin is mean-zero given the
environment.
"""

from __future__ import annotations

import numpy as np

from .env_model import ModelSpec, batch_offspring_means, draw_env_batch
from .rng import RngState
from .simulator import OVERFLOW_LIMIT, imm_for_batch, thin_for_batch

__all__ = ["sample_perpetuity_batch", "coupled_gap_batch"]


def sample_perpetuity_batch(model: ModelSpec, trunc: int, rng: RngState, size: int) -> np.ndarray:
    """`size` draws of sum_i prod_{j<i} m(xi_j) * B_i, i = 0..trunc.

    Environments and immigration are drawn generation by generation exactly
    like the backward sampler's inputs; the running product multiplies in a
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
        prod *= batch_offspring_means(batch)
    return total


def coupled_gap_batch(model: ModelSpec, depth: int, rng: RngState, size: int) -> np.ndarray:
    """Thinned term minus multiplicative twin on shared draws.

    Both sides see the same environments xi_0..xi_depth and the same
    immigration B (drawn from xi_depth's law); only the thinning consumes
    extra randomness.  The result is mean-zero, and identically 0 at depth 0.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    gens = [draw_env_batch(model.env, rng, size) for _ in range(depth + 1)]
    b = imm_for_batch(gens[depth], rng)
    prod = np.ones(size, dtype=np.float64)
    for j in range(depth):
        prod *= batch_offspring_means(gens[j])
    v = b.copy()
    for j in range(depth - 1, -1, -1):
        if not v.any():
            break
        v = thin_for_batch(gens[j], v, rng)
        if v.max(initial=0) > OVERFLOW_LIMIT:
            raise OverflowError("thinned term exceeds 2^62; model looks supercritical")
    return v.astype(np.float64) - prod * b.astype(np.float64)
