"""Monte Carlo engine for the branching-with-immigration chain.

Every sampler is vectorized over replicas; a single draw is a batch of one.
A generation's environments arrive as one EnvBatch; thinning and
immigration run over its groups in group order, which is part of the stream
contract.  Thinning exploits the offspring families' summation closure, so one
generation costs one parametric draw per replica no matter how large the
population is.  Entries at zero consume no randomness in a thinning stage;
the draws skipped that way are a deterministic function of earlier output,
so fixed seeds still give fixed results.

Values live in int64 and are guarded against exceeding 2^62: crossing that
limit signals a supercritical misconfiguration, not a sampling regime this
engine supports, and raises OverflowError.
"""

from __future__ import annotations

import math

import numpy as np

from .env_model import (
    EnvBatch,
    EnvSpec,
    ImmigrationFamily,
    ModelSpec,
    OffspringFamily,
    draw_env_batch,
    immigration_survival,
    kappa_moment,
)
from .errors import NotSubcritical
from .rng import RngState

__all__ = [
    "sample_immigration_batch",
    "imm_for_batch",
    "thin_for_batch",
    "choose_truncation",
    "sample_stationary_backward_batch",
    "backward_terms",
    "random_sum_batch",
    "composed_thinning_batch",
    "unit_progeny_batch",
    "grey_sum_batch",
    "write_samples_text",
]

OVERFLOW_LIMIT = 1 << 62


# ---- thinning -------------------------------------------------------------

def _poisson(lam: np.ndarray, rng: RngState) -> np.ndarray:
    if lam.size and lam.max(initial=0.0) > OVERFLOW_LIMIT:
        raise OverflowError("thinning parameter exceeds 2^62; model looks supercritical")
    return rng.gen.poisson(lam).astype(np.int64)


def thin_batch(law: OffspringFamily, xs: np.ndarray, rng: RngState) -> np.ndarray:
    """One draw of the xs-fold offspring sum per entry under one fixed law,
    sampled as a single closed-family draw."""
    xs = np.asarray(xs, dtype=np.int64)
    if np.any(xs < 0):
        raise ValueError("population sizes must be >= 0")
    if law.kind == "poisson":
        return _poisson(law.rate * xs.astype(float), rng)
    if law.kind == "bernoulli":
        return rng.gen.binomial(xs, law.p).astype(np.int64)
    if law.kind == "geometric0":
        out = np.zeros(xs.shape, dtype=np.int64)
        if law.p == 1.0:
            return out
        pos = xs > 0
        if pos.any():
            out[pos] = rng.gen.negative_binomial(xs[pos], law.p)
        return out
    # binomial
    ntot = xs.astype(float) * law.n
    if ntot.size and ntot.max(initial=0.0) > OVERFLOW_LIMIT:
        raise OverflowError("thinning parameter exceeds 2^62; model looks supercritical")
    return rng.gen.binomial(xs * law.n, law.p).astype(np.int64)


def thin_for_batch(batch: EnvBatch, values: np.ndarray, rng: RngState) -> np.ndarray:
    """One thinning stage under per-replica environments.

    Entries with value 0 stay 0 and consume no randomness.  Draws are thinned
    group by group in the batch's group order, which is part of the stream
    contract; a group without an offspring law is Poisson at each draw's
    own mean.
    """
    values = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(values)
    active = values > 0
    for j, (offspring, _) in enumerate(batch.laws):
        sel = active & (batch.group == j)
        if not sel.any():
            continue
        if offspring is None:
            out[sel] = _poisson(batch.means[sel] * values[sel].astype(float), rng)
        else:
            out[sel] = thin_batch(offspring, values[sel], rng)
    return out


# ---- immigration -----------------------------------------------------------

def _survival_adjust(law: ImmigrationFamily, cand: np.ndarray, u: np.ndarray) -> np.ndarray:
    # closed-form inversion can land one off at float boundaries; fix by
    # checking S on both sides of the candidate.  Exact hits S(x) == u
    # belong to x, so the closed form is already right on its boundary.
    s = immigration_survival(law, cand)
    cand = np.where(s > u, cand + 1, cand)
    down = (cand > 0) & (immigration_survival(law, cand - 1) <= u)
    return np.where(down, cand - 1, cand)


def _invert_by_bisection(law: ImmigrationFamily, u: np.ndarray) -> np.ndarray:
    """Smallest x >= 0 with S(x) <= u, by doubling then integer bisection."""
    n = u.size
    out = np.zeros(n, dtype=np.int64)
    need = np.asarray(immigration_survival(law, np.zeros(n)) > u)
    if not need.any():
        return out
    lo = np.zeros(n, dtype=np.int64)
    hi = np.ones(n, dtype=np.int64)
    grow = need & (immigration_survival(law, hi) > u)
    while grow.any():
        lo[grow] = hi[grow]
        hi[grow] *= 2
        if hi.max(initial=0) > OVERFLOW_LIMIT:
            raise OverflowError("immigration draw exceeds 2^62")
        grow = grow & (immigration_survival(law, hi) > u)
    # invariant: S(lo) > u >= S(hi) wherever `need`
    span = need & (hi - lo > 1)
    while span.any():
        mid = (lo + hi) // 2
        below = immigration_survival(law, mid) <= u
        hi = np.where(span & below, mid, hi)
        lo = np.where(span & ~below, mid, lo)
        span = need & (hi - lo > 1)
    out[need] = hi[need]
    return out


def sample_immigration_batch(law: ImmigrationFamily, rng: RngState, size: int) -> np.ndarray:
    """Inversion sampling: B = min{x >= 0 : S(x) <= U}, U uniform on (0, 1].

    One uniform is consumed per draw for every family, so stream positions do
    not depend on which law is in force.
    """
    u = rng.uniform_open(size)
    if law.kind == "constant":
        return np.full(size, law.b, dtype=np.int64)
    if law.kind == "bernoulli":
        return (u < law.q).astype(np.int64)
    if law.kind == "geometric0":
        if law.p == 1.0:
            return np.zeros(size, dtype=np.int64)
        cand = np.floor(np.log(u) / math.log1p(-law.p)).astype(np.int64)
        np.clip(cand, 0, None, out=cand)
        return _survival_adjust(law, cand, u)
    # dpareto
    if law.beta == 0.0:
        t = (law.c / u) ** (1.0 / law.kappa) - 1.0
        if t.size and t.max(initial=0.0) > OVERFLOW_LIMIT:
            raise OverflowError("immigration draw exceeds 2^62")
        cand = np.ceil(np.maximum(t, 0.0)).astype(np.int64)
        return _survival_adjust(law, cand, u)
    return _invert_by_bisection(law, u)


def imm_for_batch(batch: EnvBatch, rng: RngState) -> np.ndarray:
    """Immigration per draw under per-replica environments, group by group
    in the batch's group order."""
    out = np.zeros(batch.group.shape, dtype=np.int64)
    for j, (_, immigration) in enumerate(batch.laws):
        sel = batch.group == j
        cnt = int(sel.sum())
        if cnt:
            out[sel] = sample_immigration_batch(immigration, rng, cnt)
    return out


# ---- chain steps ------------------------------------------------------------

def step_batch(values: np.ndarray, env: EnvSpec, rng: RngState) -> np.ndarray:
    """One generation for a vector of replicas under fresh environments."""
    batch = draw_env_batch(env, rng, np.asarray(values).size)
    return thin_for_batch(batch, values, rng) + imm_for_batch(batch, rng)


def simulate_forward_batch(x0: int, steps: int, env: EnvSpec, rng: RngState, size: int) -> np.ndarray:
    """Terminal values of `size` independent forward trajectories."""
    v = np.full(size, int(x0), dtype=np.int64)
    for _ in range(steps):
        v = step_batch(v, env, rng)
        if v.max(initial=0) > OVERFLOW_LIMIT:
            raise OverflowError("population exceeds 2^62; model looks supercritical")
    return v


# ---- stationary sampling -----------------------------------------------------

def choose_truncation(model: ModelSpec, epsilon: float) -> int:
    """Smallest K with r^(K+1) / (1 - r) <= epsilon, r = E[m(xi)^kappa].

    The geometric bound dominates the summed tail mass dropped by stopping
    the backward sum at K terms.
    """
    if not (0.0 < epsilon):
        raise ValueError("epsilon must be > 0")
    r = kappa_moment(model.env, model.kappa)
    if not r < 1.0:
        raise NotSubcritical(f"E[m^kappa] = {r!r} >= 1")
    if r == 0.0:
        return 0
    k = max(0, math.ceil(math.log(epsilon * (1.0 - r)) / math.log(r)) - 1)
    while k > 0 and r**k / (1.0 - r) <= epsilon:
        k -= 1
    while r ** (k + 1) / (1.0 - r) > epsilon:
        k += 1
    return k


def sample_stationary_backward_batch(model: ModelSpec, trunc: int, rng: RngState, size: int) -> np.ndarray:
    """`size` draws of the K-truncated backward sum (stationary law up to
    truncation bias bounded by choose_truncation's epsilon).

    Built in nested form B_0 + T_0(B_1 + T_1(... + T_{K-1}(B_K))), T_j the
    thinning under generation j's environment: K + 1 forward steps from 0.
    Individuals thin independently given the environment, so this equals
    the term-by-term sum of `backward_terms` in law, with one thinning per
    generation instead of one per term and shallower generation.
    """
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    return simulate_forward_batch(0, trunc + 1, model.env, rng, size)


def backward_terms(model: ModelSpec, trunc: int, rng: RngState, size: int) -> np.ndarray:
    """(K+1, size) matrix of individual backward terms; rows share their
    environment draws, so cumulative sums over rows are the partial sums.
    Term i is T_0(... T_{i-1}(B_i)) on its own: the independent route to
    the law of `sample_stationary_backward_batch`."""
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    # environments for generations 0..K drawn first and shared by every term;
    # term i is the immigration of generation i pushed through generations
    # i-1 down to 0, innermost first
    gens = [draw_env_batch(model.env, rng, size) for _ in range(trunc + 1)]
    terms = np.zeros((trunc + 1, size), dtype=np.int64)
    total = np.zeros(size, dtype=np.int64)
    for i in range(trunc + 1):
        v = imm_for_batch(gens[i], rng)
        for j in range(i - 1, -1, -1):
            if not v.any():
                break
            v = thin_for_batch(gens[j], v, rng)
        terms[i] = v
        total += v
        if total.max(initial=0) > OVERFLOW_LIMIT:
            raise OverflowError("backward sum exceeds 2^62; model looks supercritical")
    return terms


# ---- one-shot samplers for the limit-constant experiments ---------------------

def random_sum_batch(model: ModelSpec, b_law: ImmigrationFamily, rng: RngState, size: int) -> np.ndarray:
    """Draws of sum_{i<=B} A_i: environment, then B from the designated law
    independent of it, then one thinning."""
    stage = draw_env_batch(model.env, rng, size)
    b = sample_immigration_batch(b_law, rng, size)
    return thin_for_batch(stage, b, rng)


def composed_thinning_batch(model: ModelSpec, depth: int, rng: RngState, size: int) -> np.ndarray:
    """Immigration pushed through `depth` fresh environments (marginal of a
    single backward term, environments NOT shared with anything else)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    gen_b = draw_env_batch(model.env, rng, size)
    v = imm_for_batch(gen_b, rng)
    for _ in range(depth):
        if not v.any():
            break
        stage = draw_env_batch(model.env, rng, size)
        v = thin_for_batch(stage, v, rng)
    return v


def unit_progeny_batch(model: ModelSpec, depth: int, rng: RngState, size: int) -> np.ndarray:
    """Population left after pushing one individual through `depth` fresh
    environments with no immigration; its moments decay geometrically in
    depth for subcritical models."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    v = np.ones(size, dtype=np.int64)
    for _ in range(depth):
        if not v.any():
            break
        stage = draw_env_batch(model.env, rng, size)
        v = thin_for_batch(stage, v, rng)
    return v


def grey_sum_batch(model: ModelSpec, n_law: ImmigrationFamily, rng: RngState, size: int) -> np.ndarray:
    """Draws of B + sum_{i<=N} A_i with B coupled to the environment and N
    independent heavy-tailed."""
    stage = draw_env_batch(model.env, rng, size)
    b = imm_for_batch(stage, rng)
    n = sample_immigration_batch(n_law, rng, size)
    return b + thin_for_batch(stage, n, rng)


# ---- sample dumps --------------------------------------------------------------

def write_samples_text(path, samples) -> None:
    """One sample per line, as a decimal integer."""
    arr = np.asarray(samples)
    if not np.issubdtype(arr.dtype, np.integer) or (arr.size and arr.min() < 0):
        raise ValueError("sample dumps hold integers >= 0")
    with open(path, "w") as fh:
        fh.writelines(f"{int(v)}\n" for v in arr)
