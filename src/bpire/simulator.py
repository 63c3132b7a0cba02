"""Monte Carlo engine for the branching-with-immigration chain.

Every sampler is vectorized over replicas; a single draw is a batch of one.
A generation's environments arrive as one EnvBatch.  Thinning exploits the
offspring families' summation closure, so one generation costs one
parametric draw per replica no matter how large the population is; it makes
one such draw per offspring family over that family's entries, with
parameters gathered per entry from its group, and immigration makes one
inversion per distinct law.  That order is part of the stream contract.
Entries at zero consume no randomness in a thinning stage; the draws
skipped that way are a deterministic function of earlier output, so fixed
seeds still give fixed results.

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
    "random_sum_batch",
    "composed_thinning_batch",
    "unit_progeny_batch",
    "grey_sum_batch",
    "write_samples_text",
]

OVERFLOW_LIMIT = 1 << 62


# ---- thinning -------------------------------------------------------------

def _guard(param: np.ndarray) -> np.ndarray:
    if param.size and param.max(initial=0.0) > OVERFLOW_LIMIT:
        raise OverflowError("thinning parameter exceeds 2^62; model looks supercritical")
    return param


def _draw_params(law: OffspringFamily | None) -> tuple[int, int, float]:
    """(draw, n, p) of a group's x-fold offspring sum: draw 0 is Poisson at
    p * x, 1 is binomial(n * x, p) and 2 negative binomial(x, p).  The
    continuous group has no law and is Poisson at each draw's own mean."""
    if law is None:
        return 0, 0, np.nan
    if law.kind == "poisson":
        return 0, 0, law.rate
    if law.kind == "geometric0":
        return 2, 0, law.p
    return 1, law.n if law.kind == "binomial" else 1, law.p


def thin_for_batch(batch: EnvBatch, values: np.ndarray, rng: RngState) -> np.ndarray:
    """One thinning stage under per-replica environments.

    One parametric draw per kind of `_draw_params` in use, over the nonzero
    entries of every group of that kind; parameters are scalars when one
    group has the kind and are gathered per entry from its group otherwise.
    The kinds draw in numbering order, which is part of the stream contract.
    Poisson offspring alone draw over all entries with no mask.  Entries
    with value 0 stay 0 and consume no randomness.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("population sizes must be >= 0")
    draw, n, p = (np.array(col) for col in zip(*(_draw_params(law) for law, _ in batch.laws)))
    if not draw.any():
        return rng.gen.poisson(_guard(batch.means * values))
    out = np.zeros_like(values)
    active = values > 0
    kinds = np.unique(draw)
    entry_draw = draw[batch.group] if kinds.size > 1 else None
    for d in kinds:
        sel = active if entry_draw is None else active & (entry_draw == d)
        x = values[sel]
        groups = np.flatnonzero(draw == d)
        if groups.size == 1:
            nd, pd = n[groups[0]], p[groups[0]]
        else:
            nd, pd = n[batch.group[sel]], p[batch.group[sel]]
        if d == 0:
            out[sel] = rng.gen.poisson(_guard(pd * x))
        elif d == 1:
            if n[groups].max() > 1:  # bernoulli draws cannot outgrow x
                _guard(nd * x.astype(float))
            out[sel] = rng.gen.binomial(nd * x, pd)
        else:
            # numpy raises ValueError where (1 - p)/p (x + 10 sqrt(x)), its
            # bound on the Poisson mean of the gamma mixture, nears 2^63;
            # the bound exceeds the mean x (1 - p)/p, so guard the bound
            _guard((1.0 - pd) / pd * (x + 10.0 * np.sqrt(x)))
            out[sel] = rng.gen.negative_binomial(x, pd)
    return out


# ---- immigration -----------------------------------------------------------

def _survival_adjust(law: ImmigrationFamily, cand: np.ndarray, u: np.ndarray, t: np.ndarray, tol: float) -> np.ndarray:
    """Closed-form candidates `cand` corrected, in place, to the x >= 0 with
    S(x) <= u and, past x = 0, u < S(x - 1), S as `immigration_survival`
    evaluates it.

    `t` is the real closed form the candidate rounds.  The candidate can be
    off only where t lies within float error of an integer, so only the
    entries with |t - rint(t)| <= tol (1 + |t|) are checked, by evaluating S
    on both sides of the candidate; exact hits S(x) == u belong to x.  Every
    t >= 2^52 is an integer and so is checked.  A NaN t is checked too.  A
    checked candidate outside its bracket is drawn again by bisection, which
    also finds the bracket where S rounds to one value over many x.

    The bound, for u >= 2^-53 (the least `uniform_open` returns) and unit
    roundoff e = 2^-53.  dpareto: c/u is off by a relative e, which the
    power 1/kappa turns into e/kappa; pow adds 2e and the subtraction of 1
    adds e (1 + |t|), so t is off by at most (1/kappa + 3) e (1 + |t|).  An
    x at least tol (1 + |t|) clear of t, with tol = 2^-32 (1 + 1/kappa),
    puts c (1 + x)^-kappa a relative kappa tol / 2 = 2^-33 (kappa + 1) or
    more away from u, far above the 3e that pow and the product leave in
    the evaluated S, whatever kappa is.  geometric0: S is
    exp((x + 1) L) with L = log1p(-p), the L that t = log(u) / L divides
    by, so t is off by a relative 2e; the product and exp leave log S off
    by e |(x + 1) L| + e.  An x + 1 at least tol (1 + |t|) clear of t, with
    tol = 2^-32 (1 + 1/|L|), puts log S at least 2^-32 (|L| + 1) (1 + |t|)
    away from log u, far above those errors.
    """
    near = np.flatnonzero(~(np.abs(t - np.rint(t)) > tol * (1.0 + np.abs(t))))
    x, v = cand[near], u[near]
    off = (immigration_survival(law, x) > v) | ((x > 0) & (immigration_survival(law, x - 1) <= v))
    if off.any():
        cand[near[off]] = _invert_by_bisection(law, v[off])
    return cand


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
        # S(2^62) > u: the draw is past 2^62, and doubling would wrap int64
        if hi[grow].max() >= OVERFLOW_LIMIT:
            raise OverflowError("immigration draw exceeds 2^62")
        lo[grow] = hi[grow]
        hi[grow] *= 2
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


def _guard_draw(t: np.ndarray) -> np.ndarray:
    """A closed form's real draws, refused before the int64 cast if past 2^62."""
    if t.max(initial=0.0) > OVERFLOW_LIMIT:
        raise OverflowError("immigration draw exceeds 2^62")
    return t


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
        t = _guard_draw(np.log(u) / math.log1p(-law.p))
        cand = np.floor(t).astype(np.int64)
        np.clip(cand, 0, None, out=cand)
        return _survival_adjust(law, cand, u, t, 2.0**-32 * (1.0 - 1.0 / math.log1p(-law.p)))
    # dpareto
    if law.beta == 0.0:
        # a small kappa overflows the power to inf, which _guard_draw refuses
        with np.errstate(over="ignore"):
            t = _guard_draw((law.c / u) ** (1.0 / law.kappa) - 1.0)
        cand = np.ceil(np.maximum(t, 0.0)).astype(np.int64)
        return _survival_adjust(law, cand, u, t, 2.0**-32 * (1.0 + 1.0 / law.kappa))
    return _invert_by_bisection(law, u)


def imm_for_batch(batch: EnvBatch, rng: RngState) -> np.ndarray:
    """Immigration per draw under per-replica environments: one inversion
    per distinct immigration law, over the draws of every group that has
    it, in order of first appearance among the groups."""
    laws = [immigration for _, immigration in batch.laws]
    distinct = list(dict.fromkeys(laws))
    if len(distinct) == 1:
        return sample_immigration_batch(distinct[0], rng, batch.group.size)
    out = np.zeros(batch.group.shape, dtype=np.int64)
    for law in distinct:
        sel = np.isin(batch.group, [j for j, other in enumerate(laws) if other == law])
        out[sel] = sample_immigration_batch(law, rng, int(np.count_nonzero(sel)))
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
    the term-by-term sum T_0(... T_{i-1}(B_i)) over i <= K in law, with one
    thinning per generation instead of one per term and shallower
    generation; the tests keep the term-by-term sum as an independent route.
    """
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    return simulate_forward_batch(0, trunc + 1, model.env, rng, size)


# ---- one-shot samplers for the limit-constant experiments ---------------------

def random_sum_batch(model: ModelSpec, b_law: ImmigrationFamily, rng: RngState, size: int) -> np.ndarray:
    """Draws of sum_{i<=B} A_i: environment, then B from the designated law
    independent of it, then one thinning."""
    stage = draw_env_batch(model.env, rng, size)
    b = sample_immigration_batch(b_law, rng, size)
    return thin_for_batch(stage, b, rng)


def _thin_live(model: ModelSpec, v: np.ndarray, depth: int, rng: RngState) -> np.ndarray:
    """`v` pushed through `depth` fresh environments, drawn and thinned for
    the entries still above zero only."""
    live = np.flatnonzero(v)
    x = v[live]
    for _ in range(depth):
        if not x.size:
            break
        x = thin_for_batch(draw_env_batch(model.env, rng, x.size), x, rng)
        keep = x > 0
        live, x = live[keep], x[keep]
    out = np.zeros_like(v)
    out[live] = x
    return out


def composed_thinning_batch(model: ModelSpec, depth: int, rng: RngState, size: int) -> np.ndarray:
    """Immigration pushed through `depth` fresh environments (marginal of a
    single backward term, environments NOT shared with anything else)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _thin_live(model, imm_for_batch(draw_env_batch(model.env, rng, size), rng), depth, rng)


def unit_progeny_batch(model: ModelSpec, depth: int, rng: RngState, size: int) -> np.ndarray:
    """Population left after pushing one individual through `depth` fresh
    environments with no immigration; its moments decay geometrically in
    depth for subcritical models."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _thin_live(model, np.ones(size, dtype=np.int64), depth, rng)


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
