"""Monte Carlo engine for the branching-with-immigration chain.

Every sampler is vectorized over replicas; a single draw is a batch of one.
A generation's environments arrive as one EnvBatch.  Thinning exploits the
offspring families' summation closure, so one generation costs one draw per
replica no matter how large the population is.  Under an atomic
environment that draw comes from alias tables of each law's x-fold sums for
x < 64 (Walker's method in Vose's construction, 1991): one uniform per
entry, zeros included, in index order.  Populations past a law's tables then
take a numpy parametric draw, one per offspring family over its entries in
numbering order, with parameters gathered per entry from its group; the
continuous environment thins every entry that way, at its own Poisson rate.
Immigration makes one inversion per distinct law.  That order is part of
the stream contract; which entries reach numpy's draw is a deterministic
function of earlier output, so fixed seeds still give fixed results.

Values live in int64 and are guarded against exceeding 2^62: crossing that
limit signals a supercritical misconfiguration, not a sampling regime this
engine supports, and raises OverflowError.
"""

from __future__ import annotations

import functools
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
from .tailstats import threshold_for_level

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

# Alias tables hold rows x = 0 .. ALIAS_ROWS - 1 of each law's x-fold
# offspring sum over columns 0 .. ALIAS_COLS - 1, plus one row past them
# whose cells all send a draw to the numpy route.  Aliases are int8 columns,
# so ALIAS_COLS stays at most 128.
ALIAS_ROWS = 64
ALIAS_COLS = 128
# a row is tabulated while its mass past ALIAS_COLS stays below this share
ALIAS_CUT = 2.0**-50
# a row's weights sum to 2^53, so one cell holds 2^46: the resolution of
# 128 v - j for a uniform v on the grid of 2^-53 that `Generator.random` draws
_CELL = 1 << 46


def _guard(param: np.ndarray) -> np.ndarray:
    if param.size and param.max(initial=0.0) > OVERFLOW_LIMIT:
        raise OverflowError("thinning parameter exceeds 2^62; model looks supercritical")
    return param


def _recurrence_rows(law: OffspringFamily) -> np.ndarray:
    """pmf of the x-fold offspring sum at 0 .. 2 ALIAS_COLS - 1, rows x = 0
    .. ALIAS_ROWS - 1, from each family's own recurrence: p_0 in closed form,
    then p_k = p_(k-1) times mu/k (Poisson, mu = x rate), (N - k + 1) p /
    (k (1 - p)) (binomial, N = x n trials) or (x + k - 1)(1 - p)/k (negative
    binomial).  A row whose p_0 underflows reads 0, and one whose mean
    overflows reads NaN; neither is tabulated."""
    x = np.arange(ALIAS_ROWS, dtype=float)[:, None]
    k = np.arange(1, 2 * ALIAS_COLS, dtype=float)
    draw, each, p = law.x_fold()
    if draw == 0:
        mu = x * p
        head, ratio = np.exp(-mu), mu / k
    elif draw == 2:
        head, ratio = p**x, (x + k - 1.0) * (1.0 - p) / k
    else:
        trials = x * each
        if p == 1.0:
            return (np.arange(2 * ALIAS_COLS) == trials).astype(float)
        head, ratio = (1.0 - p) ** trials, np.maximum(trials - k + 1.0, 0.0) * (p / (1.0 - p)) / k
    return np.cumprod(np.hstack([head, ratio]), axis=1)


def _vose(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table (Vose 1991) of integer weight rows that each
    sum to ALIAS_COLS * _CELL, built in exact integer arithmetic for all rows
    at once: (q, alias), with cell j of a row keeping j with probability q.

    Cells under one share (small) are filled from those at or above it
    (large) in a single pass over the flattened rows.  Lay the smalls'
    deficits end to end and the larges' surpluses likewise; each row's
    deficits and surpluses sum to the same integer, so the two lines meet
    at every row boundary.  A small takes its alias from the large whose
    surplus interval holds the small's start.  A large whose surplus a
    small's deficit overruns by o keeps itself with probability 1 - o / _CELL
    and gives the rest to the next large, which is in the same row.
    """
    flat = weights.ravel()
    small = flat < _CELL
    smalls, larges = np.flatnonzero(small), np.flatnonzero(~small)
    deficit = _CELL - flat[smalls]
    end = np.cumsum(deficit)
    start = end - deficit
    top = np.cumsum(flat[larges] - _CELL)
    alias = np.empty(flat.size, dtype=np.int64)
    alias[smalls] = larges[np.searchsorted(top, start, side="right")]
    last = np.searchsorted(start, top, side="left")  # smalls starting before each top
    over = np.maximum(np.concatenate([[0], end])[last] - top, 0)
    alias[larges] = np.where(over > 0, np.append(larges[1:], larges[-1]), larges)
    q = flat / _CELL
    q[larges] = (_CELL - over) / _CELL
    row_start = np.arange(flat.size) // ALIAS_COLS * ALIAS_COLS
    return q.reshape(weights.shape), (alias - row_start).astype(np.int8).reshape(weights.shape)


@functools.lru_cache(maxsize=64)
def _alias_table(law: OffspringFamily) -> tuple[np.ndarray, np.ndarray]:
    """(q, alias) of `law`, each (ALIAS_ROWS + 1, ALIAS_COLS): the rows up to
    the first whose mass past column ALIAS_COLS - 1 is at least ALIAS_CUT,
    then rows with alias -1 and q 0, which no draw keeps.

    The recurrence runs over 2 ALIAS_COLS columns and a row's in-width mass
    is taken as its share of them, so the rounding of p_0, which scales a
    whole row, cancels.  Every x-fold law here is log-concave, so P(X >= 256)
    <= P(X >= 128)^2 and the second window holds all but a negligible part
    of the mass past the width.  A kept row is scaled to integer weights
    summing to 2^53, floored, with the remainder given to its largest cell.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _recurrence_rows(law)
        inside = rows[:, :ALIAS_COLS].sum(axis=1)
        kept = (inside >= (1.0 - ALIAS_CUT) * rows.sum(axis=1)) & (inside > 0.0)
    n = ALIAS_ROWS if kept.all() else int(np.argmin(kept))
    weights = np.floor(rows[:n, :ALIAS_COLS] / inside[:n, None] * 2.0**53).astype(np.int64)
    weights[np.arange(n), weights.argmax(axis=1)] += (ALIAS_COLS * _CELL) - weights.sum(axis=1)
    q = np.zeros((ALIAS_ROWS + 1, ALIAS_COLS))
    alias = np.full((ALIAS_ROWS + 1, ALIAS_COLS), -1, dtype=np.int8)
    q[:n], alias[:n] = _vose(weights)
    return q, alias


@functools.lru_cache(maxsize=16)
def _batch_tables(laws: tuple[OffspringFamily, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The alias tables of a batch's groups stacked in group order and
    flattened, with j + q[x, j] in place of q.  Both terms sit on the grid of
    2^-46 below 2^7, so the sum is exact and 128 v < j + q holds exactly
    where 128 v - j < q does."""
    tables = [_alias_table(law) for law in laws]
    threshold = np.concatenate([(q + np.arange(ALIAS_COLS)).ravel() for q, _ in tables])
    return threshold, np.concatenate([alias.ravel() for _, alias in tables])


def _thin_past_table(batch: EnvBatch, x: np.ndarray, group: np.ndarray, rng: RngState) -> np.ndarray:
    """numpy's draw of each entry's x-fold sum: one draw per kind of
    `OffspringFamily.x_fold`, in numbering order, with parameters gathered
    per entry from its group."""
    draw, n, p = (np.array(col) for col in zip(*(law.x_fold() for law, _ in batch.laws)))
    out = np.empty_like(x)
    entry_draw = draw[group]
    for d in np.unique(entry_draw):
        sel = entry_draw == d
        xd, nd, pd = x[sel], n[group[sel]], p[group[sel]]
        if d == 0:
            out[sel] = rng.gen.poisson(_guard(pd * xd))
        elif d == 1:
            if nd.max() > 1:  # bernoulli draws cannot outgrow x
                _guard(nd * xd.astype(float))
            out[sel] = rng.gen.binomial(nd * xd, pd)
        else:
            # numpy raises ValueError where (1 - p)/p (x + 10 sqrt(x)), its
            # bound on the Poisson mean of the gamma mixture, nears 2^63;
            # the bound exceeds the mean x (1 - p)/p, so guard the bound
            _guard((1.0 - pd) / pd * (xd + 10.0 * np.sqrt(xd)))
            out[sel] = rng.gen.negative_binomial(xd, pd)
    return out


def thin_for_batch(batch: EnvBatch, values: np.ndarray, rng: RngState) -> np.ndarray:
    """One thinning stage under per-replica environments.

    Atomic groups draw from their laws' alias tables: one uniform v per
    entry, zeros included, in index order; the cell is j = floor(128 v), and
    the draw is j if 128 v - j < q[x, j], else alias[x, j].  Entries past
    their law's last tabulated row then take numpy's draw, one per kind of
    `OffspringFamily.x_fold` in numbering order, with each guarded against
    2^62.  The continuous group has no table and draws Poisson at each
    entry's own mean over all entries.

    The bound on a tabulated row.  With v on the grid of 2^-53, 128 v - j
    takes each multiple of 2^-46 in [0, 1) once, so a cell keeps j with
    probability exactly q: the sampler draws the integer weights w / 2^53
    exactly.  Flooring them moves less than 2^-46 of mass in total.  The
    recurrence adds at most 5 e (e = 2^-53) of relative error per step to
    p_k, and the rescaling, a pairwise sum and a division, at most 9 e more,
    so the rows carry a relative error below 127 * 5 e + 9 e < 2^-43.  The
    share cut leaves out under 2^-50.  A tabulated row is thus within
    2^-43 + 2^-46 + 2^-50 < 1.3e-13 in total variation of the exact x-fold
    law.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("population sizes must be >= 0")
    if batch.rates is not None:
        return rng.gen.poisson(_guard(batch.means * values))
    threshold, alias = _batch_tables(tuple(law for law, _ in batch.laws))
    t = rng.gen.random(values.shape) * ALIAS_COLS
    j = t.astype(np.int64)
    cell = np.minimum(values, ALIAS_ROWS)
    if len(batch.laws) > 1:
        cell += batch.group * (ALIAS_ROWS + 1)
    cell *= ALIAS_COLS
    cell += j
    out = np.where(t < threshold.take(cell), j, alias.take(cell))
    past = out < 0
    if past.any():
        out[past] = _thin_past_table(batch, values[past], batch.group[past], rng)
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
    checked candidate outside its bracket is drawn again by
    `tailstats.threshold_for_level`, whose search also finds the bracket
    where S rounds to one value over many x.

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
        cand[near[off]] = threshold_for_level(functools.partial(immigration_survival, law), v[off])
    return cand


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
    return threshold_for_level(functools.partial(immigration_survival, law), u)


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
    """Smallest K with r^(K+1) / (1 - r) <= epsilon, r = E[m(xi)^kappa],
    epsilon in (0, 1], found by `tailstats.threshold_for_level` on that
    bound as it evaluates in float64.

    The geometric bound dominates the summed tail mass dropped by stopping
    the backward sum at K terms.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    r = kappa_moment(model.env, model.kappa)
    if not r < 1.0:
        raise NotSubcritical(f"E[m^kappa] = {r!r} >= 1")
    return threshold_for_level(lambda k: r ** (k + 1.0) / (1.0 - r), epsilon)


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
