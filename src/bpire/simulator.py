"""Monte Carlo engine for the branching-with-immigration chain.

Every sampler is vectorized over replicas; a single draw is a batch of one.
A generation's environments arrive as one EnvBatch of immigration groups.
Thinning exploits the offspring families' summation closure, so one
generation costs one draw per replica no matter how large the population
is.  Under an atomic environment that draw comes from alias tables of each
group's x-fold sums for x < 64 (Walker's method in Vose's construction,
1991), of its atoms' offspring mixture where it has several: one uniform per
entry, zeros included, in index order.  Populations past a group's tables
then resolve their atom, one uniform per entry in a group of several atoms,
and take a numpy parametric draw, one per offspring family over its entries
in numbering order, with parameters gathered per entry from its atom; the
continuous environment thins every entry that way, at its own Poisson rate.
Immigration makes one inversion per distinct law.

A generation step under an atomic environment draws T(x) + B at once from a
step table of each group, the same rows convolved with its immigration pmf
plus one tail cell for B >= 128: one uniform per entry.  Only populations
past the rows and draws in the tail cell then take the two stages above,
thinning and one immigration uniform each.  A step draws its environments
and table draws in slices of _BLOCK entries, which keeps its temporaries
small, and finishes the unfinished entries of all slices in one pass, so
the stationary sampler steps a whole chunk at once and pays numpy's fixed
cost per call once per generation.  That order is part of the stream
contract; which entries reach the later stages is a deterministic function
of earlier output, so fixed seeds still give fixed results.

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
    EnvGroup,
    EnvSpec,
    ImmigrationFamily,
    ModelSpec,
    OffspringFamily,
    _atom_table,
    atom_index,
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
# replicas a chunk's sampler call, or a step's slice, draws at once: a
# block's float64 temporaries (64 KB) stay below glibc's 128 KB mmap
# threshold, so the heap reuses them instead of mapping and faulting in
# fresh pages for every array
_BLOCK = 8192


# ---- thinning -------------------------------------------------------------

# Alias tables hold rows x = 0 .. ALIAS_ROWS - 1 of each law's x-fold
# offspring sum over columns 0 .. ALIAS_COLS - 1, plus one row past them
# whose cells all send a draw to the numpy route.  A group's step tables hold
# the same rows over STEP_COLS outcomes: T(x) + B at 0 .. STEP_COLS - 2, and
# the tail cell _TAIL for B >= ALIAS_COLS.
ALIAS_ROWS = 64
ALIAS_COLS = 128
STEP_COLS = 2 * ALIAS_COLS
_TAIL = STEP_COLS - 1
# a row is tabulated while its mass past ALIAS_COLS stays below this share
ALIAS_CUT = 2.0**-50
# a row's integer weights sum to 2^53, the grid of `Generator.random`
_ROW_TOTAL = 1 << 53


def _guard(param: np.ndarray) -> np.ndarray:
    if param.size and param.max(initial=0.0) > OVERFLOW_LIMIT:
        raise OverflowError("thinning parameter exceeds 2^62; model looks supercritical")
    return param


def _recurrence_rows(law: OffspringFamily) -> np.ndarray:
    """pmf of the x-fold offspring sum at 0 .. 2 ALIAS_COLS - 1, rows x = 0
    .. ALIAS_ROWS - 1, from each family's own recurrence: p_0 in closed form,
    then p_k = p_(k-1) times mu/k (Poisson, mu = x rate), (N - k + 1) p /
    (k (1 - p)) (binomial, N = x n trials) or (x + k - 1)(1 - p)/k (negative
    binomial).  A binomial with p > 1/2 runs down instead, from p_N = p^N by
    p_(k-1) = p_k k (1 - p) / ((N - k + 1) p), so that a p near 1 cannot
    underflow p_0 = (1 - p)^N; its rows past N < 2 ALIAS_COLS read NaN, and
    hold at least half their mass past ALIAS_COLS anyway.  A row whose head
    underflows reads 0, and one whose mean overflows reads NaN; neither is
    tabulated."""
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
        if p > 0.5:
            down = np.where(k <= trials, k * ((1.0 - p) / p) / np.maximum(trials - k + 1.0, 1.0), 1.0)
            rows = np.cumprod(np.hstack([p**trials, down[:, ::-1]]), axis=1)[:, ::-1]
            return np.where(trials < 2 * ALIAS_COLS, np.where(np.append(0.0, k) <= trials, rows, 0.0), np.nan)
        head, ratio = (1.0 - p) ** trials, np.maximum(trials - k + 1.0, 0.0) * (p / (1.0 - p)) / k
    return np.cumprod(np.hstack([head, ratio]), axis=1)


def _vose(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table (Vose 1991) of probability rows over c
    columns: (q, alias), with cell j of a row keeping j with probability q
    and giving the rest to alias, a column of the same row.

    Each row is scaled to integer weights summing to 2^53, floored, with the
    remainder given to its largest cell; one cell then holds 2^53 / c.  The
    table is built from them in exact integer arithmetic for all rows at
    once.  Cells under one share (small) are filled from those at or above
    it (large) in a single pass over the flattened rows.  Lay the smalls'
    deficits end to end and the larges' surpluses likewise; each row's
    deficits and surpluses sum to the same integer, so the two lines meet
    at every row boundary.  A small takes its alias from the large whose
    surplus interval holds the small's start.  A large whose surplus a
    small's deficit overruns by o keeps itself with probability 1 - o / cell
    and gives the rest to the next large, which is in the same row.
    """
    n, cols = rows.shape
    cell = _ROW_TOTAL // cols
    weights = np.floor(rows * float(_ROW_TOTAL)).astype(np.int64)
    weights[np.arange(n), weights.argmax(axis=1)] += _ROW_TOTAL - weights.sum(axis=1)
    flat = weights.ravel()
    small = flat < cell
    smalls, larges = np.flatnonzero(small), np.flatnonzero(~small)
    deficit = cell - flat[smalls]
    end = np.cumsum(deficit)
    start = end - deficit
    top = np.cumsum(flat[larges] - cell)
    alias = np.empty(flat.size, dtype=np.int64)
    alias[smalls] = larges[np.searchsorted(top, start, side="right")]
    last = np.searchsorted(start, top, side="left")  # smalls starting before each top
    over = np.maximum(np.concatenate([[0], end])[last] - top, 0)
    alias[larges] = np.where(over > 0, np.append(larges[1:], larges[-1]), larges)
    q = flat / cell
    q[larges] = (cell - over) / cell
    alias -= np.arange(flat.size) // cols * cols
    return q.reshape(n, cols), alias.reshape(n, cols)


def _padded_table(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_vose` of the probability rows, followed by rows of alias -1 and q 0,
    which no draw keeps, up to ALIAS_ROWS + 1 rows."""
    n, cols = rows.shape
    q = np.zeros((ALIAS_ROWS + 1, cols))
    alias = np.full((ALIAS_ROWS + 1, cols), -1, dtype=np.int64)
    q[:n], alias[:n] = _vose(rows)
    return q, alias


def _mixture_rows(offspring: tuple[OffspringFamily, ...], weights: tuple[float, ...]) -> np.ndarray:
    """pmf rows of the mixture of the laws `offspring` with `weights`
    (summing to 1) over columns 0 .. ALIAS_COLS - 1, for x = 0 up to the
    first row where some law's mass past column ALIAS_COLS - 1 is at least
    ALIAS_CUT.

    Each law's recurrence runs over 2 ALIAS_COLS columns and a row's in-width
    mass is taken as its share of them, so the rounding of p_0, which scales
    a whole row, cancels.  Every x-fold law here is log-concave, so P(X >=
    256) <= P(X >= 128)^2 and the second window holds all but a negligible
    part of the mass past the width.  A mixture row is each law's in-width
    row, divided by its in-width mass, weighted and summed; it is kept only
    where every law's own row would be, since a law's row that underflows
    to 0, reads NaN or spills past the width would lose that law's mass in
    the sum unseen.  So a mixture tabulates only as many rows as its widest
    law allows, and its populations past them take numpy's draw of their
    own atom.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [_recurrence_rows(law) for law in offspring]
        inside = [r[:, :ALIAS_COLS].sum(axis=1) for r in rows]
        kept = np.logical_and.reduce([(i >= (1.0 - ALIAS_CUT) * r.sum(axis=1)) & (i > 0.0) for r, i in zip(rows, inside)])
    n = ALIAS_ROWS if kept.all() else int(np.argmin(kept))
    return sum(w * (r[:n, :ALIAS_COLS] / i[:n, None]) for w, r, i in zip(weights, rows, inside))


@functools.lru_cache(maxsize=64)
def _alias_table(offspring: tuple[OffspringFamily, ...], weights: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(q, alias) of the mixture's thinning rows (`_mixture_rows`), each
    (ALIAS_ROWS + 1, ALIAS_COLS): the kept rows, then rows no draw keeps."""
    return _padded_table(_mixture_rows(offspring, weights))


def _step_table(group: EnvGroup) -> tuple[np.ndarray, np.ndarray]:
    """(q, alias) of one generation step T(x) + B in an atomic `group`, each
    (ALIAS_ROWS + 1, STEP_COLS): the rows x its thinning table keeps, then
    rows no draw keeps.  Outcome k < _TAIL is the step's value k: the
    mixture row over 0 .. ALIAS_COLS - 1 (`_mixture_rows`) convolved with the
    immigration pmf S(k - 1) - S(k) at 0 .. ALIAS_COLS - 1.  The tail cell
    _TAIL holds S(ALIAS_COLS - 1), the mass of B >= ALIAS_COLS; given x and
    the group, T and B are independent, so a draw there takes the whole
    x-fold mixture and B conditioned on B >= ALIAS_COLS.

    The bound on a row, against the exact mixture convolved with the pmf
    that `immigration_survival` evaluates, in total variation.  The mixture
    row is within 2^-43 + 2^-50 of the exact mixture, mass past the width
    included (`thin_for_batch`), and convolving both with one pmf does not
    widen that gap.  Each convolved value sums at most 128 nonnegative
    products, so its relative rounding is at most 128 e (e = 2^-53): 2^-46
    in total.  Scaling to integer weights moves under 2^-45 (`_vose`), and
    the draw then takes them exactly: with v on the grid of 2^-53, 256 v - j
    takes each multiple of 2^-45 in [0, 1) once.  A row is thus within
    2^-43 + 2^-45 + 2^-46 + 2^-50 < 1.6e-13 of the exact step law.
    """
    rows = _mixture_rows(group.offspring, group.weights)
    s = immigration_survival(group.immigration, np.arange(-1, ALIAS_COLS))
    step = np.empty((len(rows), STEP_COLS))
    for x, row in enumerate(rows):
        step[x, :_TAIL] = np.convolve(row, s[:-1] - s[1:])
    step[:, _TAIL] = s[-1]
    return _padded_table(step)


def _stacked(tables: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Alias tables of c columns stacked in group order and flattened, with
    j + q[x, j] in place of q.  q sits on the grid of c 2^-53 and j + q below
    c, so the sum is exact and c v < j + q holds exactly where c v - j < q
    does."""
    cols = tables[0][0].shape[1]
    threshold = np.concatenate([(q + np.arange(cols)).ravel() for q, _ in tables])
    return threshold, np.concatenate([alias.ravel() for _, alias in tables])


@functools.lru_cache(maxsize=16)
def _batch_tables(groups: tuple[EnvGroup, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The thinning tables of a batch's groups, `_stacked`."""
    return _stacked([_alias_table(g.offspring, g.weights) for g in groups])


@functools.lru_cache(maxsize=16)
def _step_tables(groups: tuple[EnvGroup, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step tables of a batch's groups, `_stacked`, and each group's tail
    cell mass S(ALIAS_COLS - 1)."""
    threshold, alias = _stacked([_step_table(g) for g in groups])
    return threshold, alias, np.array([immigration_survival(g.immigration, ALIAS_COLS - 1) for g in groups])


def _table_draw(
    threshold: np.ndarray, alias: np.ndarray, cols: int, values: np.ndarray, batch: EnvBatch, rng: RngState
) -> np.ndarray:
    """One uniform v per entry, in index order, looked up in `_stacked`
    tables of `cols` columns: the row is the entry's population, capped at
    ALIAS_ROWS, in its group's table, the cell j = floor(cols v), and the
    draw j if cols v < j + q[x, j], else alias[x, j]."""
    t = rng.gen.random(values.shape)
    t *= cols
    j = t.astype(np.int64)
    cell = np.minimum(values, ALIAS_ROWS)
    if len(batch.groups) > 1:
        cell += batch.group * (ALIAS_ROWS + 1)
    cell *= cols
    cell += j
    out = alias.take(cell)
    np.copyto(out, j, where=t < threshold.take(cell))
    return out


def _thin_past_table(groups: tuple[EnvGroup, ...], x: np.ndarray, group: np.ndarray, rng: RngState) -> np.ndarray:
    """numpy's draw of each entry's x-fold sum, after its atom among
    `groups` is resolved (`atom_index`): one draw per kind of
    `OffspringFamily.x_fold`, in numbering order, with parameters gathered
    per entry from its atom's columns in the atom table."""
    *_, draw, n, p = _atom_table(groups)
    atom = atom_index(groups, group, rng)
    entry_draw = draw[atom]
    # the kinds from the least to the greatest, empty ones skipped: with
    # np.unique here, a dumped 10^7-replica theorem run held 66 MB more of
    # fragmented heap, and peaked 56 MB higher
    lo, hi = int(entry_draw.min()), int(entry_draw.max())
    out = np.empty_like(x)
    for d in range(lo, hi + 1):
        sel = np.flatnonzero(entry_draw == d)
        xd, nd, pd = x[sel], n[atom[sel]], p[atom[sel]]
        if not xd.size:
            continue
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

    Atomic groups draw from their alias tables, of their atoms' offspring
    mixture where they have several: one uniform v per entry, zeros
    included, in index order; the cell is j = floor(128 v), and the draw is
    j if 128 v - j < q[x, j], else alias[x, j].  Entries past their group's
    last tabulated row then resolve their atom (`atom_index`) and take
    numpy's draw, one per kind of `OffspringFamily.x_fold` in numbering
    order, with each guarded against 2^62.  The continuous group has no
    table and draws Poisson at each entry's own mean over all entries.  A
    call makes only batch-size arrays, reused in place, and finds the
    entries past the tables once, as indices.

    The bound on a tabulated row.  With v on the grid of 2^-53, 128 v - j
    takes each multiple of 2^-46 in [0, 1) once, so a cell keeps j with
    probability exactly q: the sampler draws the integer weights w / 2^53
    exactly.  Flooring them moves less than 2^-46 of mass in total.  The
    recurrence adds at most 5 e (e = 2^-53) of relative error per step to
    p_k, and the rescaling, a pairwise sum and a division, at most 9 e more,
    and a mixture's weighting and sum at most 3 e more, so the rows carry a
    relative error below 127 * 5 e + 12 e < 2^-43.  The share cut leaves out
    under 2^-50 of each law.  A tabulated row is thus within 2^-43 + 2^-46 +
    2^-50 < 1.3e-13 in total variation of the exact x-fold law, or mixture.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("population sizes must be >= 0")
    if batch.rates is not None:
        return rng.gen.poisson(_guard(batch.rates * values))
    threshold, alias = _batch_tables(batch.groups)
    out = _table_draw(threshold, alias, ALIAS_COLS, values, batch, rng)
    past = np.flatnonzero(out < 0)
    if past.size:
        out[past] = _thin_past_table(batch.groups, values[past], batch.group[past], rng)
    return out


# ---- immigration -----------------------------------------------------------

def _survival_adjust(
    law: ImmigrationFamily, cand: np.ndarray, u: np.ndarray, t: np.ndarray, tol: float, top: float
) -> np.ndarray:
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
    where S rounds to one value over many x.  With no entry checked, S is
    evaluated nowhere.

    The entries to check are found in two stages.  `top` is `_guard_draw`'s
    largest t; every t > -1, so no |t| exceeds max(top, 1), and the entries
    with |t - rint(t)| <= tol (1 + max(top, 1)), found in five array passes,
    hold every entry the per-entry test keeps.  That test then runs on them
    alone, so the checked set is the one the test alone gives.  A NaN t
    makes `top` NaN, and every entry goes on to the per-entry test.

    The bound, for u >= 2^-106 and unit roundoff e = 2^-53: `uniform_open`
    returns at least 2^-53, and a step's tail cell, drawn only where its
    mass is at least 2^-53, scales it by that mass.  dpareto: c/u is off by
    a relative e, which the power 1/kappa turns into e/kappa; pow adds 2e
    and the subtraction of 1 adds e (1 + |t|), so t is off by at most
    (1/kappa + 3) e (1 + |t|).  An
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
    if math.isnan(top):
        near = np.arange(t.size)
    else:
        gap = np.rint(t)
        np.subtract(t, gap, out=gap)
        near = np.flatnonzero(np.abs(gap, out=gap) <= tol * (1.0 + max(top, 1.0)))
    if near.size:
        tn = t[near]
        near = near[~(np.abs(tn - np.rint(tn)) > tol * (1.0 + np.abs(tn)))]
    if not near.size:
        return cand
    x, v = cand[near], u[near]
    off = (immigration_survival(law, x) > v) | ((x > 0) & (immigration_survival(law, x - 1) <= v))
    if off.any():
        cand[near[off]] = threshold_for_level(functools.partial(immigration_survival, law), v[off])
    return cand


def _guard_draw(t: np.ndarray) -> float:
    """The largest of a closed form's real draws, or 0, NaN where one is NaN;
    the draws are refused before the int64 cast if past 2^62."""
    top = float(t.max(initial=0.0))
    if top > OVERFLOW_LIMIT:
        raise OverflowError("immigration draw exceeds 2^62")
    return top


def sample_immigration_batch(law: ImmigrationFamily, rng: RngState, size: int) -> np.ndarray:
    """Inversion sampling (`_invert_immigration`) at U uniform on (0, 1].

    One uniform is consumed per draw for every family, so stream positions do
    not depend on which law is in force.
    """
    return _invert_immigration(law, rng.uniform_open(size))


def _invert_immigration(law: ImmigrationFamily, u: np.ndarray) -> np.ndarray:
    """B = min{x >= 0 : S(x) <= u} at each u in (0, 1], S as
    `immigration_survival` evaluates it; `u` is left as it is."""
    size = u.size
    if law.kind == "constant":
        return np.full(size, law.b, dtype=np.int64)
    if law.kind == "bernoulli":
        return (u < law.q).astype(np.int64)
    if law.kind == "geometric0":
        if law.p == 1.0:
            return np.zeros(size, dtype=np.int64)
        t = np.log(u) / math.log1p(-law.p)
        top = _guard_draw(t)
        cand = np.floor(t).astype(np.int64)
        np.clip(cand, 0, None, out=cand)
        return _survival_adjust(law, cand, u, t, 2.0**-32 * (1.0 - 1.0 / math.log1p(-law.p)), top)
    # dpareto
    if law.beta == 0.0:
        # computed in place; a small kappa overflows the power to inf, which
        # _guard_draw refuses
        t = law.c / u
        with np.errstate(over="ignore"):
            t **= 1.0 / law.kappa
        t -= 1.0
        top = _guard_draw(t)
        cand = np.maximum(t, 0.0)
        cand = np.ceil(cand, out=cand).astype(np.int64)
        return _survival_adjust(law, cand, u, t, 2.0**-32 * (1.0 + 1.0 / law.kappa), top)
    return threshold_for_level(functools.partial(immigration_survival, law), u)


def imm_for_batch(batch: EnvBatch, rng: RngState) -> np.ndarray:
    """Immigration per draw under per-replica environments: one inversion
    per group, over its draws, in group order.  The groups of a drawn batch
    have distinct immigration laws, so that is one inversion per distinct
    law."""
    if len(batch.groups) == 1:
        return sample_immigration_batch(batch.groups[0].immigration, rng, batch.group.size)
    out = np.zeros(batch.group.shape, dtype=np.int64)
    for j, g in enumerate(batch.groups):
        sel = batch.group == j
        out[sel] = sample_immigration_batch(g.immigration, rng, int(np.count_nonzero(sel)))
    return out


# ---- chain steps ------------------------------------------------------------

def step_batch(values: np.ndarray, env: EnvSpec, rng: RngState) -> np.ndarray:
    """One generation T_xi(x) + B_xi for a vector of replicas under fresh
    environments, written over `values` (or its int64 copy) and returned.

    The entries step in slices of _BLOCK, in order.  Under an atomic
    environment each slice draws its environments, then its step from the
    step tables (`_step_table`): one uniform per entry, in index order,
    looked up as thinning looks up its tables (`_table_draw`).  Two kinds of
    entries are left unfinished: populations past their group's rows, and
    draws in the tail cell.  Once every slice has drawn, the unfinished
    entries of all of them, in index order, take `thin_for_batch` of their
    old populations, saved before their slice was overwritten, then one
    immigration uniform u each, inverted per group in group order: at u
    past the rows, and at u S(ALIAS_COLS - 1) in the tail cell, whose draw
    is then raised to at least ALIAS_COLS.  That inverse is the least x >=
    ALIAS_COLS with S(x) <= u S(ALIAS_COLS - 1), B's law given B >=
    ALIAS_COLS; at u = 1 the search from 0 stops at ALIAS_COLS - 1, or lower
    where S is flat, and the raise mends it.  A step of at most _BLOCK
    entries is one slice.  The continuous mode draws, thins and immigrates
    slice by slice.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("population sizes must be >= 0")
    slices = [slice(lo, lo + _BLOCK) for lo in range(0, values.size, _BLOCK)]
    if not env.is_atomic:
        for s in slices:
            batch = draw_env_batch(env, rng, values[s].size)
            t = thin_for_batch(batch, values[s], rng)
            t += imm_for_batch(batch, rng)
            values[s] = t
        return values
    threshold, alias, tails = _step_tables(env.groups)
    left = []
    for s in slices:
        x = values[s]
        batch = draw_env_batch(env, rng, x.size)
        step = _table_draw(threshold, alias, STEP_COLS, x, batch, rng)
        # a row past the tables draws -1, which reads as 2^64 - 1 unsigned
        at = np.flatnonzero(step.view(np.uint64) >= _TAIL)
        if at.size:
            left.append((at + s.start, x[at], step[at] == _TAIL, batch.group[at]))
        values[s] = step
    if not left:
        return values
    at, old, tail, group = (np.concatenate(col) for col in zip(*left))
    values[at] = thin_for_batch(EnvBatch(groups=env.groups, group=group), old, rng)
    u = rng.uniform_open(at.size)
    u[tail] *= tails.take(group[tail])
    for k, g in enumerate(env.groups):
        sel = np.flatnonzero(group == k) if len(env.groups) > 1 else slice(None)
        b = _invert_immigration(g.immigration, u[sel])
        values[at[sel]] += np.maximum(b, ALIAS_COLS, out=b, where=tail[sel])
    return values


def simulate_forward_batch(x0: int, steps: int, env: EnvSpec, rng: RngState, size: int) -> np.ndarray:
    """Terminal values of `size` independent forward trajectories, stepped
    together in place (`step_batch`)."""
    v = np.full(size, int(x0), dtype=np.int64)
    for _ in range(steps):
        step_batch(v, env, rng)
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
    independent heavy-tailed: N, then one generation step of it, in place."""
    return step_batch(sample_immigration_batch(n_law, rng, size), model.env, rng)


# ---- sample dumps --------------------------------------------------------------

def write_samples_text(path, blocks) -> None:
    """One sample per line, as a decimal integer: the blocks of samples in
    order, each formatted and written at once, so the text of a whole dump,
    about a gigabyte at 10^7 samples, is never held."""
    blocks = [np.asarray(block) for block in blocks]
    for block in blocks:
        if not np.issubdtype(block.dtype, np.integer) or (block.size and block.min() < 0):
            raise ValueError("sample dumps hold integers >= 0")
    with open(path, "w") as fh:
        for block in blocks:
            fh.write("".join(f"{v}\n" for v in block.tolist()))
