"""Shared model builders and statistical helpers.

Tests that need a model build it through these functions so the whole suite
agrees on what "the two-atom config" means.
"""

import math

import numpy as np
import scipy.stats as st

from bpire.env_model import (
    EnvAtom,
    EnvBatch,
    EnvGroup,
    EnvSpec,
    ImmigrationFamily,
    ModelSpec,
    OffspringFamily,
    atom_index,
    draw_env_batch,
    immigration_pmf,
    thinned_offspring_pmf,
)
from bpire.oracle import _BAND_FLOOR, _KERNEL_BLOCK
from bpire.simulator import OVERFLOW_LIMIT, imm_for_batch, thin_for_batch


def two_atom_env() -> EnvSpec:
    """Half thin, half near-critical reproduction, shared quadratic heavy
    immigration tail; E[m^2] = 0.5 * 0.09 + 0.5 * 0.81 = 0.45."""
    heavy = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    return EnvSpec.from_atoms(
        [
            EnvAtom(0.5, OffspringFamily.poisson(0.3), heavy),
            EnvAtom(0.5, OffspringFamily.poisson(0.9), heavy),
        ]
    )


def two_atom_model() -> ModelSpec:
    return ModelSpec(env=two_atom_env(), kappa=2.0, delta=0.5)


def coin_env() -> EnvSpec:
    """Single-atom light-tailed config, small enough for the exact kernel."""
    return EnvSpec.from_atoms(
        [EnvAtom(1.0, OffspringFamily.bernoulli(0.5), ImmigrationFamily.bernoulli(0.5))]
    )


def coin_model() -> ModelSpec:
    return ModelSpec(env=coin_env(), kappa=2.0, delta=0.5)


def _one_atom_batch(batch: EnvBatch, rng) -> EnvBatch:
    """`batch` with each draw's atom (`atom_index`) as its group, every group
    one atom; a continuous batch as it is."""
    if batch.rates is not None:
        return batch
    atoms = tuple(
        EnvGroup(g.weight * w, g.immigration, (law,), (1.0,))
        for g in batch.groups
        for law, w in zip(g.offspring, g.weights)
    )
    return EnvBatch(groups=atoms, group=atom_index(batch.groups, batch.group, rng))


def backward_terms(model: ModelSpec, trunc: int, rng, size: int) -> np.ndarray:
    """(K+1, size) matrix of individual backward terms; rows share their
    environment draws, so cumulative sums over rows are the partial sums.
    Term i is T_0(... T_{i-1}(B_i)) on its own, one thinning per term and
    generation: the independent route to the law of the nested
    `sample_stationary_backward_batch`."""
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    # environments for generations 0..K drawn first, each resolved to its
    # atoms once and shared by every term, since independent mixture draws
    # per term would not share the environment; term i is the immigration
    # of generation i pushed through generations i-1 down to 0, innermost
    # first
    gens = [draw_env_batch(model.env, rng, size) for _ in range(trunc + 1)]
    atoms = [_one_atom_batch(batch, rng) for batch in gens]
    terms = np.zeros((trunc + 1, size), dtype=np.int64)
    total = np.zeros(size, dtype=np.int64)
    for i in range(trunc + 1):
        v = imm_for_batch(gens[i], rng)
        for j in range(i - 1, -1, -1):
            if not v.any():
                break
            v = thin_for_batch(atoms[j], v, rng)
        terms[i] = v
        total += v
        if total.max(initial=0) > OVERFLOW_LIMIT:
            raise OverflowError("backward sum exceeds 2^62; model looks supercritical")
    return terms


def full_width_kernel(env: EnvSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, row_clip) of `build_kernel`, with each 64-row block's thinned
    pmf evaluated on every column and the band's kept blocks read off it.

    The independent route to the banded build, which finds its kept blocks
    from each row's mode and evaluates the pmf only on their span: the two
    must agree bit for bit."""
    ks = np.arange(n_max + 1)
    size = n_max + 1
    body = np.zeros((size, size))
    shifts = np.zeros((_KERNEL_BLOCK, size))
    for atom in env.atoms:
        imm = immigration_pmf(atom.immigration, ks)
        for a in range(min(_KERNEL_BLOCK, size)):
            shifts[a, a:] = imm[: size - a]
        for lo in range(0, size, _KERNEL_BLOCK):
            hi = min(lo + _KERNEL_BLOCK, size)
            pmf = thinned_offspring_pmf(atom.offspring, np.arange(lo, hi)[:, None], ks)
            thinned = atom.weight * pmf
            for j0 in range(0, size, _KERNEL_BLOCK):
                j1 = min(j0 + _KERNEL_BLOCK, size)
                if pmf[:, j0:j1].max() <= _BAND_FLOOR:
                    continue
                body[lo:hi, j0:] += thinned[:, j0:j1] @ shifts[: j1 - j0, : size - j0]
    exact_at_cap = body[:, n_max].copy()
    body[:, n_max] = np.maximum(0.0, 1.0 - body[:, :n_max].sum(axis=1))
    return body, np.maximum(0.0, body[:, n_max] - exact_at_cap)


# the most cells `chi_square_pvalue` evaluates a law on
_CHI_SQUARE_CELLS = 1 << 20


def chi_square_pvalue(samples, pmf, min_expected: float = 5.0) -> float:
    """Goodness-of-fit p-value of integer samples against an exact pmf.

    `pmf` is a callable on integer arrays 0 .. hi.  The cells come from the
    law: it is evaluated from 0 on, at least to the sample maximum, until
    the mass past its last cell expects fewer than `min_expected` counts or
    it spans _CHI_SQUARE_CELLS cells; that mass joins the last cell.
    Adjacent cells are pooled left to right until each pooled cell expects
    at least `min_expected` counts; the remainder joins the last pool.  So
    the pools past the sample maximum stand apart, with nothing observed,
    and draws piled at the maximum cannot hide in the law's mass past it.
    Pooling also absorbs structural zeros (e.g. a law with no mass at 0),
    keeping the chi-square statistic defined.
    """
    samples = np.asarray(samples)
    n = samples.size
    hi = int(samples.max())
    while True:
        probs = np.asarray(pmf(np.arange(hi + 1)), dtype=float)
        past = n * max(1.0 - float(probs.sum()), 0.0)
        if past < min_expected or hi + 1 >= _CHI_SQUARE_CELLS:
            break
        hi = min(2 * hi + 1, _CHI_SQUARE_CELLS - 1)
    exp_cells = n * probs
    exp_cells[-1] += past
    obs_g: list[float] = []
    exp_g: list[float] = []
    o_acc = e_acc = 0.0
    for o, e in zip(np.bincount(samples, minlength=hi + 1).astype(float), exp_cells):
        o_acc += o
        e_acc += e
        if e_acc >= min_expected:
            obs_g.append(o_acc)
            exp_g.append(e_acc)
            o_acc = e_acc = 0.0
    if o_acc or e_acc:
        if exp_g:
            obs_g[-1] += o_acc
            exp_g[-1] += e_acc
        else:
            return 1.0  # support too thin to test
    obs_a = np.asarray(obs_g)
    exp_a = np.asarray(exp_g)
    if exp_a.size < 2:
        return 1.0
    exp_a *= obs_a.sum() / exp_a.sum()
    return float(st.chisquare(obs_a, exp_a).pvalue)


def hill_functional(pmf, tail_fraction: float) -> float:
    """Exact Hill functional of an integer law at tail fraction k/n.

    The population counterpart of `hill_estimate(samples, k)`:
    `(k/n) / E[log((X + 0.5) / (u + 0.5)); X > u]`, with u the smallest
    integer where `P(X > u) <= k/n` -- the estimator's +0.5 shift and its
    threshold rule.  On a sample's empirical pmf it is the estimate itself;
    on an exact law it is the value the estimator converges to at a fixed
    tail fraction, which only reaches the tail index as k/n -> 0.

    Survival is summed from the top, where it is small and exact to a few
    ulps.  At the boundary `P(X > u) = k/n` those sums still land on either
    side of k/n, so a survival within a relative 1e-9 of k/n counts as
    reaching it; distinct survival values of an n-sample differ by 1/n.
    """
    p = np.asarray(pmf, dtype=float)
    over = np.append(np.cumsum(p[::-1])[::-1][1:], 0.0)  # over[u] = P(X > u)
    u = int(np.argmax(over <= tail_fraction * (1.0 + 1e-9)))
    xs = np.arange(u + 1, p.size)
    mean_log = float(np.dot(p[u + 1 :], np.log((xs + 0.5) / (u + 0.5))))
    if mean_log <= 0.0:
        raise ValueError("no mass above the threshold; Hill functional undefined")
    return tail_fraction / mean_log


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, exact under ties."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample set")
    pts = np.unique(np.concatenate([a, b]))
    cdf_a = np.searchsorted(a, pts, side="right") / a.size
    cdf_b = np.searchsorted(b, pts, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample rejection threshold at significance alpha."""
    if n <= 0 or m <= 0:
        raise ValueError("sample sizes must be positive")
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))
