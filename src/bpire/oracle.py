"""Exact small-state-space cross-checks for the Monte Carlo engine.

For light-tailed configurations the chain restricted to {0..n_max} admits a
dense transition matrix built from exact pmfs; its stationary vector is an
independent route to the same distribution the backward sampler estimates.
Probability mass that would leave the truncated box is folded into the top
state and tracked, so the induced bias is observable rather than silent.

The brute-force random-sum tail deliberately avoids the families' summation
closure: it convolves the single-draw offspring pmf b times.  Agreement with
the closed-form thinning sampler is what validates the closure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env_model import (
    EnvSpec,
    ImmigrationFamily,
    immigration_pmf,
    thinned_offspring_mode,
    thinned_offspring_pmf,
)
from .errors import NoConvergence, PmfUnavailable, ResidualTooLarge

__all__ = [
    "build_kernel",
    "stationary_power_iteration",
    "brute_force_random_sum_tail",
    "empirical_pmf",
    "tv_distance",
]

MAX_STATES = 4096
# block size B of build_kernel's matrix product; bounds its scratch memory
_KERNEL_BLOCK = 64
# build_kernel skips a B x B block of thinned pmf whose entries are all at or
# below this floor; each row then loses at most (n_max + 1) * floor of mass
_BAND_FLOOR = 1e-20
# sweeps stationary_power_iteration makes before it gives up
_MAX_SWEEPS = 10**6


@dataclass(frozen=True)
class TruncatedKernel:
    """Row-stochastic matrix on {0..n_max}; row_clip[x] is the probability
    mass folded from states > n_max into state n_max for start state x."""

    n_max: int
    matrix: np.ndarray
    row_clip: np.ndarray


@dataclass(frozen=True)
class ExactDistribution:
    """Stationary vector of a truncated kernel; residual is the stationary-
    weighted clipped mass, a bound on the truncation distortion."""

    pmf: np.ndarray
    residual: float


def build_kernel(env: EnvSpec, n_max: int) -> TruncatedKernel:
    """Dense one-step kernel of the chain on {0..n_max}.

    Row x mixes, over environment atoms, the pmf of (x-fold offspring sum +
    immigration).  Column n_max absorbs the complement of the others and the
    excess over its exact value is recorded as clip.

    Banded thinning: a B x B block of thinned offspring pmf whose entries are
    all <= _BAND_FLOOR (tau = 1e-20) is left out of the product.  Each left-out
    entry carries at most tau of mass (the immigration pmf sums to 1), so
    entries below n_max fall short of their exact value by at most
    (n_max + 1) * tau in total over a row, and that mass moves to column n_max
    and into row_clip.  A block holding a point mass is never left out, and
    a left-out block of exact zeros changes nothing, so exact zeros stay exact.

    The pmf is evaluated only on the span of a row block's kept blocks.  They
    are found without it: every x-fold law is unimodal, so a block's largest
    entry in row x is the one at the row's mode clamped into the block, and
    one entry per row and block decides which blocks the floor keeps.
    """
    if not env.is_atomic:
        raise PmfUnavailable("exact kernel needs an atomic environment")
    if not 1 <= n_max <= MAX_STATES:
        raise ValueError(f"n_max must lie in [1, {MAX_STATES}]")
    ks = np.arange(n_max + 1)
    size = n_max + 1
    body = np.zeros((size, size))
    # Rows of weighted thinned pmfs times the upper-triangular Toeplitz
    # matrix toep[j, k] = imm[k - j] give the convolutions cut at n_max.
    # toep is constant along diagonals: its rows j0 .. j0 + B - 1 from column
    # j0 on are shifts[:, :size - j0] (imm moved right by 0 .. B - 1 places),
    # so blocking rows and inner index keeps scratch at a few (B, size) arrays.
    shifts = np.zeros((_KERNEL_BLOCK, size))
    starts = np.arange(0, size, _KERNEL_BLOCK)
    ends = np.minimum(starts + _KERNEL_BLOCK, size)
    for atom in env.atoms:
        imm = immigration_pmf(atom.immigration, ks)
        for a in range(min(_KERNEL_BLOCK, size)):
            shifts[a, a:] = imm[: size - a]
        for lo, hi in zip(starts, ends):
            rows = np.arange(lo, hi)[:, None]
            # a unimodal row peaks, within a block, at its mode clamped into it
            peaks = np.clip(thinned_offspring_mode(atom.offspring, rows), starts, ends - 1)
            kept = np.flatnonzero(
                thinned_offspring_pmf(atom.offspring, rows, peaks.astype(np.int64)).max(axis=0) > _BAND_FLOOR
            )
            if kept.size == 0:
                continue
            c0, c1 = starts[kept[0]], ends[kept[-1]]
            thinned = atom.weight * thinned_offspring_pmf(atom.offspring, rows, ks[c0:c1])
            for j0, j1 in zip(starts[kept], ends[kept]):
                body[lo:hi, j0:] += thinned[:, j0 - c0 : j1 - c0] @ shifts[: j1 - j0, : size - j0]
    exact_at_cap = body[:, n_max].copy()
    body[:, n_max] = np.maximum(0.0, 1.0 - body[:, :n_max].sum(axis=1))
    row_clip = np.maximum(0.0, body[:, n_max] - exact_at_cap)
    return TruncatedKernel(n_max=n_max, matrix=body, row_clip=row_clip)


def stationary_power_iteration(kernel: TruncatedKernel, tol: float = 1e-12) -> ExactDistribution:
    """Left fixed vector by repeated multiplication, stopping when the
    sweep-to-sweep total-variation increment drops below tol, within
    _MAX_SWEEPS sweeps."""
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    p = kernel.matrix
    n = p.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(_MAX_SWEEPS):
        nxt = pi @ p
        tv = 0.5 * float(np.abs(nxt - pi).sum())
        pi = nxt
        if tv < tol:
            pi = pi / pi.sum()
            return ExactDistribution(pmf=pi, residual=float(pi @ kernel.row_clip))
    raise NoConvergence(f"power iteration exceeded {_MAX_SWEEPS} sweeps")


def brute_force_random_sum_tail(env: EnvSpec, b_law: ImmigrationFamily, x: int, cap: int) -> float:
    """P(sum_{i<=B} A_i > x) by iterated convolution of the single-draw pmf.

    Entries 0 .. x of each convolution read the single-draw pmf at 0 .. x
    only, so that pmf is evaluated there and nowhere else: the sum is exact
    up to rounding whatever the law's support.  B is truncated at `cap`;
    remaining B-mass above cap must be < 1e-12 or the computation refuses.
    Independent of the families' closure, hence an oracle for the thinning
    sampler.
    """
    if not env.is_atomic:
        raise PmfUnavailable("brute-force tail needs an atomic environment")
    if x < 0 or cap < 0:
        raise ValueError("x and cap must be >= 0")
    bpmf = np.asarray(immigration_pmf(b_law, np.arange(cap + 1)), dtype=float)
    residual = 1.0 - float(bpmf.sum())
    if residual > 1e-12:
        raise ResidualTooLarge(f"B mass beyond cap is {residual:.3e} (> 1e-12)")
    total = 0.0
    for atom in env.atoms:
        base = thinned_offspring_pmf(atom.offspring, 1, np.arange(x + 1))
        v = np.zeros(x + 1)
        v[0] = 1.0
        tails = np.zeros(cap + 1)
        for b in range(1, cap + 1):
            v = np.convolve(v, base)[: x + 1]
            tails[b] = 1.0 - float(v.sum())
        total += atom.weight * float(np.dot(bpmf, tails))
    return total


def empirical_pmf(values, n_max: int, counts=None) -> np.ndarray:
    """Frequencies on {0..n_max} of a sample (counts=None) or a value
    histogram, with values above n_max folded into n_max, mirroring the
    kernel's clip convention."""
    arr = np.asarray(values)
    n = arr.size if counts is None else int(np.sum(counts))
    if n == 0:
        raise ValueError("empty sample set")
    if arr.min() < 0:
        raise ValueError("samples must be >= 0")
    return np.bincount(np.minimum(arr, n_max), weights=counts, minlength=n_max + 1) / n


def tv_distance(p, q) -> float:
    """Total variation between two pmf vectors (zero-padded to align)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    size = max(p.size, q.size)
    pp = np.zeros(size)
    qq = np.zeros(size)
    pp[: p.size] = p
    qq[: q.size] = q
    return 0.5 * float(np.abs(pp - qq).sum())
