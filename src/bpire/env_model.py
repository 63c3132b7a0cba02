"""Random-environment model: offspring and immigration families, moments,
and the standing subcriticality condition.

An environment draw fixes one offspring law and one immigration law for a
generation.  Offspring families are restricted to laws closed under iid
summation, so the x-fold sum is again a single parametric draw; that closure
is what keeps thinning O(1) per generation in the simulator.  Moment
functionals here are the exact/deterministic side of every dual-route check:
Monte Carlo estimates elsewhere are compared against these numbers.

A generation reads its environment only through two laws, the offspring law
and the immigration law, so the samplers see environments as one `EnvBatch`
per generation, drawn as coarsely as that allows.  The atoms of an EnvSpec
fall into `EnvGroup`s, one per immigration law, in order of first
appearance; a draw picks a group, and a uniform only where there are two or
more.  Thinning under a group of several atoms draws from their offspring
mixture.  The readers that need the atom itself, thinning past the
simulator's tables and the perpetuity's offspring mean, resolve it
(`atom_index`, `resolve_atoms`).  The continuous mode is a single group
whose offspring law is Poisson at the draw's own mean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SeriesDivergence
from .rng import RngState

__all__ = [
    "OffspringFamily",
    "ImmigrationFamily",
    "EnvAtom",
    "EnvGroup",
    "EnvSpec",
    "ModelSpec",
    "ConditionReport",
    "EnvBatch",
    "mean_offspring",
    "kappa_moment",
    "moment_A",
    "check_conditions",
    "draw_env_batch",
    "atom_index",
    "resolve_atoms",
    "offspring_pmf",
    "thinned_offspring_pmf",
    "thinned_offspring_mode",
    "immigration_pmf",
    "immigration_survival",
    "env_immigration_survival",
    "pareto_tail_params",
    "env_pareto_prefactor",
    "law_label",
]

# largest beta / kappa of a dpareto law; see ImmigrationFamily
DPARETO_BETA_PER_KAPPA = 2.4327
_SERIES_CAP = 10**7
_MOMENT_BLOCK = 4096
_TRIALS_LIMIT = 1 << 62  # binomial trial counts x n stay below it, exact in int64
_GAUSS_NODES = 32


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class OffspringFamily:
    """Per-individual offspring law, closed under iid summation.

    kind        params          x-fold sum
    ----        ------          ----------
    poisson     rate >= 0       Poisson(x * rate)
    bernoulli   p in [0, 1]     Binomial(x, p)
    geometric0  p in (0, 1]     NegBinomial(x, p)   (support {0, 1, ...})
    binomial    n >= 1, p       Binomial(x * n, p)

    PARAMS maps each kind to its parameter fields in config-syntax order.
    """

    PARAMS = {"poisson": ("rate",), "bernoulli": ("p",), "geometric0": ("p",), "binomial": ("n", "p")}

    kind: str
    rate: float = 0.0
    p: float = 0.0
    n: int = 0

    def __post_init__(self):
        _require(self.kind in self.PARAMS, f"unknown offspring kind {self.kind!r}")
        if self.kind == "poisson":
            _require(math.isfinite(self.rate) and self.rate >= 0.0, "poisson rate must be finite and >= 0")
        elif self.kind == "bernoulli":
            _require(0.0 <= self.p <= 1.0, "bernoulli p must lie in [0, 1]")
        elif self.kind == "geometric0":
            _require(0.0 < self.p <= 1.0, "geometric0 p must lie in (0, 1]")
        elif self.kind == "binomial":
            _require(
                1 <= self.n < _TRIALS_LIMIT and self.n == int(self.n),
                f"binomial n must be an integer in [1, 2^62), got {self.n}",
            )
            _require(0.0 <= self.p <= 1.0, "binomial p must lie in [0, 1]")

    def x_fold(self) -> tuple[int, int, float]:
        """(draw, n, p) of the x-fold sum above: draw 0 is Poisson(x p), 1
        Binomial(x n, p), with n = 1 for bernoulli, and 2 NegBinomial(x, p),
        numbered in the order the simulator draws past its alias tables."""
        if self.kind == "poisson":
            return 0, 0, self.rate
        if self.kind == "geometric0":
            return 2, 0, self.p
        return 1, self.n if self.kind == "binomial" else 1, self.p

    @classmethod
    def poisson(cls, rate: float) -> "OffspringFamily":
        return cls(kind="poisson", rate=float(rate))

    @classmethod
    def bernoulli(cls, p: float) -> "OffspringFamily":
        return cls(kind="bernoulli", p=float(p))

    @classmethod
    def geometric0(cls, p: float) -> "OffspringFamily":
        return cls(kind="geometric0", p=float(p))

    @classmethod
    def binomial(cls, n: int, p: float) -> "OffspringFamily":
        return cls(kind="binomial", n=int(n), p=float(p))


@dataclass(frozen=True)
class ImmigrationFamily:
    """Per-generation immigration law on {0, 1, ...}.

    dpareto is the heavy-tailed member: survival
        S(x) = min(1, c * ln(e + x)^beta * (1 + x)^(-kappa)),
    so P(B = 0) = 1 - S(0) = 1 - c.  The others are light-tailed controls.

    S(x + 1) <= S(x) holds on every integer x >= 0 iff beta <= kappa times
    ln(3/2) / ln(ln(e + 2) / ln(e + 1)) = 2.43270..., the least over x of
    ln((x + 2)/(x + 1)) / ln(ln(e + x + 1) / ln(e + x)), reached at x = 1.
    Laws past 2.4327 kappa, just under it so that rounding cannot make the
    evaluated S rise at x = 1, are refused: their pmf would go negative.

    PARAMS maps each kind to its parameter fields in config-syntax order.
    """

    PARAMS = {"dpareto": ("kappa", "c", "beta"), "bernoulli": ("q",), "constant": ("b",), "geometric0": ("p",)}

    kind: str
    kappa: float = 0.0
    c: float = 0.0
    beta: float = 0.0
    q: float = 0.0
    b: int = 0
    p: float = 0.0

    def __post_init__(self):
        _require(self.kind in self.PARAMS, f"unknown immigration kind {self.kind!r}")
        if self.kind == "dpareto":
            _require(self.kappa > 0.0 and math.isfinite(self.kappa), "dpareto kappa must be > 0")
            _require(0.0 < self.c <= 1.0, "dpareto c must lie in (0, 1]")
            _require(self.beta >= 0.0 and math.isfinite(self.beta), "dpareto beta must be >= 0")
            _require(
                self.beta <= DPARETO_BETA_PER_KAPPA * self.kappa,
                f"dpareto beta must be <= {DPARETO_BETA_PER_KAPPA} kappa, or the survival rises",
            )
        elif self.kind == "bernoulli":
            _require(0.0 <= self.q <= 1.0, "bernoulli q must lie in [0, 1]")
        elif self.kind == "constant":
            _require(self.b >= 0 and self.b == int(self.b), "constant b must be an integer >= 0")
        elif self.kind == "geometric0":
            _require(0.0 < self.p <= 1.0, "geometric0 p must lie in (0, 1]")

    @classmethod
    def discrete_pareto(cls, kappa: float, c: float, beta: float = 0.0) -> "ImmigrationFamily":
        return cls(kind="dpareto", kappa=float(kappa), c=float(c), beta=float(beta))

    @classmethod
    def bernoulli(cls, q: float) -> "ImmigrationFamily":
        return cls(kind="bernoulli", q=float(q))

    @classmethod
    def constant(cls, b: int) -> "ImmigrationFamily":
        return cls(kind="constant", b=int(b))

    @classmethod
    def geometric0(cls, p: float) -> "ImmigrationFamily":
        return cls(kind="geometric0", p=float(p))


@dataclass(frozen=True)
class EnvAtom:
    weight: float
    offspring: OffspringFamily
    immigration: ImmigrationFamily

    def __post_init__(self):
        _require(self.weight > 0.0 and math.isfinite(self.weight), "atom weight must be > 0")


@dataclass(frozen=True)
class EnvGroup:
    """The atoms of an EnvSpec that share one immigration law, in declaration
    order: their total `weight`, their `offspring` laws and `weights`, each
    atom's share of the total.  The continuous mode's one group has no
    offspring laws."""

    weight: float
    immigration: ImmigrationFamily
    offspring: tuple[OffspringFamily, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class EnvSpec:
    """Law of the environment: finitely many atoms, or a uniform Poisson rate.

    Exactly one mode is populated.  The continuous mode draws a Poisson
    offspring rate uniformly from [rate_lo, rate_hi] and pairs it with one
    fixed immigration law.
    """

    atoms: tuple[EnvAtom, ...] = ()
    rate_lo: float = 0.0
    rate_hi: float = 0.0
    rate_immigration: ImmigrationFamily | None = None

    def __post_init__(self):
        if self.atoms:
            _require(self.rate_immigration is None, "atoms and rate mode are mutually exclusive")
            total = math.fsum(a.weight for a in self.atoms)
            _require(abs(total - 1.0) <= 1e-12, f"atom weights must sum to 1 (got {total!r})")
        else:
            _require(self.rate_immigration is not None, "environment needs atoms or a rate range")
            _require(0.0 <= self.rate_lo < self.rate_hi, "need 0 <= rate_lo < rate_hi")
            _require(math.isfinite(self.rate_hi), "rate_hi must be finite")

    @property
    def is_atomic(self) -> bool:
        return bool(self.atoms)

    @functools.cached_property
    def groups(self) -> tuple[EnvGroup, ...]:
        """The atoms grouped by immigration law, in order of first appearance,
        built on first use."""
        if not self.atoms:
            return (EnvGroup(1.0, self.rate_immigration, (), ()),)
        members: dict[ImmigrationFamily, list[EnvAtom]] = {}
        for atom in self.atoms:
            members.setdefault(atom.immigration, []).append(atom)
        out = []
        for law, atoms in members.items():
            total = math.fsum(a.weight for a in atoms)
            out.append(EnvGroup(total, law, tuple(a.offspring for a in atoms), tuple(a.weight / total for a in atoms)))
        return tuple(out)

    @functools.cached_property
    def _group_cuts(self) -> np.ndarray:
        """`draw_env_batch`'s cut points: the groups' cumulative weights but the last."""
        return np.cumsum([g.weight for g in self.groups])[:-1]

    @classmethod
    def from_atoms(cls, atoms) -> "EnvSpec":
        return cls(atoms=tuple(atoms))

    @classmethod
    def uniform_poisson_rate(cls, lo: float, hi: float, immigration: ImmigrationFamily) -> "EnvSpec":
        return cls(atoms=(), rate_lo=float(lo), rate_hi=float(hi), rate_immigration=immigration)


@dataclass(frozen=True)
class ModelSpec:
    """Environment law plus the tail/moment exponents the checks refer to."""

    env: EnvSpec
    kappa: float
    delta: float = 0.5

    def __post_init__(self):
        _require(self.kappa > 0.0 and math.isfinite(self.kappa), "kappa must be > 0")
        _require(self.delta > 0.0 and math.isfinite(self.delta), "delta must be > 0")


@dataclass(frozen=True)
class ConditionReport:
    """Numbers behind the standing condition, plus the verdict."""

    kappa_moment: float
    log_mean: float
    moment_a: float
    subcritical: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "kappa_moment": self.kappa_moment,
            "log_mean": self.log_mean,
            "moment_A": self.moment_a,
            "subcritical": self.subcritical,
            "pass": self.passed,
        }


# ---- batched environment realizations ----------------------------------

@dataclass(frozen=True)
class EnvBatch:
    """Environments of a batch of draws: `groups[j]` is group j and `group`
    holds each draw's group index.  A continuous EnvSpec is one group whose
    offspring law is Poisson at each draw's own rate, held in `rates`.
    """

    groups: tuple[EnvGroup, ...]
    group: np.ndarray
    rates: np.ndarray | None = None

    @property
    def means(self) -> np.ndarray:
        """Offspring mean m(xi) of each draw, where every group is one atom.

        Atomic batches `take` it from the group means only when asked: held
        eagerly, an array per generation that thinning never reads cost the
        stationary sampler about 5 % of its run time in page faults.
        """
        if self.rates is not None:
            return self.rates
        _require(all(len(g.offspring) == 1 for g in self.groups), "resolve the atoms of a batch before its means")
        return np.array([mean_offspring(g.offspring[0]) for g in self.groups]).take(self.group)


def _cut_count(u: np.ndarray, cuts) -> np.ndarray:
    """Number of cut points at or below each uniform: one comparison pass per
    cut point, far less than a search at the few cut points of every bundled
    config.  The cut points are cumulative weights, all but the last, so the
    count is the index a right-sided search of the cumulative weights gives,
    and the last index where their float sum ends below 1.  `cuts` holds
    scalars, or arrays shaped like `u`."""
    count = (u >= cuts[0]).astype(np.int64)
    for c in cuts[1:]:
        count += u >= c
    return count


def draw_env_batch(env: EnvSpec, rng: RngState, size: int) -> EnvBatch:
    """Draw `size` environments at once: each draw's group of atoms.

    An atomic spec spends one uniform per draw when it has two or more
    groups, and none when it has one: config_a, grey.cfg and every one-atom
    spec draw nothing here.  The continuous mode spends one uniform per draw
    on its rate.  The groups and their cut points are cached on the EnvSpec.
    """
    if env.is_atomic:
        cuts = env._group_cuts
        if not cuts.size:
            return EnvBatch(groups=env.groups, group=np.zeros(size, dtype=np.int64))
        return EnvBatch(groups=env.groups, group=_cut_count(rng.gen.random(size), cuts))
    rates = env.rate_lo + (env.rate_hi - env.rate_lo) * rng.gen.random(size)
    return EnvBatch(groups=env.groups, group=np.zeros(size, dtype=np.int64), rates=rates)


@functools.lru_cache(maxsize=16)
def _atom_table(groups: tuple[EnvGroup, ...]) -> tuple[tuple[EnvGroup, ...], np.ndarray, np.ndarray, np.ndarray]:
    """What resolving the atoms of a batch with these groups reads: every
    atom as a one-atom group, group by group; each group's index of its
    first atom there; whether each group has several atoms; and each group's
    cut points (within-group cumulative weights but the last) as columns,
    padded with 2, above every uniform."""
    atoms = tuple(
        EnvGroup(g.weight * w, g.immigration, (law,), (1.0,)) for g in groups for law, w in zip(g.offspring, g.weights)
    )
    sizes = np.array([len(g.offspring) for g in groups])
    first = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    cuts = np.full((len(groups), max(sizes.max() - 1, 0)), 2.0)
    for j, g in enumerate(groups):
        cuts[j, : sizes[j] - 1] = np.cumsum(g.weights)[:-1]
    return atoms, first, sizes > 1, cuts


def atom_index(groups: tuple[EnvGroup, ...], group: np.ndarray, rng: RngState) -> np.ndarray:
    """Each draw's index among the atoms of `groups`, numbered group by
    group, given its group: one uniform per draw in a group of several
    atoms, in index order, and none for the others.  The atom within the
    group is the count of the group's cut points at or below the uniform,
    as in `draw_env_batch`.  Where every group is one atom, `group` is the
    index.  Where there is one group, `group` says nothing, so its draws
    skip the gathers by group: the perpetuity resolves every draw of every
    generation, and 8192 of them took 25 us this way against 80 us through
    the gathers (2 vCPUs)."""
    _, first, several, cuts = _atom_table(groups)
    if not cuts.shape[1]:
        return group
    if len(groups) == 1:
        return _cut_count(rng.gen.random(group.size), cuts[0])
    sel = np.flatnonzero(several.take(group))
    atom = first.take(group)
    atom[sel] += _cut_count(rng.gen.random(sel.size), cuts.take(group[sel], axis=0).T)
    return atom


def resolve_atoms(batch: EnvBatch, rng: RngState) -> EnvBatch:
    """Each draw's atom (`atom_index`), as a batch whose groups are single
    atoms.  A continuous batch is its own resolution."""
    if batch.rates is not None:
        return batch
    return EnvBatch(groups=_atom_table(batch.groups)[0], group=atom_index(batch.groups, batch.group, rng))


# ---- moments -------------------------------------------------------------

def mean_offspring(law: OffspringFamily) -> float:
    """Conditional offspring mean m for one realized law."""
    draw, n, p = law.x_fold()
    if draw == 0:
        return p
    if draw == 1:
        return n * p
    return (1.0 - p) / p


def offspring_moment(law: OffspringFamily, order: float) -> float:
    """E[A^order] for one realized offspring law, order >= 1 real, to a
    relative 1e-12.

    Bernoulli is p.  Any other law sums exp(order ln k + ln p_k), so that
    k^order may pass float64, with p_k from `thinned_offspring_pmf`, in
    blocks of `_MOMENT_BLOCK` going outward from the mode: up, then down.
    Every x-fold law is log-concave and ((k + 1)/k)^order falls, so the term
    ratio never rises on either side, and a side stops at a zero term or
    once the geometric bound read off its last two terms is below half of
    1e-12 of the sum so far.  The cost follows the law's spread, not its
    mean: poisson:6e6 (sd 2449) takes 5 blocks a side.  A side past
    `_SERIES_CAP` terms, as for geometric0:1e-7 (sd 10^7) after 2442
    blocks, a mode past int64, or a moment past float64 raises
    SeriesDivergence.
    """
    _require(order >= 1.0 and math.isfinite(order), "order must be >= 1")
    draw, n, p = law.x_fold()
    if draw == 1 and n == 1:
        return p  # bernoulli: A in {0, 1}
    capped = SeriesDivergence(f"{law.kind} moment series exceeded iteration cap")
    total = 0.0
    try:
        mode = int(thinned_offspring_mode(law, 1))
        for start, step in ((mode, 1), (mode - 1, -1)):
            offsets = step * np.arange(_MOMENT_BLOCK)
            for first in range(start, start + step * _SERIES_CAP, step * _MOMENT_BLOCK):
                ks = np.maximum(first + offsets, 0)  # k < 0 clips to k = 0, a zero term
                with np.errstate(divide="ignore", over="ignore"):
                    terms = np.exp(order * np.log(ks) + np.log(thinned_offspring_pmf(law, 1, ks)))
                total += float(np.sum(terms))
                if not math.isfinite(total):
                    raise SeriesDivergence(f"{law.kind} moment of order {order:g} exceeds float64")
                ratio = terms[-1] / terms[-2] if terms[-1] > 0.0 else 0.0
                if ratio < 1.0 and terms[-1] * ratio / (1.0 - ratio) <= 0.5e-12 * total:
                    break
            else:
                raise capped
    except OverflowError:  # a mode past int64
        raise capped from None
    return total


def kappa_moment(env: EnvSpec, kappa: float) -> float:
    """E[m(xi)^kappa], in closed form for both environment modes.

    Atoms give the weighted sum; the uniform rate range [lo, hi] gives
    (hi^(kappa+1) - lo^(kappa+1)) / ((kappa+1)(hi-lo)), exactly 1 at kappa = 0.
    A power past float64 reads inf: the moment is then far above 1, unless
    an atom weight is subnormal.
    """
    _require(kappa >= 0.0 and math.isfinite(kappa), "kappa must be >= 0")
    try:
        if env.is_atomic:
            return math.fsum(a.weight * mean_offspring(a.offspring) ** kappa for a in env.atoms)
        lo, hi = env.rate_lo, env.rate_hi
        return (hi ** (kappa + 1.0) - lo ** (kappa + 1.0)) / ((kappa + 1.0) * (hi - lo))
    except OverflowError:
        return math.inf


def moment_A(env: EnvSpec, order: float) -> float:
    """Unconditional offspring moment E[A^order], order >= 1.

    Each atom's moment, and each node's, is `offspring_moment` to a relative
    1e-12.  In the continuous mode E[Poisson(lam)^order] is entire in lam,
    so a fixed 32-node Gauss-Legendre rule over [lo, hi] adds no error above
    rounding.
    """
    _require(order >= 1.0 and math.isfinite(order), "order must be >= 1")
    if env.is_atomic:
        return math.fsum(a.weight * offspring_moment(a.offspring, order) for a in env.atoms)
    lo, hi = env.rate_lo, env.rate_hi
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    lams = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    values = [offspring_moment(OffspringFamily.poisson(lam), order) for lam in lams]
    # (hi - lo)/2 * sum(w f) integrates over [lo, hi]; dividing by hi - lo averages
    return 0.5 * math.fsum(w * v for w, v in zip(weights, values))


def log_mean_offspring(env: EnvSpec) -> float:
    """E[ln m(xi)]; -inf when an atom has zero offspring mean."""
    if env.is_atomic:
        out = 0.0
        for a in env.atoms:
            m = mean_offspring(a.offspring)
            if m == 0.0:
                return -math.inf
            out += a.weight * math.log(m)
        return out
    lo, hi = env.rate_lo, env.rate_hi

    def anti(x: float) -> float:
        return 0.0 if x == 0.0 else x * math.log(x) - x

    return (anti(hi) - anti(lo)) / (hi - lo)


def check_conditions(model: ModelSpec) -> ConditionReport:
    """Evaluate the standing condition for the model.

    Passing needs E[m(xi)^kappa] < 1 together with a finite offspring moment
    of order max(1, kappa) + delta; subcriticality of the log mean follows
    and is reported alongside.  The offspring moment is evaluated only when
    E[m(xi)^kappa] < 1, and is NaN otherwise: the verdict is already known,
    and a law with a huge spread would sum its series to the iteration cap.
    """
    km = kappa_moment(model.env, model.kappa)
    lm = log_mean_offspring(model.env)
    ma = moment_A(model.env, max(1.0, model.kappa) + model.delta) if km < 1.0 else math.nan
    subcritical = lm < 0.0
    passed = km < 1.0 and math.isfinite(ma)
    return ConditionReport(
        kappa_moment=km, log_mean=lm, moment_a=ma, subcritical=subcritical, passed=passed
    )


# ---- pmf / survival evaluation ------------------------------------------

_STIRLING_HEAD = np.array(
    [0.0] + [math.lgamma(m + 1.0) - (m + 0.5) * math.log(m) + m - 0.5 * math.log(2.0 * math.pi) for m in range(1, 16)]
)


def _stirling_error(n) -> np.ndarray:
    """delta(n) = log n! - (n + 1/2) log n + n - log(2 pi)/2 at each integer n >= 0.

    From lgamma for n <= 15 (_STIRLING_HEAD), where the terms are small; above,
    the Stirling series to n^-9, whose truncation error is below rounding.
    delta(0) is set to 0 and never used.
    """
    nf = np.asarray(n, dtype=float)
    nn = nf * nf
    with np.errstate(divide="ignore", invalid="ignore"):
        series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / nf
    return np.where(nf <= 15, _STIRLING_HEAD[np.minimum(n, 15)], series)


def _deviance(x, m):
    """Loader's bd0(x, m) = x log(x/m) + m - x for x >= 1, m > 0.

    The log1p form keeps the error near x = m at the rounding of x - m, where
    the naive form cancels two terms of size x.
    """
    d = x - m
    return x * np.log1p(d / m) - d


def _binomial_pmf(k, trials, p: float) -> np.ndarray:
    """P(Binomial(trials, p) = k) for integer arrays 0 <= k <= trials with
    trials >= 1, in Loader's saddle-point form.  Its relative error stays
    near 1e-13; the table form log N! - log k! - log (N-k)! loses up to 1e-9
    to the rounding of terms of size N log N."""
    if p == 0.0 or p == 1.0:
        return k == (trials if p == 1.0 else 0)
    rest = trials - k
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inner = (
            _stirling_error(trials)
            - _stirling_error(k)
            - _stirling_error(rest)
            - _deviance(k, trials * p)
            - _deviance(rest, trials * (1.0 - p))
            + 0.5 * np.log(trials / (2.0 * math.pi * k * rest))
        )
    return np.exp(np.where(k == 0, trials * math.log1p(-p), np.where(rest == 0, trials * math.log(p), inner)))


def _poisson_pmf(ks: np.ndarray, mu) -> np.ndarray:
    """Poisson(mu) pmf at integers ks >= 0, mu > 0, in Loader's form."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inner = np.exp(-_stirling_error(ks) - 0.5 * np.log(2.0 * math.pi * ks) - _deviance(ks, mu))
    return np.where(ks == 0, np.exp(-mu), inner)


def _trials(x: np.ndarray, each: int) -> np.ndarray:
    """x each, a binomial x-fold sum's trial count; OverflowError at 2^62."""
    if x.size and x.max() >= -(-_TRIALS_LIMIT // each):
        raise OverflowError(f"binomial trial count {x.max()} x {each} reaches 2^62")
    return x * each


def thinned_offspring_pmf(law: OffspringFamily, x, ks: np.ndarray) -> np.ndarray:
    """pmf of the sum of `x` iid offspring draws, evaluated at integers `ks`.

    Uses the family's summation closure; x = 0 is the point mass at 0.  `x`
    may be an array that broadcasts against `ks`, so one call gives many rows.
    numpy only: each pmf is Loader's saddle-point form, accurate to about
    1e-13 relative over the kernel's range.
    """
    x = np.asarray(x, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    _require(bool(np.all(x >= 0)), "x must be >= 0")
    # x = 0 is handled apart: the negative binomial with n = 0 is undefined
    n = np.maximum(x, 1)
    k = np.maximum(ks, 0)
    draw, each, p = law.x_fold()
    if draw == 0:
        pmf = _poisson_pmf(k, n * p) if p > 0.0 else k == 0
    elif draw == 2:
        # failures before the n-th success: n/(n+k) P(Binomial(n+k, p) = n)
        pmf = n / (n + k) * _binomial_pmf(n, n + k, p)
    else:
        trials = _trials(n, each)
        pmf = (k <= trials) * _binomial_pmf(np.minimum(k, trials), trials, p)
    return np.where(ks < 0, 0.0, np.where(x == 0, ks == 0, pmf))


def thinned_offspring_mode(law: OffspringFamily, x) -> np.ndarray:
    """A mode of the x-fold offspring sum, as a float array shaped like `x`.

    Every x-fold law is unimodal, so its pmf rises up to this point and falls
    after it: Poisson(x r) peaks at floor(x r), Binomial(N, p) at
    min(floor((N + 1) p), N), NegBinomial(x, p) at floor((x - 1)(1 - p)/p),
    and x = 0 at 0.  Floats, because a tiny geometric0 p puts the mode
    past int64.
    """
    x = np.asarray(x, dtype=np.int64)
    n = np.maximum(x, 1)
    draw, each, p = law.x_fold()
    if draw == 0:
        mode = np.floor(n * p)
    elif draw == 2:
        mode = np.floor((n - 1) * (1.0 - p) / p)
    else:
        trials = _trials(n, each)
        mode = np.minimum(np.floor((trials + 1) * p), trials)
    return np.where(x == 0, 0.0, mode)


def offspring_pmf(law: OffspringFamily, ks: np.ndarray) -> np.ndarray:
    """Single-draw offspring pmf at integers `ks`."""
    return thinned_offspring_pmf(law, 1, ks)


def immigration_survival(law: ImmigrationFamily, x) -> np.ndarray | float:
    """S(x) = P(B > x) at integer x; x < 0 returns 1."""
    x = np.asarray(x, dtype=float)
    xc = np.maximum(x, 0.0)
    if law.kind == "dpareto":
        # c last: a subnormal c times the log power first would round to a
        # few multiples of 5e-324 before the power of 1 + x, and S could rise
        s = np.minimum(1.0, law.c * (np.log(math.e + xc) ** law.beta * (1.0 + xc) ** (-law.kappa)))
    elif law.kind == "bernoulli":
        s = np.where(xc < 1.0, law.q, 0.0)
    elif law.kind == "constant":
        s = np.where(xc < law.b, 1.0, 0.0)
    elif law.p == 1.0:  # geometric0 at p = 1 is the point mass at 0
        s = np.zeros_like(xc)
    else:  # geometric0; log1p keeps a small p exact where 1 - p would round it
        s = np.exp((xc + 1.0) * math.log1p(-law.p))
    out = np.where(x < 0.0, 1.0, s)
    return float(out) if out.ndim == 0 else out


def immigration_pmf(law: ImmigrationFamily, ks: np.ndarray) -> np.ndarray:
    """pmf at integers `ks`, via survival differences S(k-1) - S(k)."""
    ks = np.asarray(ks)
    return immigration_survival(law, ks - 1) - immigration_survival(law, ks)


def env_immigration_survival(env: EnvSpec, x) -> np.ndarray | float:
    """Marginal immigration survival under the environment mixture."""
    if env.is_atomic:
        parts = [a.weight * immigration_survival(a.immigration, x) for a in env.atoms]
        return sum(parts)
    return immigration_survival(env.rate_immigration, x)


def pareto_tail_params(law: ImmigrationFamily) -> tuple[float, float, float]:
    """(c, kappa, beta) of a dpareto law; rejects other kinds."""
    _require(law.kind == "dpareto", "law is not heavy-tailed (dpareto)")
    return law.c, law.kappa, law.beta


def env_pareto_prefactor(env: EnvSpec) -> tuple[float, float, float]:
    """(c, kappa, beta) of the mixture immigration tail.

    Requires every atom's immigration to be dpareto with one shared kappa and
    beta, so the mixture survival is again c_mix * ln(e+x)^beta * (1+x)^-kappa
    with c_mix the weighted prefactor.
    """
    if not env.is_atomic:
        return pareto_tail_params(env.rate_immigration)
    for i, atom in enumerate(env.atoms, 1):
        label = f"atom {i} immigration {law_label(atom.immigration)}"
        _require(atom.immigration.kind == "dpareto", f"{label} is not heavy-tailed (dpareto)")
    params = [pareto_tail_params(a.immigration) for a in env.atoms]
    kappas = {round(k, 15) for _, k, _ in params}
    betas = {round(b, 15) for _, _, b in params}
    _require(len(kappas) == 1 and len(betas) == 1, "atoms disagree on tail exponent or log power")
    c_mix = math.fsum(a.weight * c for a, (c, _, _) in zip(env.atoms, params))
    return c_mix, params[0][1], params[0][2]


def _fmt_num(v) -> str:
    """An integer, or an integral float, without a point; else the float's repr."""
    if isinstance(v, int) or float(v) == int(v):
        return str(int(v))
    return repr(float(v))


def law_label(law: OffspringFamily | ImmigrationFamily) -> str:
    """Canonical config-syntax string for a law, e.g. 'poisson:0.3'."""
    return f"{law.kind}:" + ",".join(_fmt_num(getattr(law, name)) for name in law.PARAMS[law.kind])
