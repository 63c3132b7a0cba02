"""Named experiments: chunked data-parallel sampling, metric evaluation,
and deterministic report emission.

Every experiment samples through one protocol.  A chunk sampler
`sampler(model, arg, rng, size)` runs on fixed chunks of 131072 replicas;
chunk c of a job draws from the stream (seed, purpose, ..., c), so the merged
output is a pure function of (config, seed) no matter how chunks land on
workers.  Inside a chunk the sampler runs in blocks of at most 8192
replicas, in order on the chunk's one stream, which keeps its temporaries
small enough for the heap to reuse.  A chunk reduces its draws, the blocks
concatenated, to a sufficient statistic: per-threshold
exceedance counts or moment sums, which merge by summing, or, where order
statistics are needed (theorem, hill, oracle), a value histogram, which
merges by adding counts on the union of values.  Memory therefore does not
grow with the replica count.  Only a sample dump (`dump_samples`) keeps the
raw draws, concatenated in chunk order, and builds its histogram from them.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import tailstats
from .config import ExperimentConfig, config_to_dict
from .env_model import (
    ModelSpec,
    check_conditions,
    env_immigration_survival,
    env_pareto_prefactor,
    immigration_survival,
    kappa_moment,
    pareto_tail_params,
)
from .errors import NotSubcritical, ValidationError
from .oracle import build_kernel, empirical_pmf, stationary_power_iteration, tv_distance
from .rng import STREAM_VERSION, RngState
from .simulator import (
    choose_truncation,
    composed_thinning_batch,
    grey_sum_batch,
    random_sum_batch,
    sample_stationary_backward_batch,
    unit_progeny_batch,
    write_samples_text,
)
from .sre_compare import sample_perpetuity_batch

__all__ = ["RunReport", "run_experiment", "emit_report"]

CHUNK_REPLICAS = 1 << 17
# replicas per sampler call inside a chunk: a block's float64 temporaries
# (64 KB) stay below glibc's 128 KB mmap threshold, so the heap reuses them
# instead of mapping and faulting in fresh pages for every array
_BLOCK = 8192

# purpose ids anchor the RNG stream tree; renumbering changes what every
# published seed means, so append only
_P_STATIONARY = 1
_P_RANDOM_SUM = 2
_P_COMPOSED = 3
_P_GREY = 4
_P_DECAY = 5
_P_SRE = 6


# ---- chunked sampling ---------------------------------------------------------

@dataclass(frozen=True)
class _Task:
    """One worker unit: a chunk sampler `sampler(model, arg, rng, count)`, the
    path of its RNG stream, and the statistic it reduces to (None keeps the
    raw samples, for dumps)."""

    sampler: Callable
    model: ModelSpec
    arg: object
    seed: int
    path: tuple[int, ...]
    count: int
    stat: Callable | None


def _stream(seed: int, path: tuple[int, ...]) -> RngState:
    rs = RngState.from_seed(seed)
    for sid in path:
        rs = rs.split(sid)
    return rs


def _count_exceed(values: np.ndarray, thresholds: tuple[float, ...]) -> np.ndarray:
    return np.array([(values > t).sum() for t in thresholds], dtype=np.int64)


def _moment_sums(values: np.ndarray, alpha: float) -> np.ndarray:
    v = values.astype(np.float64)
    if alpha != 1.0:
        v = v**alpha
    return np.array([v.sum(), (v * v).sum()])


_value_histogram = partial(np.unique, return_counts=True)


def _merge_histograms(parts) -> tuple[np.ndarray, np.ndarray]:
    """Chunk histograms merged by adding counts on the union of values."""
    union, where = np.unique(np.concatenate([v for v, _ in parts]), return_inverse=True)
    counts = np.zeros(union.size, dtype=np.int64)
    np.add.at(counts, where, np.concatenate([c for _, c in parts]))
    return union, counts


def _run_chunk(task: _Task):
    """The chunk's draws, sampled in blocks of at most _BLOCK replicas in
    order on the chunk's one stream, then reduced to its statistic."""
    rng = _stream(task.seed, task.path)
    blocks = [
        task.sampler(task.model, task.arg, rng, min(_BLOCK, task.count - lo)) for lo in range(0, task.count, _BLOCK)
    ]
    values = np.concatenate(blocks)
    return values if task.stat is None else task.stat(values)


def _gather(cfg: ExperimentConfig, sampler, jobs, stat=None, merge=partial(np.sum, axis=0)) -> list:
    """One merged result per job `(stream path prefix, sampler argument)`.

    Each job's cfg.replicas are cut into chunks of CHUNK_REPLICAS, the last
    one partial, and chunk c draws from the stream (seed, *prefix, c); the
    chunks of every job map over one pool.  `merge` folds a job's chunk
    results, in chunk order, into one.
    """
    tasks: list[_Task] = []
    bounds = []
    for prefix, arg in jobs:
        start = len(tasks)
        for index, offset in enumerate(range(0, cfg.replicas, CHUNK_REPLICAS)):
            count = min(CHUNK_REPLICAS, cfg.replicas - offset)
            tasks.append(_Task(sampler, cfg.model, arg, cfg.seed, prefix + (index,), count, stat))
        bounds.append((start, len(tasks)))
    if cfg.workers <= 1 or len(tasks) <= 1:
        parts = [_run_chunk(t) for t in tasks]
    else:
        # imported here: 1-worker runs and `import bpire` skip multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(tasks))) as pool:
            parts = list(pool.map(_run_chunk, tasks))
    return [merge(parts[a:b]) for a, b in bounds]


def _stationary_histogram(cfg: ExperimentConfig, keep_samples: bool):
    """Value histogram (values, counts) of cfg.replicas stationary draws, and
    the draws in chunk order when kept for a dump (else None).  A dump's
    histogram is built from the dumped draws, which gives the same arrays."""
    job = ((_P_STATIONARY,), choose_truncation(cfg.model, cfg.epsilon_trunc))
    if keep_samples:
        [samples] = _gather(cfg, sample_stationary_backward_batch, [job], merge=np.concatenate)
        return _value_histogram(samples), samples
    [hist] = _gather(cfg, sample_stationary_backward_batch, [job], _value_histogram, _merge_histograms)
    return hist, None


# ---- metrics and reports ----------------------------------------------------

def _metric(name: str, estimate, theory, tolerance: float, kind: str) -> dict:
    e = float(estimate)
    if kind == "rel":
        ok = abs(e - theory) <= tolerance * abs(theory)
    elif kind == "abs":
        ok = abs(e - theory) <= tolerance
    elif kind == "upper":
        ok = e <= theory + tolerance
    elif kind == "lower":
        ok = e >= theory - tolerance
    elif kind == "below":
        ok = e < theory
    elif kind == "finite":
        ok = math.isfinite(e)
    else:
        raise ValueError(f"unknown metric kind {kind!r}")
    return {
        "name": name,
        "estimate": e,
        "theory": theory,
        "tolerance": tolerance,
        "kind": kind,
        "pass": bool(ok),
    }


@dataclass(frozen=True)
class RunReport:
    """Outcome of one experiment; artifacts carry file payloads for emit_report
    and stay out of the JSON."""

    experiment: str
    seed: int
    passed: bool
    metrics: tuple[dict, ...]
    wall_ms: float
    config: dict
    artifacts: tuple = field(repr=False, default=())

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "stream_version": STREAM_VERSION,
            "pass": self.passed,
            "metrics": list(self.metrics),
            "wall_ms": self.wall_ms,
            "config": self.config,
        }


def _eval_grid(surv, cfg: ExperimentConfig):
    """Threshold per requested survival level, deduplicated evaluation grid."""
    levels = sorted(set(cfg.grid) | set(cfg.metric_levels), reverse=True)
    xs = tailstats.grid_from_levels(surv, levels)
    x_for_level = {lv: int(x) for lv, x in zip(levels, xs)}
    return np.unique(xs), x_for_level


def _ratio_at(report: tailstats.TailReport, x: int) -> float:
    return float(report.ratio[int(np.searchsorted(report.x_grid, x))])


def _reliable_flags(surv, xs, n: int) -> list[bool]:
    floor = 1.0 / math.sqrt(n)
    return [float(surv(int(x))) >= floor for x in xs]


def _level_metrics(cfg: ExperimentConfig, report, x_for_level, theory: float) -> list[dict]:
    return [
        _metric(f"ratio_at_{lv:g}", _ratio_at(report, x_for_level[lv]), theory, cfg.tolerance, "rel")
        for lv in cfg.metric_levels
    ]


# ---- experiment bodies -------------------------------------------------------

def _run_check(cfg: ExperimentConfig):
    rep = check_conditions(cfg.model)
    metrics = [
        _metric("kappa_moment", rep.kappa_moment, 1.0, 0.0, "below"),
        _metric("moment_A", rep.moment_a, None, 0.0, "finite"),
    ]
    return metrics, [("condition.json", "json", rep.to_dict())]


def _survival(survival_fn, law):
    """x -> float survival of `law` (an immigration law or an environment)."""
    return lambda x: float(survival_fn(law, x))


def _stationary_constant(cfg: ExperimentConfig) -> float:
    return 1.0 / (1.0 - kappa_moment(cfg.model.env, cfg.model.kappa))


def _hill(cfg: ExperimentConfig, hist, samples):
    """Hill estimate at cfg.hill_k (default k = n^(2/3)) from a value
    histogram, and its artifacts: hill.csv, and samples.txt for a dump."""
    values, counts = hist
    k = cfg.hill_k if cfg.hill_k > 0 else tailstats.default_hill_k(cfg.replicas)
    kappa_hat, _ = tailstats.hill_estimate(values, k, counts)
    artifacts = [("hill.csv", "csv", tailstats.hill_table(tailstats.hill_sweep(values, counts=counts)))]
    if samples is not None:
        artifacts.append(("samples.txt", "samples_text", samples))
    return kappa_hat, artifacts


def _run_tail_ratio(cfg: ExperimentConfig, surv, theory: float, sampler=None, job=None):
    """Shared body of theorem, lemma1, grey and sre: evaluation grid, sampled
    tail against `surv` at each level, ratio.csv and summary.json.

    Chunks of `sampler` return per-threshold exceedance counts.  theorem
    passes no sampler: its stationary draws reduce to a value histogram,
    which gives the exceedance counts and the Hill estimate.
    """
    xs, x_for = _eval_grid(surv, cfg)
    if sampler is None:
        hist, samples = _stationary_histogram(cfg, cfg.dump_samples)
        counts = tailstats.exceedances(hist[0], xs, hist[1])
        kappa_hat, hill_artifacts = _hill(cfg, hist, samples)
    else:
        stat = partial(_count_exceed, thresholds=tuple(float(x) for x in xs))
        [counts] = _gather(cfg, sampler, [job], stat)
        kappa_hat, hill_artifacts = None, []
    report = tailstats.ratio_from_counts(counts, cfg.replicas, surv, xs)
    const_hat = _ratio_at(report, x_for[cfg.metric_levels[-1]])
    artifacts = [
        ("ratio.csv", "csv", tailstats.tail_table(report, _reliable_flags(surv, xs, cfg.replicas))),
        ("summary.json", "json", tailstats.summary_dict(const_hat, theory, kappa_hat)),
        *hill_artifacts,
    ]
    return _level_metrics(cfg, report, x_for, theory), artifacts


def _run_theorem(cfg: ExperimentConfig):
    surv = _survival(env_immigration_survival, cfg.model.env)
    return _run_tail_ratio(cfg, surv, _stationary_constant(cfg))


def _run_lemma1(cfg: ExperimentConfig):
    km = kappa_moment(cfg.model.env, cfg.model.kappa)
    surv = _survival(immigration_survival, cfg.b_law)
    return _run_tail_ratio(cfg, surv, km, random_sum_batch, ((_P_RANDOM_SUM,), cfg.b_law))


def _run_corollary(cfg: ExperimentConfig):
    km = kappa_moment(cfg.model.env, cfg.model.kappa)
    surv = _survival(env_immigration_survival, cfg.model.env)
    x0 = tailstats.threshold_for_level(surv, cfg.level)
    ref = surv(x0)
    depths = list(range(cfg.i_max + 1))
    stat = partial(_count_exceed, thresholds=(float(x0),))
    counts = _gather(cfg, composed_thinning_batch, [((_P_COMPOSED, d), d) for d in depths], stat)
    n = cfg.replicas
    rows = []
    ratios = []
    for d, c in zip(depths, counts):
        p = float(c[0]) / n
        se = math.sqrt(p * (1.0 - p) / n)
        ratios.append(p / ref)
        rows.append((str(d), repr(p / ref), repr(se / ref)))
    rho_hat, r2 = tailstats.fit_geometric_decay(depths, ratios)
    metrics = [
        _metric("decay_ratio", rho_hat, km, cfg.tolerance, "rel"),
        _metric("fit_r2", r2, 0.98, 0.0, "lower"),
    ]
    return metrics, [("depth_ratio.csv", "csv", ("i,ratio,ratio_se", rows))]


def _run_grey(cfg: ExperimentConfig):
    env = cfg.model.env
    km = kappa_moment(env, cfg.model.kappa)
    try:
        c_b, kap_b, beta_b = env_pareto_prefactor(env)
    except ValueError as exc:
        raise ValidationError("env", str(exc)) from exc
    try:
        c_n, kap_n, beta_n = pareto_tail_params(cfg.n_law)
    except ValueError as exc:
        raise ValidationError("n_law", str(exc)) from exc
    if (round(kap_n, 15), round(beta_n, 15)) != (round(kap_b, 15), round(beta_b, 15)):
        raise ValidationError("n_law", "count law must share the immigration tail exponent and log power")
    theory = 1.0 + (c_n / c_b) * km
    surv = _survival(env_immigration_survival, env)
    return _run_tail_ratio(cfg, surv, theory, grey_sum_batch, ((_P_GREY,), cfg.n_law))


def _run_decay(cfg: ExperimentConfig):
    rho_theory = kappa_moment(cfg.model.env, cfg.alpha)
    depths = list(range(1, cfg.n_gens + 1))
    stat = partial(_moment_sums, alpha=cfg.alpha)
    sums = _gather(cfg, unit_progeny_batch, [((_P_DECAY, d), d) for d in depths], stat)
    n = cfg.replicas
    means = []
    rows = []
    for d, (s, s2) in zip(depths, sums):
        mean = s / n
        var = max(0.0, s2 / n - mean * mean)
        means.append(mean)
        rows.append((str(d), repr(float(mean)), repr(math.sqrt(var / n))))
    rho_hat, r2 = tailstats.fit_geometric_decay(depths, means)
    metrics = [_metric("decay_rate", rho_hat, rho_theory, cfg.tolerance, "abs")]
    return metrics, [("decay.csv", "csv", ("n,moment,se", rows))]


def _run_sre(cfg: ExperimentConfig):
    surv = _survival(env_immigration_survival, cfg.model.env)
    job = ((_P_SRE,), choose_truncation(cfg.model, cfg.epsilon_trunc))
    return _run_tail_ratio(cfg, surv, _stationary_constant(cfg), sample_perpetuity_batch, job)


def _run_oracle(cfg: ExperimentConfig):
    kernel = build_kernel(cfg.model.env, cfg.state_cap)
    exact = stationary_power_iteration(kernel)
    (values, counts), _ = _stationary_histogram(cfg, False)
    emp = empirical_pmf(values, cfg.state_cap, counts)
    tv = tv_distance(exact.pmf, emp)
    metrics = [
        _metric("tv_distance", tv, 0.0, cfg.tv_tol, "upper"),
        _metric("clipped_mass", exact.residual, 0.0, 1e-8, "upper"),
    ]
    exact_rows = [(str(s), repr(float(p))) for s, p in enumerate(exact.pmf)]
    emp_rows = [(str(s), repr(float(p))) for s, p in enumerate(emp)]
    artifacts = [
        ("stationary.csv", "csv", ("state,probability", exact_rows)),
        ("empirical.csv", "csv", ("state,probability", emp_rows)),
    ]
    return metrics, artifacts


def _run_hill(cfg: ExperimentConfig):
    hist, samples = _stationary_histogram(cfg, cfg.dump_samples)
    kappa_hat, artifacts = _hill(cfg, hist, samples)
    return [_metric("kappa_hat", kappa_hat, cfg.model.kappa, cfg.tolerance, "rel")], artifacts


_RUNNERS = {
    "check": _run_check,
    "theorem": _run_theorem,
    "lemma1": _run_lemma1,
    "corollary": _run_corollary,
    "grey": _run_grey,
    "decay": _run_decay,
    "sre": _run_sre,
    "oracle": _run_oracle,
    "hill": _run_hill,
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run one named experiment and judge its metrics against theory values.

    Every experiment except `check` requires the standing condition to hold
    and aborts otherwise: the limit constants under test are meaningless for
    a non-subcritical model.
    """
    t0 = time.perf_counter()
    if cfg.experiment != "check":
        rep = check_conditions(cfg.model)
        if not rep.passed:
            raise NotSubcritical(
                f"standing condition fails: E[m^kappa] = {rep.kappa_moment!r}"
                + ("" if math.isfinite(rep.moment_a) else ", offspring moment diverges")
            )
    metrics, artifacts = _RUNNERS[cfg.experiment](cfg)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return RunReport(
        experiment=cfg.experiment,
        seed=cfg.seed,
        passed=all(m["pass"] for m in metrics),
        metrics=tuple(metrics),
        wall_ms=wall_ms,
        config=config_to_dict(cfg),
        artifacts=tuple(artifacts),
    )


def emit_report(report: RunReport, out_dir) -> list[str]:
    """Write report.json plus the experiment's CSV/JSON artifacts.

    Same (config, seed) reproduces every byte except wall_ms in report.json.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, kind, payload in report.artifacts:
        path = os.path.join(out_dir, name)
        if kind == "csv":
            header, rows = payload
            with open(path, "w") as fh:
                fh.write(header + "\n")
                for row in rows:
                    fh.write(",".join(row) + "\n")
        elif kind == "json":
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        elif kind == "samples_text":
            write_samples_text(path, payload)
        else:
            raise ValueError(f"unknown artifact kind {kind!r}")
        written.append(path)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written
