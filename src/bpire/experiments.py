"""Named experiments: chunked data-parallel sampling, metric evaluation,
and deterministic report emission.

Replica generation is cut into fixed chunks of 131072; chunk c of a purpose
draws from the stream (seed, purpose, ..., c), so the merged output is a
pure function of (config, seed) no matter how chunks land on workers.
Workers return either raw sample arrays (when later statistics need order
statistics) or per-threshold exceedance counts (when they do not), keeping
the 10^8-replica experiments within constant memory.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import tailstats
from .config import ExperimentConfig, config_to_dict
from .env_model import (
    ImmigrationFamily,
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

__all__ = ["CHUNK_REPLICAS", "RunReport", "run_experiment", "emit_report"]

CHUNK_REPLICAS = 1 << 17

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
    """One worker unit: everything needed to rebuild its RNG stream."""

    kind: str
    seed: int
    path: tuple[int, ...]
    count: int
    model: ModelSpec
    trunc: int = 0
    depth: int = 0
    law: ImmigrationFamily | None = None
    thresholds: tuple[float, ...] = ()
    alpha: float = 1.0


def _stream(seed: int, path: tuple[int, ...]) -> RngState:
    rs = RngState.from_seed(seed)
    for sid in path:
        rs = rs.split(sid)
    return rs


def _count_exceed(values: np.ndarray, thresholds: tuple[float, ...]) -> np.ndarray:
    return np.array([(values > t).sum() for t in thresholds], dtype=np.int64)


def _run_chunk(task: _Task):
    rng = _stream(task.seed, task.path)
    if task.kind == "stationary":
        return sample_stationary_backward_batch(task.model, task.trunc, rng, task.count)
    if task.kind == "random_sum":
        return _count_exceed(random_sum_batch(task.model, task.law, rng, task.count), task.thresholds)
    if task.kind == "composed":
        return _count_exceed(composed_thinning_batch(task.model, task.depth, rng, task.count), task.thresholds)
    if task.kind == "grey":
        return _count_exceed(grey_sum_batch(task.model, task.law, rng, task.count), task.thresholds)
    if task.kind == "sre":
        return _count_exceed(sample_perpetuity_batch(task.model, task.trunc, rng, task.count), task.thresholds)
    if task.kind == "decay":
        v = unit_progeny_batch(task.model, task.depth, rng, task.count).astype(np.float64)
        if task.alpha != 1.0:
            v = v**task.alpha
        return np.array([v.sum(), (v * v).sum()])
    raise ValueError(f"unknown chunk kind {task.kind!r}")


def _chunk_tasks(kind: str, seed: int, path: tuple[int, ...], total: int, **kw) -> list[_Task]:
    tasks = []
    index = 0
    left = total
    while left > 0:
        count = min(CHUNK_REPLICAS, left)
        tasks.append(_Task(kind=kind, seed=seed, path=path + (index,), count=count, **kw))
        index += 1
        left -= count
    return tasks


def _map_tasks(tasks: list[_Task], workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [_run_chunk(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_run_chunk, tasks))


def _gather_stationary(cfg: ExperimentConfig, trunc: int) -> np.ndarray:
    tasks = _chunk_tasks(
        "stationary", cfg.seed, (_P_STATIONARY,), cfg.replicas, model=cfg.model, trunc=trunc
    )
    return np.concatenate(_map_tasks(tasks, cfg.workers))


def _gather_counts(cfg: ExperimentConfig, kind: str, path: tuple[int, ...], thresholds, **kw) -> np.ndarray:
    tasks = _chunk_tasks(
        kind, cfg.seed, path, cfg.replicas,
        model=cfg.model, thresholds=tuple(float(t) for t in thresholds), **kw,
    )
    return np.sum(_map_tasks(tasks, cfg.workers), axis=0)


def _gather_by_depth(cfg: ExperimentConfig, kind: str, purpose: int, depths, **kw) -> list[np.ndarray]:
    """One merged result per depth, all depths mapped over a single pool."""
    tasks: list[_Task] = []
    bounds = []
    for d in depths:
        sub = _chunk_tasks(kind, cfg.seed, (purpose, d), cfg.replicas, model=cfg.model, depth=d, **kw)
        bounds.append((len(tasks), len(tasks) + len(sub)))
        tasks.extend(sub)
    parts = _map_tasks(tasks, cfg.workers)
    return [np.sum(parts[a:b], axis=0) for a, b in bounds]


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


def _run_theorem(cfg: ExperimentConfig):
    env = cfg.model.env
    km = kappa_moment(env, cfg.model.kappa)
    theory = 1.0 / (1.0 - km)
    trunc = choose_truncation(cfg.model, cfg.epsilon_trunc)

    def surv(x):
        return float(env_immigration_survival(env, x))

    xs, x_for = _eval_grid(surv, cfg)
    samples = _gather_stationary(cfg, trunc)
    report = tailstats.tail_ratio(samples, surv, xs)
    metrics = _level_metrics(cfg, report, x_for, theory)

    k = cfg.hill_k if cfg.hill_k > 0 else tailstats.default_hill_k(samples.size)
    kappa_hat, _ = tailstats.hill_estimate(samples, k)
    const_hat = _ratio_at(report, x_for[cfg.metric_levels[-1]])
    artifacts = [
        ("ratio.csv", "tail_csv", (report, _reliable_flags(surv, xs, samples.size))),
        ("hill.csv", "hill_csv", tailstats.hill_sweep(samples)),
        ("summary.json", "json", tailstats.summary_dict(const_hat, theory, kappa_hat)),
    ]
    if cfg.dump_samples:
        artifacts.append(("samples.txt", "samples_text", samples))
    return metrics, artifacts


def _run_lemma1(cfg: ExperimentConfig):
    km = kappa_moment(cfg.model.env, cfg.model.kappa)

    def surv(x):
        return float(immigration_survival(cfg.b_law, x))

    xs, x_for = _eval_grid(surv, cfg)
    counts = _gather_counts(cfg, "random_sum", (_P_RANDOM_SUM,), xs, law=cfg.b_law)
    report = tailstats.ratio_from_counts(counts, cfg.replicas, surv, xs)
    metrics = _level_metrics(cfg, report, x_for, km)
    const_hat = _ratio_at(report, x_for[cfg.metric_levels[-1]])
    artifacts = [
        ("ratio.csv", "tail_csv", (report, _reliable_flags(surv, xs, cfg.replicas))),
        ("summary.json", "json", tailstats.summary_dict(const_hat, km, None)),
    ]
    return metrics, artifacts


def _run_corollary(cfg: ExperimentConfig):
    env = cfg.model.env
    km = kappa_moment(env, cfg.model.kappa)

    def surv(x):
        return float(env_immigration_survival(env, x))

    x0 = tailstats.threshold_for_level(surv, cfg.level)
    ref = surv(x0)
    depths = list(range(cfg.i_max + 1))
    counts = _gather_by_depth(cfg, "composed", _P_COMPOSED, depths, thresholds=(float(x0),))
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
        c_n, kap_n, beta_n = pareto_tail_params(cfg.n_law)
    except ValueError as exc:
        raise ValidationError("n_law", str(exc)) from exc
    if (round(kap_n, 15), round(beta_n, 15)) != (round(kap_b, 15), round(beta_b, 15)):
        raise ValidationError("n_law", "count law must share the immigration tail exponent and log power")
    theory = 1.0 + (c_n / c_b) * km

    def surv(x):
        return float(env_immigration_survival(env, x))

    xs, x_for = _eval_grid(surv, cfg)
    counts = _gather_counts(cfg, "grey", (_P_GREY,), xs, law=cfg.n_law)
    report = tailstats.ratio_from_counts(counts, cfg.replicas, surv, xs)
    metrics = _level_metrics(cfg, report, x_for, theory)
    const_hat = _ratio_at(report, x_for[cfg.metric_levels[-1]])
    artifacts = [
        ("ratio.csv", "tail_csv", (report, _reliable_flags(surv, xs, cfg.replicas))),
        ("summary.json", "json", tailstats.summary_dict(const_hat, theory, None)),
    ]
    return metrics, artifacts


def _run_decay(cfg: ExperimentConfig):
    rho_theory = kappa_moment(cfg.model.env, cfg.alpha)
    depths = list(range(1, cfg.n_gens + 1))
    sums = _gather_by_depth(cfg, "decay", _P_DECAY, depths, alpha=cfg.alpha)
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
    env = cfg.model.env
    km = kappa_moment(env, cfg.model.kappa)
    theory = 1.0 / (1.0 - km)
    trunc = choose_truncation(cfg.model, cfg.epsilon_trunc)

    def surv(x):
        return float(env_immigration_survival(env, x))

    xs, x_for = _eval_grid(surv, cfg)
    counts = _gather_counts(cfg, "sre", (_P_SRE,), xs, trunc=trunc)
    report = tailstats.ratio_from_counts(counts, cfg.replicas, surv, xs)
    metrics = _level_metrics(cfg, report, x_for, theory)
    const_hat = _ratio_at(report, x_for[cfg.metric_levels[-1]])
    artifacts = [
        ("ratio.csv", "tail_csv", (report, _reliable_flags(surv, xs, cfg.replicas))),
        ("summary.json", "json", tailstats.summary_dict(const_hat, theory, None)),
    ]
    return metrics, artifacts


def _run_oracle(cfg: ExperimentConfig):
    kernel = build_kernel(cfg.model.env, cfg.state_cap)
    exact = stationary_power_iteration(kernel)
    trunc = choose_truncation(cfg.model, cfg.epsilon_trunc)
    samples = _gather_stationary(cfg, trunc)
    emp = empirical_pmf(samples, cfg.state_cap)
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
    trunc = choose_truncation(cfg.model, cfg.epsilon_trunc)
    samples = _gather_stationary(cfg, trunc)
    k = cfg.hill_k if cfg.hill_k > 0 else tailstats.default_hill_k(samples.size)
    kappa_hat, _ = tailstats.hill_estimate(samples, k)
    metrics = [_metric("kappa_hat", kappa_hat, cfg.model.kappa, cfg.tolerance, "rel")]
    artifacts = [("hill.csv", "hill_csv", tailstats.hill_sweep(samples))]
    if cfg.dump_samples:
        artifacts.append(("samples.txt", "samples_text", samples))
    return metrics, artifacts


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
        if kind == "tail_csv":
            rep, reliable = payload
            tailstats.write_tail_csv(path, rep, reliable)
        elif kind == "hill_csv":
            tailstats.write_hill_csv(path, payload)
        elif kind == "csv":
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
