"""Experiment driver: metric judging, chunked determinism, reports, CLI."""

import dataclasses
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import pathlib
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as hst

from bpire import cli, env_model, experiments, oracle, tailstats
from bpire.config import EXPERIMENTS, load_config
from bpire.env_model import DPARETO_BETA_PER_KAPPA, ImmigrationFamily, OffspringFamily, kappa_moment, offspring_moment
from bpire.errors import NotSubcritical, ParseError, SeriesDivergence, ValidationError
from bpire.experiments import (
    CHUNK_REPLICAS,
    _merge_histograms,
    _metric,
    _value_histogram,
    emit_report,
    run_experiment,
)
from bpire.rng import STREAM_VERSION
from bpire.simulator import grey_sum_batch, sample_stationary_backward_batch

from conftest import two_atom_model

SUBCRITICAL = """\
[model]
kappa = 2

[env]
atoms =
    0.5 poisson:0.3 dpareto:2,1,0
    0.5 poisson:0.9 dpareto:2,1,0
"""

SUPERCRITICAL = """\
[model]
kappa = 2

[env]
atoms =
    1.0 poisson:1.5 dpareto:2,1,0
"""


def _cfg_file(tmp_path, body, extra="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(body + ("\n[experiment]\n" + extra if extra else ""))
    return str(path)


# ---- metric judging ----------------------------------------------------------


def test_metric_rel():
    assert _metric("m", 1.10, 1.0, 0.15, "rel")["pass"]
    assert not _metric("m", 1.20, 1.0, 0.15, "rel")["pass"]


def test_metric_abs():
    assert _metric("m", 0.515, 0.5, 0.02, "abs")["pass"]
    assert not _metric("m", 0.53, 0.5, 0.02, "abs")["pass"]


def test_metric_bounds():
    assert _metric("m", 0.004, 0.0, 0.005, "upper")["pass"]
    assert not _metric("m", 0.006, 0.0, 0.005, "upper")["pass"]
    assert _metric("m", 0.99, 0.98, 0.0, "lower")["pass"]
    assert not _metric("m", 0.97, 0.98, 0.0, "lower")["pass"]


def test_metric_strict_and_finite():
    assert _metric("m", 0.45, 1.0, 0.0, "below")["pass"]
    assert not _metric("m", 1.0, 1.0, 0.0, "below")["pass"]
    assert _metric("m", 3.0, None, 0.0, "finite")["pass"]
    assert not _metric("m", math.inf, None, 0.0, "finite")["pass"]


def test_metric_unknown_kind():
    with pytest.raises(ValueError):
        _metric("m", 1.0, 1.0, 0.1, "approx")


def test_metric_dict_shape():
    m = _metric("m", 1, 2.0, 0.1, "rel")
    assert set(m) == {"name", "estimate", "theory", "tolerance", "kind", "pass"}
    assert isinstance(m["estimate"], float) and isinstance(m["pass"], bool)


# ---- driver ------------------------------------------------------------------


def test_check_experiment_passes_and_reports(tmp_path):
    cfg = load_config(_cfg_file(tmp_path, SUBCRITICAL), experiment="check")
    report = run_experiment(cfg)
    assert report.passed
    by_name = {m["name"]: m for m in report.metrics}
    assert by_name["kappa_moment"]["estimate"] == pytest.approx(0.45)
    assert report.to_dict()["pass"] is True


def test_check_experiment_fails_without_raising(tmp_path):
    cfg = load_config(_cfg_file(tmp_path, SUPERCRITICAL), experiment="check")
    report = run_experiment(cfg)
    assert not report.passed


def test_other_experiments_refuse_supercritical_models(tmp_path):
    path = _cfg_file(tmp_path, SUPERCRITICAL, "b_law = dpareto:2,1,0\nreplicas = 1000\n")
    cfg = load_config(path, experiment="lemma1")
    with pytest.raises(NotSubcritical):
        run_experiment(cfg)


def _lemma_cfg(tmp_path, workers, replicas=400_000):
    extra = (
        f"b_law = dpareto:2,1,0\nreplicas = {replicas}\n"
        "grid = 1e-1, 1e-2\nmetric_levels = 1e-2\n"
        f"workers = {workers}\n"
    )
    name = f"lemma_w{workers}.cfg"
    return load_config(_cfg_file(tmp_path, SUBCRITICAL, extra, name), experiment="lemma1")


def _report_key(report_path):
    with open(report_path) as fh:
        doc = json.load(fh)
    del doc["wall_ms"]
    del doc["config"]["workers"]
    del doc["config"]["out_dir"]
    return json.dumps(doc, sort_keys=True)


def test_worker_count_does_not_change_results(tmp_path):
    # 400k replicas spans three full chunks plus a ragged tail, so the merge
    # order actually differs between the two runs.
    assert _lemma_cfg(tmp_path, 1).replicas > 3 * CHUNK_REPLICAS
    outs = {}
    for w in (1, 3):
        cfg = _lemma_cfg(tmp_path, w)
        out = tmp_path / f"out_w{w}"
        emit_report(run_experiment(cfg), out)
        outs[w] = out
    assert (outs[1] / "ratio.csv").read_bytes() == (outs[3] / "ratio.csv").read_bytes()
    assert (outs[1] / "summary.json").read_bytes() == (outs[3] / "summary.json").read_bytes()
    assert _report_key(outs[1] / "report.json") == _report_key(outs[3] / "report.json")


def test_same_seed_reproduces_artifact_bytes(tmp_path):
    outs = []
    for tag in ("a", "b"):
        cfg = _lemma_cfg(tmp_path, 1, replicas=50_000)
        out = tmp_path / f"rep_{tag}"
        files = emit_report(run_experiment(cfg), out)
        assert [os.path.basename(f) for f in files] == ["ratio.csv", "summary.json", "report.json"]
        outs.append(out)
    a, b = outs
    assert (a / "ratio.csv").read_bytes() == (b / "ratio.csv").read_bytes()
    assert _report_key(a / "report.json") == _report_key(b / "report.json")


def _ratio_grid(report) -> list[str]:
    [(_, rows)] = [payload for name, _, payload in report.artifacts if name == "ratio.csv"]
    return [row[3] for row in rows]


def test_seed_changes_results(tmp_path):
    # the whole ratio grid: one deep level's ratio is a count over a few
    # expected exceedances, and two seeds can give the same one
    base = _cfg_file(tmp_path, SUBCRITICAL, "b_law = dpareto:2,1,0\nreplicas = 50000\n")
    r1 = run_experiment(load_config(base, experiment="lemma1", seed=1))
    r2 = run_experiment(load_config(base, experiment="lemma1", seed=2))
    assert _ratio_grid(r1) != _ratio_grid(r2)


COIN = """\
[model]
kappa = 2

[env]
atoms =
    1.0 bernoulli:0.5 bernoulli:0.5
"""


def test_oracle_experiment_small(tmp_path):
    # Bounded immigration: the truncated kernel loses next to no mass, so the
    # clipped_mass gate is meaningful at the default cap.
    path = _cfg_file(tmp_path, COIN, "replicas = 200000\ntolerance = 0.01\n")
    cfg = load_config(path, experiment="oracle")
    report = run_experiment(cfg)
    assert report.passed, report.metrics
    out = tmp_path / "oracle_out"
    emit_report(report, out)
    assert (out / "stationary.csv").exists() and (out / "empirical.csv").exists()



def test_oracle_judges_tv_distance_by_tolerance(tmp_path, capsys):
    # no sampled pmf matches the exact one to the last bit
    path = _cfg_file(tmp_path, COIN, "replicas = 20000\ntolerance = 0\n")
    code = cli.main(["oracle", "--config", path, "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert code == 1
    with open(tmp_path / "o" / "report.json") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["metrics"]}
    assert metrics["tv_distance"]["tolerance"] == 0.0 and not metrics["tv_distance"]["pass"]
    assert metrics["clipped_mass"]["pass"]


def test_power_iteration_past_its_sweep_cap_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_SWEEPS", 1)
    code = cli.main(["oracle", "--config", str(CONFIGS / "oracle_bernoulli.cfg"), "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err == "error: power iteration exceeded 1 sweeps\n"

HALVING = """\
[model]
kappa = 1

[env]
atoms =
    1.0 poisson:0.5 constant:1
"""


def test_decay_csv_is_numeric(tmp_path):
    path = _cfg_file(tmp_path, HALVING, "replicas = 20000\nn_gens = 4\n")
    out = tmp_path / "decay_out"
    emit_report(run_experiment(load_config(path, experiment="decay")), out)
    header, *rows = (out / "decay.csv").read_text().splitlines()
    assert header == "n,moment,se" and len(rows) == 4
    for row in rows:
        for cell in row.split(","):
            float(cell)


def test_decay_refuses_an_alpha_other_than_one_at_config_time(tmp_path, capsys):
    # only E[Z_n] has a known decay rate; alpha = 400 is refused before any
    # sampling, and nothing is written
    path = _cfg_file(tmp_path, HALVING, "replicas = 20000\nalpha = 400\n")
    out = tmp_path / "o"
    code = cli.main(["decay", "--config", path, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("config error: alpha: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_decay_judges_the_mean_against_the_mean_offspring_rate(tmp_path):
    # config_a's atoms: E[m] = 0.6, while E[m^kappa] = 0.45 lies outside the
    # tolerance of the estimate
    cfg = load_config(_cfg_file(tmp_path, SUBCRITICAL, "replicas = 20000\n"), experiment="decay")
    [metric] = run_experiment(cfg).metrics
    assert metric["theory"] == pytest.approx(0.6, rel=1e-15) and metric["pass"], metric
    assert abs(metric["estimate"] - kappa_moment(cfg.model.env, cfg.model.kappa)) > metric["tolerance"]


def test_a_moment_series_past_its_cap_exits_three(tmp_path, capsys, monkeypatch):
    # geometric0:1e-7 needs about 10^9 terms; a cap of 1000 shows the same
    # refusal at once.  E[m^kappa] = 0.1 (10^7 - 1)^0.01 = 0.117 passes, so
    # the moment is evaluated
    monkeypatch.setattr(env_model, "_SERIES_CAP", 1000)
    with pytest.raises(SeriesDivergence):
        offspring_moment(OffspringFamily.geometric0(1e-7), 2.5)
    atoms = "    0.1 geometric0:1e-7 dpareto:2,1,0\n    0.9 poisson:0 dpareto:2,1,0\n"
    path = _cfg_file(tmp_path, f"[model]\nkappa = 0.01\n\n[env]\natoms =\n{atoms}")
    code = cli.main(["check", "--config", path, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: geometric0 moment series exceeded iteration cap\n"


@pytest.mark.parametrize(
    "kappa, offspring, code, err",
    [
        (300, "poisson:0.3", 3, "error: poisson moment of order 300.5 exceeds float64\n"),
        (300, "geometric0:0.9", 3, "error: geometric0 moment of order 300.5 exceeds float64\n"),
        (300, "binomial:20,0.01", 3, "error: binomial moment of order 300.5 exceeds float64\n"),
        # E[A^150.5] is about 1.04e175; its terms' k^150.5 pass float64 from k = 112
        (150, "poisson:0.3", 0, ""),
    ],
)
def test_a_moment_past_float64_exits_three_with_one_line(tmp_path, capsys, kappa, offspring, code, err):
    # E[m^kappa] is tiny, so the offspring moment of order kappa + 1/2 is evaluated
    path = _cfg_file(tmp_path, f"[model]\nkappa = {kappa}\n\n[env]\natoms =\n    1.0 {offspring} dpareto:{kappa},1,0\n")
    assert cli.main(["check", "--config", path, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == err
    if code == 0:
        with open(tmp_path / "o" / "condition.json") as fh:
            assert json.load(fh)["moment_A"] == pytest.approx(1.0432808427499605e175, rel=1e-12)


@pytest.mark.parametrize(
    "env, moment",
    [
        ("atoms =\n    1.0 geometric0:1e-7 dpareto:2,1,0\n", "99999980000001.03"),
        # m^2 passes float64, so E[m^kappa] reads inf
        ("atoms =\n    1.0 poisson:1e200 dpareto:2,1,0\n", "inf"),
        ("atoms =\n    1.0 geometric0:1e-300 dpareto:2,1,0\n", "inf"),
        ("uniform_poisson_rate = 0.1, 1e200\nimmigration = dpareto:2,1,0\n", "inf"),
    ],
    ids=["geometric0-1e-7", "poisson-1e200", "geometric0-1e-300", "uniform-rate-1e200"],
)
def test_a_failed_kappa_moment_skips_the_moment_series(tmp_path, capsys, monkeypatch, env, moment):
    # E[m^2] is at least about 1e14; with a cap of 0 any summed series would raise
    monkeypatch.setattr(env_model, "_SERIES_CAP", 0)
    path = _cfg_file(tmp_path, f"[model]\nkappa = 2\n\n[env]\n{env}")
    assert cli.main(["check", "--config", path, "--out", str(tmp_path / "o")]) == 2
    out = capsys.readouterr().out
    assert f"kappa_moment: estimate={float(moment):.6g}" in out and "FAIL (standing condition violated)" in out
    code = cli.main(["theorem", "--config", path, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"hypothesis failure: standing condition fails: E[m^kappa] = {moment}\n"


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "offspring, field",
    [("poisson:1.5", "moment_A"), ("poisson:1e200", "kappa_moment")],
    ids=["nan-moment", "inf-kappa-moment"],
)
def test_non_finite_numbers_are_written_as_null(tmp_path, capsys, offspring, field):
    # E[m^2] >= 1 leaves moment_A NaN, and m^2 = 1e400 reads inf; the CLI line
    # prints them, the JSON files write null
    path = _cfg_file(tmp_path, f"[model]\nkappa = 2\n\n[env]\natoms =\n    1.0 {offspring} dpareto:2,1,0\n")
    assert cli.main(["check", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"{field}: estimate={'nan' if field == 'moment_A' else 'inf'}" in capsys.readouterr().out
    condition, report = (
        json.loads((tmp_path / "o" / name).read_text(), parse_constant=_refuse_constant)
        for name in ("condition.json", "report.json")
    )
    assert condition[field] is None
    assert {m["name"]: m["estimate"] for m in report["metrics"]}[field] is None


def test_check_sums_a_moment_whose_head_underflows(tmp_path, capsys):
    # exp(-1000) underflows, so a product-form series gives the poisson:1000
    # atom moment 0 and moment_A 0.4717; 40-digit mpmath gives 0.78852...
    atoms = "    0.99999999 poisson:0.3 dpareto:2,1,0\n    0.00000001 poisson:1000 dpareto:2,1,0\n"
    path = _cfg_file(tmp_path, f"[model]\nkappa = 2\n\n[env]\natoms =\n{atoms}")
    assert cli.main(["check", "--config", path, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    condition = json.loads((tmp_path / "o" / "condition.json").read_text())
    assert condition["moment_A"] == pytest.approx(0.78852469610713068, rel=1e-12)


def test_check_passes_a_poisson_atom_whose_mean_is_past_the_cap(tmp_path, capsys):
    # E[m^2] = 0.45; poisson:6000000 has an sd of 2449, so a sum from its
    # mode needs 5 blocks of 4096 a side.  40-digit mpmath gives moment_A =
    # 882.28828691552623
    atoms = "    0.99999999999999 poisson:0.3 dpareto:2,1,0\n    0.00000000000001 poisson:6000000 dpareto:2,1,0\n"
    path = _cfg_file(tmp_path, f"[model]\nkappa = 2\n\n[env]\natoms =\n{atoms}")
    assert cli.main(["check", "--config", path, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    condition = json.loads((tmp_path / "o" / "condition.json").read_text())
    assert condition["moment_A"] == pytest.approx(882.28828691552623, rel=1e-12)


def test_a_mode_past_int64_exits_three_at_the_cap(tmp_path, capsys):
    # poisson:10^20 has its mode past int64 and an sd of 10^10: no sum from
    # its mode fits, so check names the cap (exit 3) in one line
    atoms = "    1.0 poisson:0.3 dpareto:2,1,0\n    1e-70 poisson:100000000000000000000 dpareto:2,1,0\n"
    path = _cfg_file(tmp_path, f"[model]\nkappa = 2\n\n[env]\natoms =\n{atoms}")
    assert cli.main(["check", "--config", path, "--out", str(tmp_path / "o")]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: poisson moment series exceeded iteration cap\n"


def test_a_binomial_trial_count_past_int64_is_a_config_error(tmp_path, capsys):
    n = 10**30
    path = _cfg_file(tmp_path, f"[model]\nkappa = 2\n\n[env]\natoms =\n    1.0 binomial:{n},3e-31 dpareto:2,1,0\n")
    assert cli.main(["check", "--config", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith(f"binomial n must be an integer in [1, 2^62), got {n}\n")
    assert err.count("\n") == 1


def test_a_kernel_row_whose_trial_count_reaches_2_to_the_62_exits_four(tmp_path, capsys):
    # n = 2^61 passes check (mean 0.3), but row x = 2 of the kernel has
    # 2^62 trials, which int64 products would wrap into a negative index
    path = _cfg_file(tmp_path, "[model]\nkappa = 2\n\n[env]\natoms =\n    1.0 binomial:2305843009213693952,1.3e-19 dpareto:2,1,0\n")
    assert cli.main(["oracle", "--config", path, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: binomial trial count ") and err.endswith(" reaches 2^62\n")
    assert err.count("\n") == 1


def test_a_huge_binomial_trial_count_runs_in_bounded_memory(tmp_path, capsys):
    # 10^12 + 1 support points: arithmetic over all of them would need
    # terabytes and exit 5
    body = "[model]\nkappa = 2\n\n[env]\natoms =\n    1.0 binomial:1000000000000,5e-13 dpareto:2,1,0\n"
    path = _cfg_file(tmp_path, body, "replicas = 20000\n")
    assert cli.main(["check", "--config", path, "--out", str(tmp_path / "check")]) == 0
    # the dpareto tail puts 2.5e-4 of mass past the cap of 64, so clipped_mass fails
    assert cli.main(["oracle", "--config", path, "--out", str(tmp_path / "oracle")]) == 1
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("experiment, level", [("theorem", "0.01"), ("corollary", "0.001"), ("sre", "0.01")])
def test_an_unreachable_survival_level_exits_four_naming_it(tmp_path, capsys, experiment, level):
    # the standing condition holds, but S(x) = (1 + x)^-0.05 stays above 1e-2
    # up to x = 10^40, past the 2^62 guard: the run stops before sampling
    path = _cfg_file(tmp_path, "[model]\nkappa = 0.05\n\n[env]\natoms =\n    1.0 poisson:0.3 dpareto:0.05,1,0\n")
    assert cli.main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == f"error: survival level {level} unreachable below 2^62\n"


def test_dump_samples_round_trip(tmp_path):
    path = _cfg_file(
        tmp_path,
        SUBCRITICAL,
        "replicas = 2000\ndump_samples = true\ngrid = 1e-1\nmetric_levels = 1e-1\n",
    )
    cfg = load_config(path, experiment="theorem")
    out = tmp_path / "dump_out"
    emit_report(run_experiment(cfg), out)
    samples = np.loadtxt(out / "samples.txt", dtype=np.int64)
    assert samples.size == 2000
    assert (samples >= 0).all()


# ---- stream pin ----------------------------------------------------------------

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
PIN_CHUNK = 1000
# Every bundled experiment at seed 7 on 1000-replica chunks, each run ending
# in a partial chunk, then the samplers on the PIN_INLINE environments.
# corollary and decay need enough replicas for their deepest level to be hit
# at all, or the log-linear fit has nothing to fit: decay_poisson.cfg's
# tenth generation keeps a unit alive with probability 6.4e-4, so 15 500
# replicas expect 10 survivors there (3 500 expected 2.2, and a stream could
# give none); config_a's depth-4 exceedance of x0 = 31 has probability
# 5.1e-5, so 200 500 replicas expect 10 (30 500 expected 1.6, and stream
# version 6 gave none); lemma1 on the inline environments needs enough for
# their tail counts to differ.
PIN_RUNS = (
    ("check", "config_a.cfg", 2_500),
    ("theorem", "config_a.cfg", 2_500),
    ("lemma1", "config_a.cfg", 2_500),
    ("corollary", "config_a.cfg", 200_500),
    ("grey", "grey.cfg", 2_500),
    ("decay", "decay_poisson.cfg", 15_500),
    ("sre", "config_a.cfg", 2_500),
    ("oracle", "oracle_bernoulli.cfg", 2_500),
    ("hill", "config_a.cfg", 2_500),
    ("continuous/theorem", "continuous", 2_500),
    ("continuous/lemma1", "continuous", 20_500),
    ("continuous/sre", "continuous", 2_500),
    ("continuous/decay", "continuous", 3_500),
    ("mixed/theorem", "mixed", 2_500),
    ("mixed/lemma1", "mixed", 20_500),
    ("mixed/corollary", "mixed", 30_500),
    ("mixed/sre", "mixed", 2_500),
    ("mixed/decay", "mixed", 3_500),
)
# Environments no bundled config covers, written out here: a uniform Poisson
# rate range, which thins at each draw's own rate, and four atoms covering
# every offspring family and three immigration samplers (dpareto with a log
# power inverts by bisection).
PIN_INLINE = {
    "continuous": """\
[model]
kappa = 2

[env]
uniform_poisson_rate = 0.0, 0.9
immigration = dpareto:2,1,0

[experiment]
b_law = dpareto:2,1,0
n_gens = 5
""",
    "mixed": """\
[model]
kappa = 2

[env]
atoms =
    0.4 poisson:0.3 dpareto:2,1,0.5
    0.3 geometric0:0.6 bernoulli:0.5
    0.2 binomial:2,0.2 geometric0:0.5
    0.1 bernoulli:0.5 dpareto:2,1,0.5

[experiment]
b_law = dpareto:2,1,0
level = 1e-2
i_max = 2
n_gens = 5
""",
}
# sha256 of each artifact under STREAM_VERSION 8; report.json without its
# wall_ms and out_dir lines.  oracle/stationary.csv and oracle/report.json
# also hold the exact kernel route (build_kernel, stationary_power_iteration),
# which draws nothing: a change there moves only these two.  Likewise
# check/condition.json and check/report.json hold the offspring-moment series.
PIN_DIGESTS = {
    "check/condition.json": "198fa30ffb71773ca5e63fd61a25a993d876bf2356d8b69efb8ba01f25013326",
    "check/report.json": "27fde14e720ca65c8080049d763fe77fe81ecff4e57714afbe215f481071846c",
    "theorem/ratio.csv": "44f0cb7e2cc9f223b1a5d46b769a9a458b39aae5bfdd4e14795a35d6fbe84725",
    "theorem/summary.json": "07d9e7a3705c6960b6c702e4e027a69385bf1ba3886e2359470f81aedf8333ad",
    "theorem/hill.csv": "e573130b9c11f5d934b86bc80b47a0553fcbaa6da2160efbcea2ac270fe5fa85",
    "theorem/samples.txt": "eb7ff845c93517ae0a814b44808332f01e5d2d8a03b07e8b472dfc05d2307428",
    "theorem/report.json": "c2b657db54e0eb22b2279b27160adc16b6b78da7627407eb0add2f245078ebb9",
    "lemma1/ratio.csv": "dfcb574c30524fe95bf89d3df3a3d43164af0e943e96c95a0ac7f69b1bfcebe5",
    "lemma1/summary.json": "2f7c64be63843876f1792b18b233a4d962a75c3c0a27335fafeea04dbcbe7518",
    "lemma1/report.json": "668d052e70d5747bc50029115147b269bc192342d3676c07145ade44e4525f5e",
    "corollary/depth_ratio.csv": "69cd8e9395823c3a9559d4622613cc21c0b3fcc0c107ea43beb566f9891482f6",
    "corollary/report.json": "2b71f699a044789f778f81caea6d7f4e708d7db2c66136f5ae23da6363b68704",
    "grey/ratio.csv": "8e339752d5e0ef25b0c78aa4ff1a4f15d42b3027cc631984e2bfbbf047739088",
    "grey/summary.json": "0e0240e67098ad6ae6ad0d51eb367e5c45ee6ca8a72c8799d53723280e619b33",
    "grey/report.json": "c29fbe95e337c6f7d3e705c09d0513993813a8f4f70fd1819f647f39e29a6593",
    "decay/decay.csv": "cb010d5d36e0600f23b98337efc637f2dfd78034245518460eb6f95826ca15bb",
    "decay/report.json": "356a60abe0281d38f6bee704955c969626ce33de31a44647435574633de14194",
    "sre/ratio.csv": "24668b2bdf2e6b1eaf17829ee175a2ad5e69d725606aaff4029b596c55c109b1",
    "sre/summary.json": "a0bad560eefba2996ffbd28fb612319b888224238f0bacb6420a1bd4fea616b3",
    "sre/report.json": "35652a02cafc5d869c31f6aab7af6106539fb12ab169773cdc2c5ccfd61a6575",
    "oracle/stationary.csv": "9e68edb082e4e35b1526458305854b60c6e65a04b6adddfc6f88864d8ad0ae74",
    "oracle/empirical.csv": "d4104f1fc092db3112a183da952ca869bac80805702943024803e9bd2ee3565c",
    "oracle/report.json": "02dab5cf4d365562c3626e0de3164617b45390931cef6ef3a45a49d8139c691f",
    "hill/hill.csv": "e573130b9c11f5d934b86bc80b47a0553fcbaa6da2160efbcea2ac270fe5fa85",
    "hill/samples.txt": "eb7ff845c93517ae0a814b44808332f01e5d2d8a03b07e8b472dfc05d2307428",
    "hill/report.json": "265dd0ff420416a34c43754c47318f2881bffbc979710d406c7a4f45e0a6304c",
    "continuous/theorem/ratio.csv": "6a3195e729a7300496486b9976c9bb27b649efd90b3de7cb366b7e0aa9191db5",
    "continuous/theorem/summary.json": "99ad08a02fbee78af8867dd5406fe3c63471a05929bd686879b0ce313621e340",
    "continuous/theorem/hill.csv": "fe2ea93de706b9630d9ab86e2e449921a05c55368d209bb99572fc115601fa29",
    "continuous/theorem/samples.txt": "617cd275652168425258b52a3dd0656e22f7b9fe3ae12f756553b9f3e76633e4",
    "continuous/theorem/report.json": "694d471be6bd6295becab46dafcda9ba91b3e283970a2739a730bd1a204d1a8c",
    "continuous/lemma1/ratio.csv": "5107532def3f2f68f2d38ea0436838d749a7b186fca7a681ce333611598e880e",
    "continuous/lemma1/summary.json": "d5e1eda9d9fde33fe2dc037c32b486a8dd72b5788b46b8618fc80913c6a1d1c7",
    "continuous/lemma1/report.json": "40a6392409226cc691017e399884a8faf9f4f9792c1cd7e82b317eacd34ada46",
    "continuous/sre/ratio.csv": "5c6b0c8898b4e479404b6f755405ad694a561d48f9498b6abf1c3f3b6bbdd800",
    "continuous/sre/summary.json": "fe05a28ad2a8b66f0096c2580a4f6261a581081afef682da2df2664eccc89877",
    "continuous/sre/report.json": "3169f42c8911077dfeaebafe6c4e5b1aed7a3fa854c745382e6be4f1d11bdee9",
    "continuous/decay/decay.csv": "7db49b9bb7f057719073e988c2084756684e50b45e2aa98cba1c9df98a7d93f3",
    "continuous/decay/report.json": "b5e496446cfc202027b5fffe3dabadfd61503136dc943c3a94d7c381313c34b2",
    "mixed/theorem/ratio.csv": "251f351121be50ba072d8ab84ac0edf6e939831f79c35fd98f7d89d350822f3d",
    "mixed/theorem/summary.json": "685d980fd2e2a3803963a426dd938b39b3585b4c7833f6c18263ca106353617e",
    "mixed/theorem/hill.csv": "560c3a40fc3f363b3d75340e50437eba556dae1b159048c8c7233dd082375bf4",
    "mixed/theorem/samples.txt": "1f7a5661e71f5c605a57a5ddf4ce3824e658172b5edd6a724419217f0f4d87c3",
    "mixed/theorem/report.json": "735c99e9088e3e17710ee2fc18b1e57b07a07530206c53d79665da40ba3f481b",
    "mixed/lemma1/ratio.csv": "76763bc62549723077e07bf861aa253ad3d06b6222f3afa64632483dd682da68",
    "mixed/lemma1/summary.json": "7c7a3f88645b91df97603640614358f9291f8ea536ddd16c40d960028467667d",
    "mixed/lemma1/report.json": "c78b4f6320c6f024da8d1f45d6b2ada5f51b86c270da86d31e52801590ad785d",
    "mixed/corollary/depth_ratio.csv": "fea2b2db84e3fbc95795df3498e8fb2c9b8de08df8267267b7daf06f76f6ef9d",
    "mixed/corollary/report.json": "171d225fa23c56e82b85a8c16cf9b51092df0864a4ce266bed204189fd001ac9",
    "mixed/sre/ratio.csv": "a09e8c99d47dfcdbfd0d103dda89a70a7e81ee1d12d7094c24d8d04b0cfa733b",
    "mixed/sre/summary.json": "82204e55f927feb0590f7f0428c009f0b11a4abdca6000cfa9fc2636ad1a8215",
    "mixed/sre/report.json": "4709ffed54cbe33fbe82db6fe4cf40c566fe41b2a77740f58b4def5efb8a34ef",
    "mixed/decay/decay.csv": "336deabe0d0d6d8a30ebc0208ed5e958a38d4175870229dbe915eb775adecc0c",
    "mixed/decay/report.json": "dcb0b1ebd1960eda6c9a84a432c454b2585deaa3dd6ccaf6914a0ea7f48d2dd7",
}


def _pin_config(tmp_path, name, config, replicas):
    """The config of pin run `name`, whose experiment follows its last "/",
    on `config`, a bundled config file or a PIN_INLINE key: seed 7, one
    worker, dumps on."""
    text = PIN_INLINE[config] if config in PIN_INLINE else (CONFIGS / config).read_text()
    path = tmp_path / f"pin_{name.replace('/', '_')}.cfg"
    path.write_text(text + f"\nreplicas = {replicas}\ndump_samples = true\n")
    experiment = name.rpartition("/")[2]
    return load_config(str(path), experiment=experiment, seed=7, workers=1, out_dir=str(tmp_path / name))


def _pin_digests(tmp_path) -> dict:
    digests = {}
    for name, config, replicas in PIN_RUNS:
        cfg = _pin_config(tmp_path, name, config, replicas)
        for file in emit_report(run_experiment(cfg), cfg.out_dir):
            data = pathlib.Path(file).read_bytes()
            if file.endswith("report.json"):
                data = re.sub(rb'(?m)^ *"(wall_ms|out_dir)": .*\n', b"", data)
            digests[f"{name}/{os.path.basename(file)}"] = hashlib.sha256(data).hexdigest()
    return digests


def test_bundled_experiments_keep_their_streams(tmp_path, monkeypatch):
    # A change that alters what a seed draws must say so: bump STREAM_VERSION
    # (bpire/rng.py) and re-record PIN_DIGESTS with it.  A change to the exact
    # kernel route alone draws nothing and re-records only its two digests,
    # and so does a change to the offspring-moment series, which only check
    # reports.
    monkeypatch.setattr(experiments, "CHUNK_REPLICAS", PIN_CHUNK)
    got = _pin_digests(tmp_path)
    changed = sorted(k for k in got.keys() | PIN_DIGESTS.keys() if got.get(k) != PIN_DIGESTS.get(k))
    assert STREAM_VERSION == 8, "STREAM_VERSION moved: re-record PIN_DIGESTS under the new version"
    assert not changed, (
        f"outputs changed under STREAM_VERSION 8: {changed}. A sampler change must bump STREAM_VERSION and "
        "re-record PIN_DIGESTS; an exact-route change (build_kernel, stationary_power_iteration) keeps the "
        "version and re-records only oracle/stationary.csv and oracle/report.json; an offspring-moment change "
        "(offspring_moment, moment_A) keeps the version and re-records only check/condition.json and "
        "check/report.json"
    )


# sha256 of theorem's samples.txt under STREAM_VERSION 8 at seed 7 on
# 2 * _BLOCK + 5 replicas at the default CHUNK_REPLICAS: one chunk whose three
# slices step together, which no PIN_CHUNK run reaches.
SLICE_PIN_DIGESTS = {
    "config_a.cfg": "3ff0c96861fdc677676c784f5374c473a937b0f8a551cb2d5a4f4c2d647922c7",
    "mixed": "b0e7ea616bfcb8f10b191e26d9da2b0aada373fad4e3d748df99d462764c7b02",
    "continuous": "a93bd48d25c08138ecf86de8d03100f5908b3d7c035066e760aba01a3127dc2b",
}


@pytest.mark.parametrize("config", SLICE_PIN_DIGESTS)
def test_stationary_slices_keep_their_stream(tmp_path, config):
    replicas = 2 * experiments._BLOCK + 5
    assert replicas <= CHUNK_REPLICAS
    cfg = _pin_config(tmp_path, f"slices/{config}/theorem", config, replicas)
    emit_report(run_experiment(cfg), cfg.out_dir)
    data = (pathlib.Path(cfg.out_dir) / "samples.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SLICE_PIN_DIGESTS[config]


def test_chunks_sample_in_blocks_on_one_stream():
    # two full blocks and a partial one from the chunk's stream: the
    # stationary sampler draws them in one call, its blocks stepping
    # together; every other sampler draws them one call per block, in order
    block = experiments._BLOCK
    model = two_atom_model()
    heavy = ImmigrationFamily.discrete_pareto(2.0, 1.0)
    for sampler, arg, sizes in (
        (sample_stationary_backward_batch, 4, (2 * block + 5,)),
        (grey_sum_batch, heavy, (block, block, 5)),
    ):
        task = experiments._Task(sampler, model, arg, 7, (1, 3), 2 * block + 5, np.asarray, np.concatenate)
        rng = experiments._stream(7, (1, 3))
        want = np.concatenate([sampler(model, arg, rng, n) for n in sizes])
        assert np.array_equal(experiments._run_chunk(task), want)


# the merge `_gather` applies unless told otherwise
_SUM = inspect.signature(experiments._gather).parameters["merge"].default


@pytest.mark.parametrize(
    "stat, merge",
    [
        (partial(experiments._count_exceed, thresholds=(0.0, 2.0, 9.0, 31.0)), _SUM),
        (experiments._moment_sums, _SUM),
        (_value_histogram, _merge_histograms),
        (np.asarray, list),
    ],
    ids=["exceedances", "moments", "histogram", "draws"],
)
def test_each_block_reduces_to_the_statistic_of_the_chunk(stat, merge):
    # no statistic sees more than one block, though the stationary sampler
    # draws the whole chunk in one call, and the merged block statistics
    # equal the statistic of the chunk's draws
    block = experiments._BLOCK
    model = two_atom_model()
    sizes = []

    def watched(values):
        sizes.append(values.size)
        return stat(values)

    task = experiments._Task(sample_stationary_backward_batch, model, 4, 7, (1, 3), 2 * block + 5, watched, merge)
    got = experiments._run_chunk(task)
    assert sizes == [block, block, 5]
    rng = experiments._stream(7, (1, 3))
    want = stat(sample_stationary_backward_batch(model, 4, rng, 2 * block + 5))
    if merge is list:
        # a dump's blocks: views of the chunk's one array, in order
        assert len({id(b.base) for b in got}) == 1 and got[0].base is not None
        got = np.concatenate(got)
    got, want = (r if isinstance(r, tuple) else (r,) for r in (got, want))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


# ---- value histograms ------------------------------------------------------------


@pytest.mark.parametrize(
    "chunks",
    [
        [[1, 2, 2, 5], [2, 5, 7, 7], [5]],  # overlapping
        [[1, 1, 3], [4, 9]],  # disjoint
        [[], [3, 3, 1], []],  # some empty
        [[], []],  # all empty
    ],
)
def test_merged_chunk_histograms_are_the_histogram_of_the_concatenation(chunks):
    arrays = [np.array(c, dtype=np.int64) for c in chunks]
    values, counts = _merge_histograms([_value_histogram(a) for a in arrays])
    want_values, want_counts = np.unique(np.concatenate(arrays), return_counts=True)
    assert values.dtype == want_values.dtype and counts.dtype == np.int64
    assert values.tolist() == want_values.tolist()
    assert counts.tolist() == want_counts.tolist()


def _stationary_run(tmp_path, experiment, dump, workers, replicas=2500) -> dict:
    """Artifacts of a config_a run at seed 7, by file name; report.json
    without the lines that echo run settings."""
    tag = f"{experiment}_d{int(dump)}_w{workers}"
    path = tmp_path / f"{tag}.cfg"
    text = (CONFIGS / "config_a.cfg").read_text()
    path.write_text(text + f"\nreplicas = {replicas}\ndump_samples = {str(dump).lower()}\n")
    cfg = load_config(str(path), experiment=experiment, seed=7, workers=workers, out_dir=str(tmp_path / tag))
    out = {}
    for file in emit_report(run_experiment(cfg), cfg.out_dir):
        data = pathlib.Path(file).read_bytes()
        if file.endswith("report.json"):
            data = re.sub(rb'(?m)^ *"(wall_ms|out_dir|workers|dump_samples)": .*\n', b"", data)
        out[os.path.basename(file)] = data
    return out


_BLOCKS_RUN = 2 * experiments._BLOCK + 5


@pytest.mark.parametrize(
    "experiment, chunk, replicas",
    [
        *(pytest.param(e, PIN_CHUNK, 2500, id=e) for e in ("theorem", "hill", "oracle")),
        *(pytest.param(e, CHUNK_REPLICAS, _BLOCKS_RUN, id=f"{e}-blocks") for e in ("theorem", "hill", "oracle")),
    ],
)
def test_stationary_outputs_do_not_depend_on_dumps_or_workers(tmp_path, monkeypatch, experiment, chunk, replicas):
    # A dump builds its histogram from the dumped draws, every other run from
    # merged block and chunk histograms.  2500 replicas on 1000-replica chunks
    # end in a partial chunk, each chunk one block; at the default chunk size,
    # 2 * _BLOCK + 5 replicas make one chunk of three blocks, the last partial.
    monkeypatch.setattr(experiments, "CHUNK_REPLICAS", chunk)
    dumped = _stationary_run(tmp_path, experiment, True, 1, replicas)
    plain = _stationary_run(tmp_path, experiment, False, 1, replicas)
    assert ("samples.txt" in dumped) == (experiment != "oracle")
    dumped.pop("samples.txt", None)
    assert dumped == plain
    assert _stationary_run(tmp_path, experiment, False, 2, replicas) == plain


def test_a_dumped_run_holds_its_draws_about_once(tmp_path):
    # A dump keeps its blocks as drawn and merges their histograms: no copy
    # of the whole run's draws and no sort of them.  Caches are warmed first,
    # so the traced peak is the run's.  At 2^19 replicas (4 MiB of draws) it
    # reads about 4.5 MiB, and 9 MiB where the draws were concatenated and
    # sorted; an undumped run reads about 1.5 MiB.
    replicas = 1 << 19
    path = tmp_path / "dump.cfg"
    path.write_text((CONFIGS / "config_a.cfg").read_text() + f"\nreplicas = {replicas}\ndump_samples = true\n")
    cfg = load_config(str(path), experiment="theorem", seed=7, workers=1, out_dir=str(tmp_path / "out"))
    run_experiment(dataclasses.replace(cfg, replicas=1000))
    tracemalloc.start()
    try:
        emit_report(run_experiment(cfg), cfg.out_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * replicas * 8
    assert len((tmp_path / "out" / "samples.txt").read_text().splitlines()) == replicas


def test_stationary_statistics_never_see_per_replica_arrays(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "CHUNK_REPLICAS", PIN_CHUNK)
    sizes = []

    def watch(fn):
        def watched(*args, **kwargs):
            sizes.extend(a.size for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray))
            return fn(*args, **kwargs)

        return watched

    for name in tailstats.__all__:
        if inspect.isfunction(getattr(tailstats, name)):
            monkeypatch.setattr(tailstats, name, watch(getattr(tailstats, name)))
    monkeypatch.setattr(experiments, "empirical_pmf", watch(experiments.empirical_pmf))
    for experiment in ("theorem", "hill", "oracle"):
        _stationary_run(tmp_path, experiment, False, 1)
    # every array is a histogram or a grid: smaller than one chunk
    assert sizes and max(sizes) < PIN_CHUNK


# ---- CLI ---------------------------------------------------------------------


def test_cli_pass_exit_zero(tmp_path, capsys):
    path = _cfg_file(tmp_path, SUBCRITICAL)
    code = cli.main(["check", "--config", path, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip().endswith("PASS")
    assert "kappa_moment" in captured.out


def test_cli_metric_failure_exit_one(tmp_path, capsys):
    # Tolerance squeezed to zero: the Monte Carlo ratio cannot hit theory
    # exactly, so the metric must fail without any hypothesis violation.
    path = _cfg_file(
        tmp_path,
        SUBCRITICAL,
        "b_law = dpareto:2,1,0\nreplicas = 20000\ngrid = 1e-1\nmetric_levels = 1e-1\ntolerance = 1e-12\n",
    )
    code = cli.main(["lemma1", "--config", path, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out


def test_cli_hypothesis_failure_exit_two(tmp_path, capsys):
    path = _cfg_file(tmp_path, SUPERCRITICAL, "b_law = dpareto:2,1,0\nreplicas = 1000\n")
    code = cli.main(["lemma1", "--config", path, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert "hypothesis failure" in captured.err


def test_cli_failed_check_exit_two(tmp_path, capsys):
    path = _cfg_file(tmp_path, SUPERCRITICAL)
    code = cli.main(["check", "--config", path, "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert code == 2


def test_cli_config_error_exit_three(tmp_path, capsys):
    path = _cfg_file(tmp_path, SUBCRITICAL.replace("kappa", "kapa"))
    code = cli.main(["check", "--config", path])
    captured = capsys.readouterr()
    assert code == 3
    assert "config error" in captured.err


def test_cli_non_finite_float_exit_three(tmp_path, capsys):
    path = _cfg_file(tmp_path, SUBCRITICAL, "alpha = nan\n")
    code = cli.main(["decay", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err == "config error: alpha: not a number: 'nan'\n"


@pytest.mark.parametrize(
    "experiment, replicas, hill_k",
    [
        ("corollary", 2000, 0),  # no replica reaches the deepest level
        ("theorem", 3, 0),
        ("hill", 3, 0),
        ("decay", 3, 0),
        ("theorem", 2, 0),  # the automatic k = n^(2/3) rounds down to 1
        ("hill", 1000, 1),
        ("hill", 1000, 1000),
    ],
)
def test_cli_too_few_data_exit_three(tmp_path, capsys, experiment, replicas, hill_k):
    path = _cfg_file(tmp_path, SUBCRITICAL, f"replicas = {replicas}\nhill_k = {hill_k}\n")
    code = cli.main([experiment, "--config", path, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(("error: ", "config error: hill_k")) and captured.err.count("\n") == 1


def test_cli_grey_blames_the_field_at_fault(tmp_path, capsys):
    # the environment's second atom has light immigration; n_law is fine
    light_atom = SUBCRITICAL.replace("0.5 poisson:0.9 dpareto:2,1,0", "0.5 poisson:0.9 geometric0:0.5")
    path = _cfg_file(tmp_path, light_atom, "n_law = dpareto:2,1,0\nreplicas = 1000\n", "env.cfg")
    assert cli.main(["grey", "--config", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == "error: env: atom 2 immigration geometric0:0.5 is not heavy-tailed (dpareto)\n"
    path = _cfg_file(tmp_path, SUBCRITICAL, "n_law = geometric0:0.5\nreplicas = 1000\n", "n_law.cfg")
    assert cli.main(["grey", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: n_law: law is not heavy-tailed (dpareto)\n"


def test_cli_missing_file_exit_three(tmp_path, capsys):
    code = cli.main(["check", "--config", str(tmp_path / "absent.cfg")])
    captured = capsys.readouterr()
    assert code == 3
    assert "config error" in captured.err


def test_cli_overflow_exit_four(tmp_path, capsys):
    # passes the standing condition (E[m^0.3] = 0.3^0.3 < 1), but a kappa of
    # 0.3 puts immigration draws past the 2^62 guard at this scale
    heavy = SUBCRITICAL.replace("kappa = 2", "kappa = 0.3").replace(
        "    0.5 poisson:0.3 dpareto:2,1,0\n    0.5 poisson:0.9 dpareto:2,1,0\n",
        "    1.0 poisson:0.3 dpareto:0.3,1,0\n",
    )
    path = _cfg_file(tmp_path, heavy, "seed = 12345\nreplicas = 200000\nb_law = dpareto:0.3,1,0\n")
    assert cli.main(["check", "--config", path, "--out", str(tmp_path / "c")]) == 0
    code = cli.main(["theorem", "--config", path, "--out", str(tmp_path / "t")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_unwritable_out_exit_three_before_running(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    path = _cfg_file(tmp_path, SUBCRITICAL)
    code = cli.main(["check", "--config", path, "--out", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_unwritable_result_exit_three(tmp_path, capsys):
    # the directory exists, but report.json cannot be written into it
    out = tmp_path / "o"
    (out / "report.json").mkdir(parents=True)
    path = _cfg_file(tmp_path, SUBCRITICAL)
    code = cli.main(["check", "--config", path, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("output error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def _out_of_memory(model, arg, rng, size):
    raise MemoryError


def _die_in_worker(model, arg, rng, size):
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return sample_stationary_backward_batch(model, arg, rng, size)


@pytest.mark.parametrize("sampler, workers", [(_out_of_memory, 1), (_die_in_worker, 2)])
def test_cli_resource_failure_exit_five(tmp_path, capsys, monkeypatch, sampler, workers):
    # two chunks, so two workers run them in a process pool
    monkeypatch.setattr(experiments, "CHUNK_REPLICAS", PIN_CHUNK)
    monkeypatch.setattr(experiments, "sample_stationary_backward_batch", sampler)
    path = _cfg_file(tmp_path, SUBCRITICAL, "replicas = 2000\n")
    code = cli.main(["theorem", "--config", path, "--workers", str(workers), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def _offspring_token(kind, a, b, n):
    return {
        "poisson": f"poisson:{1.5 * a!r}",
        "bernoulli": f"bernoulli:{a!r}",
        "geometric0": f"geometric0:{0.4 + 0.6 * a!r}",
        "binomial": f"binomial:{n},{b!r}",
    }[kind]


def _immigration_token(kind, a, b, share):
    kappa = 0.3 + 3.7 * a
    return {
        # beta as a share of the largest ImmigrationFamily accepts
        "dpareto": f"dpareto:{kappa!r},{max(b, 1e-3)!r},{share * DPARETO_BETA_PER_KAPPA * kappa!r}",
        "bernoulli": f"bernoulli:{a!r}",
        "constant": f"constant:{int(5 * a)}",
        "geometric0": f"geometric0:{0.05 + 0.95 * b!r}",
    }[kind]


UNIT = hst.floats(0.0, 1.0)
OFFSPRING_TOKENS = hst.builds(
    _offspring_token, hst.sampled_from(list(OffspringFamily.PARAMS)), UNIT, UNIT, hst.integers(1, 3)
)
IMMIGRATION_TOKENS = hst.builds(_immigration_token, hst.sampled_from(list(ImmigrationFamily.PARAMS)), UNIT, UNIT, UNIT)
HEAVY_TOKENS = hst.builds(_immigration_token, hst.just("dpareto"), UNIT, UNIT, UNIT)
ENV_SECTIONS = hst.one_of(
    hst.builds(lambda o, i: f"atoms =\n    1.0 {o} {i}\n", OFFSPRING_TOKENS, IMMIGRATION_TOKENS),
    hst.builds(
        lambda w, o1, i1, o2, i2: f"atoms =\n    {w!r} {o1} {i1}\n    {1.0 - w!r} {o2} {i2}\n",
        hst.floats(0.05, 0.95),
        OFFSPRING_TOKENS,
        IMMIGRATION_TOKENS,
        OFFSPRING_TOKENS,
        IMMIGRATION_TOKENS,
    ),
    hst.builds(
        lambda lo, width, i: f"uniform_poisson_rate = {lo!r}, {lo + width!r}\nimmigration = {i}\n",
        hst.floats(0.0, 1.0),
        hst.floats(0.05, 1.0),
        IMMIGRATION_TOKENS,
    ),
)


@given(
    experiment=hst.sampled_from(sorted(EXPERIMENTS)),
    kappa=hst.floats(0.3, 4.0),
    env=ENV_SECTIONS,
    b_law=HEAVY_TOKENS,
    n_law=HEAVY_TOKENS,
    extra=hst.fixed_dictionaries(
        {},
        optional={
            "epsilon_trunc": hst.floats(1e-6, 0.5).map(repr),
            "level": hst.floats(1e-4, 0.5).map(repr),
            "i_max": hst.integers(2, 5).map(str),
            "n_gens": hst.integers(3, 8).map(str),
            "state_cap": hst.integers(1, 200).map(str),
            "hill_k": hst.sampled_from(["0", "2", "50"]),
        },
    ),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cli_exits_with_a_documented_code_on_random_configs(tmp_path_factory, experiment, kappa, env, b_law, n_law, extra):
    # any config load_config accepts ends in one of the codes 0-5 the CLI
    # documents, never in a traceback
    tmp_path = tmp_path_factory.mktemp("cli")
    keys = {"replicas": "2000", "seed": "3", "b_law": b_law, "n_law": n_law, **extra}
    body = f"[model]\nkappa = {kappa!r}\n\n[env]\n{env}\n[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    path = tmp_path / "random.cfg"
    path.write_text(body)
    try:
        cfg = load_config(str(path), experiment=experiment)
    except (ParseError, ValidationError):
        assume(False)
    # a near-critical model needs thousands of generations per replica;
    # those runs take seconds each and say nothing more about exit codes
    assume(not 0.98 < kappa_moment(cfg.model.env, cfg.model.kappa) < 1.0)
    code = cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "o")])
    event(f"exit {code}")
    assert code in range(6), body


def test_report_records_stream_version(tmp_path):
    cfg = load_config(_cfg_file(tmp_path, SUBCRITICAL), experiment="check")
    emit_report(run_experiment(cfg), tmp_path / "o")
    with open(tmp_path / "o" / "report.json") as fh:
        assert json.load(fh)["stream_version"] == 8


def test_cli_seed_override_lands_in_report(tmp_path, capsys):
    path = _cfg_file(tmp_path, SUBCRITICAL)
    out = tmp_path / "seeded"
    code = cli.main(["check", "--config", path, "--seed", "777", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    with open(out / "report.json") as fh:
        assert json.load(fh)["seed"] == 777


@pytest.mark.parametrize("line", ["name = theorem", "tv_tol = 0.01"])
def test_cli_refuses_the_removed_keys(tmp_path, capsys, line):
    key = line.split()[0]
    path = _cfg_file(tmp_path, SUBCRITICAL, line + "\n")
    assert cli.main(["theorem", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"config error: line 10: unknown key {key!r} in [experiment]")


def test_every_experiment_has_a_runner_and_a_help_line():
    assert set(experiments._RUNNERS) == set(EXPERIMENTS)
    usage = cli.build_parser().format_help()
    for name, help_line in EXPERIMENTS.items():
        assert help_line.strip() and help_line in usage, name


def test_cli_rejects_unknown_experiment(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--config", "x.cfg"])
