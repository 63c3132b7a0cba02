"""Experiment driver: metric judging, chunked determinism, reports, CLI."""

import hashlib
import inspect
import json
import math
import os
import pathlib
import re

import numpy as np
import pytest

from bpire import cli, experiments, tailstats
from bpire.config import load_config
from bpire.errors import NotSubcritical
from bpire.experiments import (
    CHUNK_REPLICAS,
    _merge_histograms,
    _metric,
    _value_histogram,
    emit_report,
    run_experiment,
)
from bpire.rng import STREAM_VERSION

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


def test_seed_changes_results(tmp_path):
    base = _cfg_file(tmp_path, SUBCRITICAL, "b_law = dpareto:2,1,0\nreplicas = 50000\n")
    r1 = run_experiment(load_config(base, experiment="lemma1", seed=1))
    r2 = run_experiment(load_config(base, experiment="lemma1", seed=2))
    assert r1.metrics[0]["estimate"] != r2.metrics[0]["estimate"]


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
    path = _cfg_file(tmp_path, COIN, "replicas = 200000\ntv_tol = 0.01\n")
    cfg = load_config(path, experiment="oracle")
    report = run_experiment(cfg)
    assert report.passed, report.metrics
    out = tmp_path / "oracle_out"
    emit_report(report, out)
    assert (out / "stationary.csv").exists() and (out / "empirical.csv").exists()


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
# at all, or the log-linear fit has nothing to fit; lemma1 on the inline
# environments needs enough for their tail counts to differ.
PIN_RUNS = (
    ("check", "config_a.cfg", 2_500),
    ("theorem", "config_a.cfg", 2_500),
    ("lemma1", "config_a.cfg", 2_500),
    ("corollary", "config_a.cfg", 30_500),
    ("grey", "grey.cfg", 2_500),
    ("decay", "decay_poisson.cfg", 3_500),
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
# sha256 of each artifact under STREAM_VERSION 2; report.json without its
# wall_ms and out_dir lines.  The hill.csv digests were re-recorded when Hill
# moved to value histograms: its log sums run in another order, which moved
# no number by more than 5e-14 relative.
PIN_DIGESTS = {
    "check/condition.json": "dad419b5018c0d18582aff87119eef58f8aa44acef4fb11864448080654da245",
    "check/report.json": "9f25cd2f8cbbfd4b08691bd4df4a8e299c0586fdcad042399c95434c18d760b0",
    "theorem/ratio.csv": "e10810261e72cd80c76acd3da75409907fef8491b481d49016385a2cad97949f",
    "theorem/hill.csv": "1cde3aa935fdeb8c7db43062945e0416f149a7106cbbcb0ea7dc3d0186b6b5f2",
    "theorem/summary.json": "280141a87760c1ccf3912e766be8baba0afebbd987ff6023cd93b86ba1156993",
    "theorem/samples.txt": "071be78497bec1a296f4c138aba8644dca36d001629f65e3a76b0c2f643788ab",
    "theorem/report.json": "87d1ee68ba0289041767ceed8e9e7a789b169688d666e654c79487f67decf1ad",
    "lemma1/ratio.csv": "f770faf80bad5b8fae780ed4c8a70fd12f3d16560354b2f1e58714f608fc7369",
    "lemma1/summary.json": "2f7c64be63843876f1792b18b233a4d962a75c3c0a27335fafeea04dbcbe7518",
    "lemma1/report.json": "9a388bff2a9448f06977fe55872a6e265db8a4a14bb68225175aa4f841fb66a0",
    "corollary/depth_ratio.csv": "e9bd6cafc1d8c5fd82b852ec5b7be713b3f87d2cd9d7738a21727410011bf593",
    "corollary/report.json": "3d2502c9bd3ebc310b7d9fc9345e83def9dc66944419f80eebb03da76d25ee94",
    "grey/ratio.csv": "a653d6fd98ff14cf82588d75ea44bfefdfb0e1720256d441cd13db9d9f2d78fb",
    "grey/summary.json": "0e0240e67098ad6ae6ad0d51eb367e5c45ee6ca8a72c8799d53723280e619b33",
    "grey/report.json": "754c42012a7450be53c25646abe90cc062f204af00ee19957b2eeb4ef0b42ca5",
    "decay/decay.csv": "2a616b239465ff1879737c86b1b6750a14c5a19edb47a3875a931627dae6c09d",
    "decay/report.json": "7f8f7448fea3be06bfdf2cab8fcec05ae1f248400c532d52a12ab2aa79a29722",
    "sre/ratio.csv": "149642952a1bc06585caa265f7213ea0de8c159ba45c9129122d83a6656a6a0f",
    "sre/summary.json": "a0bad560eefba2996ffbd28fb612319b888224238f0bacb6420a1bd4fea616b3",
    "sre/report.json": "fe2ca785183e871fd321e715689f109e981a9f58f299d9ebdfe27396a50ae1d1",
    "oracle/stationary.csv": "6b996be0580862e871043dddce7299e9191ceee620329525408b8dccf9d0da72",
    "oracle/empirical.csv": "05d3a118bb0a089db92834e0be6f43f18dac14656b3c338946bf21cb2c81e1cc",
    "oracle/report.json": "88b74ce74a8bb4970acc9cdc2c1418ca328681756c9c6d6575d91b86afa5985d",
    "hill/hill.csv": "1cde3aa935fdeb8c7db43062945e0416f149a7106cbbcb0ea7dc3d0186b6b5f2",
    "hill/samples.txt": "071be78497bec1a296f4c138aba8644dca36d001629f65e3a76b0c2f643788ab",
    "hill/report.json": "3dcbe967fad4fa72222cc033664002b614c6ca9f44bf15cc0678953dceb08ea5",
    "continuous/theorem/ratio.csv": "2f54dd300c3bbda135a6bf304bf64d4aa898479a86b5cfcc50fd27d8c4520896",
    "continuous/theorem/summary.json": "6442ef1b66f903c0f11cf7b6cbbbe86b485551093106891b7daf31c48927fc97",
    "continuous/theorem/hill.csv": "36a46c9b6211788ac217569fb2b4fb2e05a3c743071df213e37971abb3b91336",
    "continuous/theorem/samples.txt": "4ba677e15a187a18d500d13fd71e029448490a4ce3f5d2150aa219b0e5f26e26",
    "continuous/theorem/report.json": "fc37b2e1712eb747fefe3588ec461638e684455df2fc249b47de6873e8dd95ba",
    "continuous/lemma1/ratio.csv": "8ae1c9db83d89b28914dc3c0916c3732201da1ac569dc5fd36b7b42d70750225",
    "continuous/lemma1/summary.json": "d5e1eda9d9fde33fe2dc037c32b486a8dd72b5788b46b8618fc80913c6a1d1c7",
    "continuous/lemma1/report.json": "65c4a4d0217a4658a60060381710def92423f9692e6fe3aeb3ed58929d5ab094",
    "continuous/decay/decay.csv": "53f508b8e312a3200b736d1d61ffa8299520ffccb2a22122dc7ab45719c8e9fc",
    "continuous/decay/report.json": "e063ba39fe349d4fb7004f16de963f60f764cb24beb7bb52cfeb8944088470bc",
    "continuous/sre/ratio.csv": "83bb543d22a09c9b367c90446ea48230737e6e37122b178a77a1667b923a2445",
    "continuous/sre/summary.json": "20c620c4e1796a56a7edb9c62334592a106fc2609064dcc3ccd39efe879fdd13",
    "continuous/sre/report.json": "e666e6d82a24c3c9712632cbd9a56e075db4e80d6078648b4d01a740b4c83a40",
    "mixed/theorem/ratio.csv": "0c1008aa7d73bf987c3e7eecbab21ef22b7f23d02c1c5466295ace5b99c4951a",
    "mixed/theorem/summary.json": "178dec84edebfa54522c2fada7b6165c2d50caf9d833f21afa29b921dae8726f",
    "mixed/theorem/hill.csv": "1a05b09a4f993affbd7f46233e596755e3015ce16a7e6b35eee860099d9b618c",
    "mixed/theorem/samples.txt": "30b4c93d09a17ed292cd0d258ec77ec6f0b513248f3bb88dfe52af25b22b9e37",
    "mixed/theorem/report.json": "c8c10429b2ec96461316f6449ad5ffd73fee81b73b64bca73dae67ec191acf08",
    "mixed/lemma1/ratio.csv": "ce7fecba720b18778ea45b2a97472124462697584c656bf2f473f0c8a7cba519",
    "mixed/lemma1/summary.json": "00ee5b0c800cde9005943425de01d07ec06d6a49ce627ddc7bab2c70d02ef9b5",
    "mixed/lemma1/report.json": "95b6fdf7525c3e62fa6721964396e97b2ac642c94c25f46b26ed57bcd7a3e46b",
    "mixed/corollary/depth_ratio.csv": "f3f56d602489d6fd513291daf85e314d854d8fa70f60ae2e571c22b43e729ce6",
    "mixed/corollary/report.json": "8d6f1916b7ec1e0e7c487c504b19c95891346bd703f0dc717bde4c917f6610cd",
    "mixed/decay/decay.csv": "f3056f2e5e6c5607466966aa571bc320f8ddfb54587d381b54626904ee090c40",
    "mixed/decay/report.json": "0946fb8eac2bd749386ef3d015c6ff819ec8e4faadbc283f4a202da0783b8151",
    "mixed/sre/ratio.csv": "aa845aea95a890a20820f6d24c8ba07d73e041ea67361d7688e6089eaa0da4ea",
    "mixed/sre/summary.json": "b97779a9dceec88ff169e183995397fa4ff828b4a7c592ad4eb02ddefee1c266",
    "mixed/sre/report.json": "7e9d204c8fd8afcfc642934789f53a382b48fb9923af084d9e1dea71d9a43e7a",
}


def _pin_digests(tmp_path) -> dict:
    digests = {}
    for name, config, replicas in PIN_RUNS:
        text = PIN_INLINE[config] if config in PIN_INLINE else (CONFIGS / config).read_text()
        path = tmp_path / f"pin_{name.replace('/', '_')}.cfg"
        path.write_text(text + f"\nreplicas = {replicas}\ndump_samples = true\n")
        experiment = name.rpartition("/")[2]
        cfg = load_config(str(path), experiment=experiment, seed=7, workers=1, out_dir=str(tmp_path / name))
        for file in emit_report(run_experiment(cfg), cfg.out_dir):
            data = pathlib.Path(file).read_bytes()
            if file.endswith("report.json"):
                data = re.sub(rb'(?m)^ *"(wall_ms|out_dir)": .*\n', b"", data)
            digests[f"{name}/{os.path.basename(file)}"] = hashlib.sha256(data).hexdigest()
    return digests


def test_bundled_experiments_keep_their_streams(tmp_path, monkeypatch):
    # A change that alters what a seed draws must say so: bump STREAM_VERSION
    # (bpire/rng.py) and re-record PIN_DIGESTS with it.
    monkeypatch.setattr(experiments, "CHUNK_REPLICAS", PIN_CHUNK)
    got = _pin_digests(tmp_path)
    changed = sorted(k for k in got.keys() | PIN_DIGESTS.keys() if got.get(k) != PIN_DIGESTS.get(k))
    assert STREAM_VERSION == 2, "STREAM_VERSION moved: re-record PIN_DIGESTS under the new version"
    assert not changed, f"outputs changed under STREAM_VERSION 2: {changed}; bump it and re-record PIN_DIGESTS"


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


def _stationary_run(tmp_path, experiment, dump, workers) -> dict:
    """Artifacts of a 2500-replica config_a run at seed 7, by file name;
    report.json without the lines that echo run settings."""
    tag = f"{experiment}_d{int(dump)}_w{workers}"
    path = tmp_path / f"{tag}.cfg"
    path.write_text((CONFIGS / "config_a.cfg").read_text() + f"\nreplicas = 2500\ndump_samples = {str(dump).lower()}\n")
    cfg = load_config(str(path), experiment=experiment, seed=7, workers=workers, out_dir=str(tmp_path / tag))
    out = {}
    for file in emit_report(run_experiment(cfg), cfg.out_dir):
        data = pathlib.Path(file).read_bytes()
        if file.endswith("report.json"):
            data = re.sub(rb'(?m)^ *"(wall_ms|out_dir|workers|dump_samples)": .*\n', b"", data)
        out[os.path.basename(file)] = data
    return out


@pytest.mark.parametrize("experiment", ["theorem", "hill", "oracle"])
def test_stationary_outputs_do_not_depend_on_dumps_or_workers(tmp_path, monkeypatch, experiment):
    # A dump builds its histogram from the dumped draws, every other run from
    # merged chunk histograms; 2500 replicas on 1000-replica chunks end in a
    # partial chunk.
    monkeypatch.setattr(experiments, "CHUNK_REPLICAS", PIN_CHUNK)
    dumped = _stationary_run(tmp_path, experiment, True, 1)
    plain = _stationary_run(tmp_path, experiment, False, 1)
    assert ("samples.txt" in dumped) == (experiment != "oracle")
    dumped.pop("samples.txt", None)
    assert dumped == plain
    assert _stationary_run(tmp_path, experiment, False, 2) == plain


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


def test_report_records_stream_version(tmp_path):
    cfg = load_config(_cfg_file(tmp_path, SUBCRITICAL), experiment="check")
    emit_report(run_experiment(cfg), tmp_path / "o")
    with open(tmp_path / "o" / "report.json") as fh:
        assert json.load(fh)["stream_version"] == 2


def test_cli_seed_override_lands_in_report(tmp_path, capsys):
    path = _cfg_file(tmp_path, SUBCRITICAL)
    out = tmp_path / "seeded"
    code = cli.main(["check", "--config", path, "--seed", "777", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    with open(out / "report.json") as fh:
        assert json.load(fh)["seed"] == 777


def test_cli_rejects_unknown_experiment(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--config", "x.cfg"])
