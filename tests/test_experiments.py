"""Experiment driver: metric judging, chunked determinism, reports, CLI."""

import hashlib
import inspect
import json
import math
import multiprocessing
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
from bpire.simulator import sample_stationary_backward_batch

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
# sha256 of each artifact under STREAM_VERSION 3; report.json without its
# wall_ms and out_dir lines.
PIN_DIGESTS = {
    "check/condition.json": "dad419b5018c0d18582aff87119eef58f8aa44acef4fb11864448080654da245",
    "check/report.json": "f9d26b0d66e38544fa32b501da3a8be77e9691f80d16be75bb964d2b1b6d38a2",
    "theorem/ratio.csv": "1ba1b1aff7ea83d722b07b7ac9acdfa42edf041b060fc5af268270c7cadfcece",
    "theorem/hill.csv": "7d2946efc127a2cbe6a12a94070e6413b557dd83a6c601b458c11bbf6bddcb64",
    "theorem/summary.json": "8b9deb757bb39b8c8bb6302b44a092be3fe95188a3815eea76b6e6cb5d1f6799",
    "theorem/samples.txt": "8626bb5f0451e040d58bb9e7880cc12670fe81362a467ec6a298b5c432e0b519",
    "theorem/report.json": "29429ab4ec485e594ed043f4c4e490205dd462cfa77947a5292fa5eabe7137be",
    "lemma1/ratio.csv": "1ed4d43295b119a3bad287ad629248ce1de7d07175004b0c62eae1fff4aad01e",
    "lemma1/summary.json": "2f7c64be63843876f1792b18b233a4d962a75c3c0a27335fafeea04dbcbe7518",
    "lemma1/report.json": "98050a95c8d643884cf90ef72556762079fc4c1dd6536a95e0da4d73fffb9652",
    "corollary/depth_ratio.csv": "c412d92284edfe8a81b5f7aae82459e9fc819501a365215a26d3969536f089d4",
    "corollary/report.json": "d5b3a0fc5b790df532c6005f2b1b4e3df4b39a80a3d98036782ee62571dd2358",
    "grey/ratio.csv": "458360236e3dd0a49cbe5aef7ba95c280d231def7c6b3df9353f2c1ba77b6f2b",
    "grey/summary.json": "0e0240e67098ad6ae6ad0d51eb367e5c45ee6ca8a72c8799d53723280e619b33",
    "grey/report.json": "57d3087908eaa2ed583e2fed7ff494e9ba3538ac522f2fa28610429aedb28e65",
    "decay/decay.csv": "dda7e0cad4bc77af697c7ddbaf5c198cfa601c5a8391691e8f0320a47beff4b1",
    "decay/report.json": "6821375e2eb776eea3526a3cee6eec23e11addaefd83463718bdb16deea86ec2",
    "sre/ratio.csv": "c23332d2370c588b71520e22706f142646c9ccdc6f93ec5be9523c83c6cdb0c0",
    "sre/summary.json": "a0bad560eefba2996ffbd28fb612319b888224238f0bacb6420a1bd4fea616b3",
    "sre/report.json": "32a4c667bda109d013d1643dd987009c415b0f2b067f0fa3abe0fff1dfa6c3d8",
    "oracle/stationary.csv": "6b996be0580862e871043dddce7299e9191ceee620329525408b8dccf9d0da72",
    "oracle/empirical.csv": "05d3a118bb0a089db92834e0be6f43f18dac14656b3c338946bf21cb2c81e1cc",
    "oracle/report.json": "3277acbcfcc6a6f519151d888ca48a8c296ae2ea2e9a73e316d8251883e79fa5",
    "hill/hill.csv": "7d2946efc127a2cbe6a12a94070e6413b557dd83a6c601b458c11bbf6bddcb64",
    "hill/samples.txt": "8626bb5f0451e040d58bb9e7880cc12670fe81362a467ec6a298b5c432e0b519",
    "hill/report.json": "26608feec2ff5af79336daa444b2ebdf5caf24d9e15d2d3b5a160b8f737cc38f",
    "continuous/theorem/ratio.csv": "2f54dd300c3bbda135a6bf304bf64d4aa898479a86b5cfcc50fd27d8c4520896",
    "continuous/theorem/summary.json": "6442ef1b66f903c0f11cf7b6cbbbe86b485551093106891b7daf31c48927fc97",
    "continuous/theorem/hill.csv": "36a46c9b6211788ac217569fb2b4fb2e05a3c743071df213e37971abb3b91336",
    "continuous/theorem/samples.txt": "4ba677e15a187a18d500d13fd71e029448490a4ce3f5d2150aa219b0e5f26e26",
    "continuous/theorem/report.json": "ef3dc134b46d4ed701aaa16079a6ddcc67b0e163455c5baaec049d3095b6e823",
    "continuous/lemma1/ratio.csv": "8ae1c9db83d89b28914dc3c0916c3732201da1ac569dc5fd36b7b42d70750225",
    "continuous/lemma1/summary.json": "d5e1eda9d9fde33fe2dc037c32b486a8dd72b5788b46b8618fc80913c6a1d1c7",
    "continuous/lemma1/report.json": "bc49e5c9102f57ddd057cd73b927b31805056d827ad415a479bd1d8fab301928",
    "continuous/decay/decay.csv": "31dbd90de19f02fb7d2b33d2751645e5b2247271b5d0cc9a73053df9a25a3b4a",
    "continuous/decay/report.json": "bf36b6e334d708a9b0ac94d83c0b38d6ad4ce371dc2d4a320135a5a657683ba6",
    "continuous/sre/ratio.csv": "83bb543d22a09c9b367c90446ea48230737e6e37122b178a77a1667b923a2445",
    "continuous/sre/summary.json": "20c620c4e1796a56a7edb9c62334592a106fc2609064dcc3ccd39efe879fdd13",
    "continuous/sre/report.json": "9fc55570805096951cc0a8b541122609aa838e8ed9cc960b5abb00d90ba361be",
    "mixed/theorem/ratio.csv": "c1957aac539486026e312e59dc2481ff23c37294212084f9f60d80f477b3d12d",
    "mixed/theorem/summary.json": "dc961a5be42fe32f0d99d67bd55570c97bd700b540d14a674076c34eaaadf93d",
    "mixed/theorem/hill.csv": "ba5461e533728b196497e0bb0385defabf32051f9472b1135472f11d518931f7",
    "mixed/theorem/samples.txt": "cef4c23a5f52c76df3531c6ba32d355d3786a62c24989090320fb9acfb946742",
    "mixed/theorem/report.json": "b5a884feac58f805249b71b6dfdbec2ca5936fc1dd3421a4fb26c59c58d6c3d1",
    "mixed/lemma1/ratio.csv": "4594a5141c9a85f3e7f856f40156cc93e1fb816b5293c28ff8132ba20f9df8c3",
    "mixed/lemma1/summary.json": "00ee5b0c800cde9005943425de01d07ec06d6a49ce627ddc7bab2c70d02ef9b5",
    "mixed/lemma1/report.json": "125e587bf867d1c2cbac9e86967ce7a9c82c52bf719ab4013eda7e4ad05082a5",
    "mixed/corollary/depth_ratio.csv": "8bab73c3b640657807d91040df3e68530a13fdce35e94fb64d59ab0a7237da4b",
    "mixed/corollary/report.json": "f5dc0bec11fdcdd197212192daa4ecec231a9ac97e731200930f5f35c7369929",
    "mixed/decay/decay.csv": "ad7f5567f06e7fb17cd9de6de659c6a46513fa321cace2464605463a04e8f1f2",
    "mixed/decay/report.json": "d17889617b7ed72baa1c4b7092bb49c6f2efba3cdd3cd7a9f9da1d45a68ae496",
    "mixed/sre/ratio.csv": "445c71ea74b64bdf737848bdd9fa5f9d9898f375e1c9235074fca9c5cc20b08d",
    "mixed/sre/summary.json": "b97779a9dceec88ff169e183995397fa4ff828b4a7c592ad4eb02ddefee1c266",
    "mixed/sre/report.json": "4a630c2c9e73e71bd239cfc37330fd2caaa84f417092e5b55d8ef5717877c93c",
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
    assert STREAM_VERSION == 3, "STREAM_VERSION moved: re-record PIN_DIGESTS under the new version"
    assert not changed, f"outputs changed under STREAM_VERSION 3: {changed}; bump it and re-record PIN_DIGESTS"


def test_chunks_sample_in_blocks_on_one_stream():
    # two full blocks and a partial one, drawn in order from the chunk's stream
    block = experiments._BLOCK
    model = two_atom_model()
    task = experiments._Task(sample_stationary_backward_batch, model, 4, 7, (1, 3), 2 * block + 5, None)
    rng = experiments._stream(7, (1, 3))
    want = np.concatenate([sample_stationary_backward_batch(model, 4, rng, n) for n in (block, block, 5)])
    assert np.array_equal(experiments._run_chunk(task), want)


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


def test_report_records_stream_version(tmp_path):
    cfg = load_config(_cfg_file(tmp_path, SUBCRITICAL), experiment="check")
    emit_report(run_experiment(cfg), tmp_path / "o")
    with open(tmp_path / "o" / "report.json") as fh:
        assert json.load(fh)["stream_version"] == 3


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
