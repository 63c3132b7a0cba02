"""Config parsing: defaults, law grammar, validation messages, overrides."""

import os
import pathlib
import re

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as hst

from bpire.config import _SECTION_KEYS, EXPERIMENTS, config_to_dict, load_config
from bpire.env_model import ImmigrationFamily, OffspringFamily, law_label
from bpire.errors import ParseError, ValidationError

MINIMAL = """\
[model]
kappa = 2

[env]
atoms =
    0.5 poisson:0.3 dpareto:2,1,0
    0.5 poisson:0.9 dpareto:2,1,0
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_file_fills_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL), experiment="theorem")
    assert cfg.experiment == "theorem"
    assert cfg.replicas == 10_000_000
    assert cfg.seed == 12345
    assert cfg.epsilon_trunc == 1e-6
    assert cfg.grid == (1e-2, 1e-3, 1e-4, 1e-5)
    assert cfg.metric_levels == (1e-3, 1e-4)
    assert cfg.tolerance == 0.15
    assert cfg.workers == 1
    assert cfg.out_dir == "out"
    assert cfg.model.kappa == 2.0
    assert cfg.model.delta == 0.5
    assert len(cfg.model.env.atoms) == 2


def test_experiment_specific_defaults(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[experiment]\nb_law = dpareto:2,1,0\n")
    lemma = load_config(path, experiment="lemma1")
    assert lemma.replicas == 10_000_000
    assert lemma.metric_levels == (1e-4,)
    assert lemma.tolerance == 0.10
    decay = load_config(_write(tmp_path, MINIMAL, "d.cfg"), experiment="decay")
    assert decay.replicas == 1_000_000
    assert decay.tolerance == 0.02


# every law parameter by name, over its whole valid range: a subnormal c,
# integral floats past 2^53 and integers past 2^53 must survive a label
PARAM_VALUES = {
    "rate": hst.floats(min_value=0.0, allow_infinity=False),
    "p": hst.floats(0.0, 1.0),
    "q": hst.floats(0.0, 1.0),
    "n": hst.integers(min_value=1),
    "kappa": hst.floats(min_value=5e-324, allow_infinity=False),
    "c": hst.floats(5e-324, 1.0),
    "beta": hst.floats(min_value=0.0, allow_infinity=False),
    "b": hst.integers(min_value=0),
}


@hst.composite
def _laws(draw, family):
    """A law of any kind in `family.PARAMS`."""
    kind = draw(hst.sampled_from(list(family.PARAMS)))
    values = {name: draw(PARAM_VALUES[name]) for name in family.PARAMS[kind]}
    try:
        return family(kind, **values)
    except ValueError:  # geometric0 p = 0, or dpareto beta past 2.4327 kappa
        reject()


@given(off=_laws(OffspringFamily), imm=_laws(ImmigrationFamily))
@example(off=OffspringFamily.poisson(1e20), imm=ImmigrationFamily.discrete_pareto(2.0, 5e-324))
@example(off=OffspringFamily.binomial(2**62 + 1, 0.5), imm=ImmigrationFamily.constant(2**62))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_law_grammar_round_trips_through_labels(tmp_path_factory, off, imm):
    text = f"[model]\nkappa = 2\n\n[env]\natoms =\n    1.0 {law_label(off)} {law_label(imm)}\n"
    cfg = load_config(_write(tmp_path_factory.mktemp("law"), text), experiment="check")
    atom = cfg.model.env.atoms[0]
    assert (atom.offspring, atom.immigration) == (off, imm)


def test_unknown_key_suggests_the_fix(tmp_path):
    text = MINIMAL.replace("kappa = 2", "kapa = 2")
    with pytest.raises(ParseError) as err:
        load_config(_write(tmp_path, text), experiment="check")
    assert "kapa" in str(err.value)
    assert "kappa" in str(err.value)
    assert err.value.line == 2


def test_unknown_section_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError) as err:
        load_config(_write(tmp_path, MINIMAL + "\n[extras]\nfoo = 1\n"), experiment="check")
    assert "extras" in str(err.value)


def test_duplicate_key_reports_a_line(tmp_path):
    text = MINIMAL + "\n[experiment]\nseed = 1\nseed = 2\n"
    with pytest.raises(ParseError):
        load_config(_write(tmp_path, text), experiment="check")


def test_negative_replicas_rejected(tmp_path):
    text = MINIMAL + "\n[experiment]\nreplicas = -5\n"
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, text), experiment="check")
    assert err.value.field == "replicas"


def test_hill_k_must_leave_a_tail_to_estimate(tmp_path):
    def load(hill_k, experiment):
        text = MINIMAL + f"\n[experiment]\nhill_k = {hill_k}\nreplicas = 1000\n"
        return load_config(_write(tmp_path, text), experiment=experiment)

    for hill_k, experiment in ((1, "check"), (1000, "theorem"), (1001, "hill")):
        with pytest.raises(ValidationError) as err:
            load(hill_k, experiment)
        assert err.value.field == "hill_k"
    assert load(999, "hill").hill_k == 999
    # only theorem and hill take a Hill estimate
    assert load(1000, "check").hill_k == 1000


def test_seed_must_fit_64_bits(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, MINIMAL), experiment="check", seed=2**64)
    assert err.value.field == "seed"


def test_grid_must_decrease(tmp_path):
    text = MINIMAL + "\n[experiment]\ngrid = 1e-3, 1e-2\n"
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, text), experiment="check")
    assert err.value.field == "grid"


def test_atom_weights_validated(tmp_path):
    text = """\
[model]
kappa = 2

[env]
atoms =
    0.4 poisson:0.3 dpareto:2,1,0
"""
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, text), experiment="check")
    assert err.value.field == "atoms"


def test_an_unknown_experiment_is_refused(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, MINIMAL), "nosuch")
    assert err.value.field == "experiment"
    assert str(err.value) == "experiment: unknown experiment 'nosuch'"


def test_lemma1_requires_a_designated_law(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, MINIMAL), experiment="lemma1")
    assert err.value.field == "b_law"


def test_grey_requires_a_count_law(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, MINIMAL), experiment="grey")
    assert err.value.field == "n_law"


def test_workers_precedence(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[experiment]\nworkers = 3\n")
    assert load_config(path, experiment="check", workers=2).workers == 2
    assert load_config(path, experiment="check").workers == 3
    assert load_config(_write(tmp_path, MINIMAL, "bare.cfg"), experiment="check").workers == 1


def test_workers_ignore_the_environment(tmp_path, monkeypatch):
    # workers come from the file or the override alone
    monkeypatch.setenv("BPIRE_WORKERS", "many")
    assert load_config(_write(tmp_path, MINIMAL), experiment="check").workers == 1


def test_seed_and_out_overrides(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[experiment]\nseed = 99\nout_dir = somewhere\n")
    cfg = load_config(path, experiment="check")
    assert cfg.seed == 99 and cfg.out_dir == "somewhere"
    cfg2 = load_config(path, experiment="check", seed=7, out_dir="elsewhere")
    assert cfg2.seed == 7 and cfg2.out_dir == "elsewhere"


def test_uniform_rate_environment_parses(tmp_path):
    text = """\
[model]
kappa = 1

[env]
uniform_poisson_rate = 0.0, 0.9
immigration = geometric0:0.5
"""
    cfg = load_config(_write(tmp_path, text), experiment="check")
    env = cfg.model.env
    assert not env.is_atomic
    assert env.rate_lo == 0.0 and env.rate_hi == 0.9
    assert env.rate_immigration == ImmigrationFamily.geometric0(0.5)


def test_uniform_rate_needs_an_immigration_law(tmp_path):
    text = """\
[model]
kappa = 1

[env]
uniform_poisson_rate = 0.0, 0.9
"""
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, text), experiment="check")
    assert err.value.field == "immigration"


def test_bad_law_token_is_a_validation_error(tmp_path):
    # an atom line's fault names the key and the file line it sits on
    text = MINIMAL.replace("poisson:0.3", "poison:0.3")
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, text), experiment="check")
    assert str(err.value) == "atoms: line 6: offspring: cannot parse law 'poison:0.3'"
    second = "0.5 poisson:0.9 dpareto:2,1,0"
    bad_lines = [
        (second, "0.5 poisson:0.9 dpareto:-2,1", 7, "immigration: 'dpareto:-2,1': dpareto kappa must be > 0"),
        (second, "x poisson:0.9 dpareto:2,1,0", 7, "weight: not a number: 'x'"),
        (second, "-0.5 poisson:0.9 dpareto:2,1,0", 7, "weight: atom weight must be > 0"),
        (second, "0.5 poisson:0.9", 7, "expected 'weight offspring immigration', got '0.5 poisson:0.9'"),
        ("atoms =\n", "atoms = 1.0 poisson:0.3 bad\n", 5, "immigration: cannot parse law 'bad'"),
    ]
    for old, new, line, message in bad_lines:
        with pytest.raises(ValidationError) as err:
            load_config(_write(tmp_path, MINIMAL.replace(old, new)), experiment="check")
        assert str(err.value) == f"atoms: line {line}: {message}"


def test_dump_samples_bool_parsing(tmp_path):
    for raw, want in [("true", True), ("0", False), ("Yes", True), ("off", False)]:
        path = _write(tmp_path, MINIMAL + f"\n[experiment]\ndump_samples = {raw}\n")
        assert load_config(path, experiment="check").dump_samples is want
    bad = _write(tmp_path, MINIMAL + "\n[experiment]\ndump_samples = maybe\n", "bad.cfg")
    with pytest.raises(ValidationError):
        load_config(bad, experiment="check")


def test_config_echo_is_json_ready(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[experiment]\nb_law = dpareto:2,1,0\n")
    cfg = load_config(path, experiment="lemma1")
    echo = config_to_dict(cfg)
    assert echo["experiment"] == "lemma1"
    assert echo["b_law"] == "dpareto:2,1,0"
    assert echo["env"]["atoms"][0]["offspring"] == "poisson:0.3"
    assert echo["model"] == {"kappa": 2.0, "delta": 0.5}


def test_every_experiment_name_is_loadable(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[experiment]\nb_law = dpareto:2,1,0\nn_law = dpareto:2,1,0\n")
    for name in EXPERIMENTS:
        cfg = load_config(path, experiment=name)
        assert cfg.experiment == name


# One row per way an [experiment] key is rejected: (key, value, experiment,
# field named, message).  out_dir takes any non-empty path; `bpire` exits 3
# on one it cannot create.
REJECTIONS = [
    ("replicas", "0", "check", "replicas", "must be >= 1"),
    ("replicas", "1e6", "check", "replicas", "not an integer: '1e6'"),
    ("seed", "-1", "check", "seed", "must fit in 64 bits"),
    ("seed", str(2**64), "check", "seed", "must fit in 64 bits"),
    ("seed", "0x10", "check", "seed", "not an integer: '0x10'"),
    ("epsilon_trunc", "1", "theorem", "epsilon_trunc", "must lie in (0, 1)"),
    ("epsilon_trunc", "small", "theorem", "epsilon_trunc", "not a number: 'small'"),
    ("epsilon_trunc", "nan", "theorem", "epsilon_trunc", "not a number: 'nan'"),
    ("epsilon_trunc", "-inf", "theorem", "epsilon_trunc", "not a number: '-inf'"),
    ("grid", "1e-3, 1e-2", "theorem", "grid", "levels must be strictly decreasing"),
    ("grid", "1e-2, 1e-2", "theorem", "grid", "levels must be strictly decreasing"),
    ("grid", "1e-2, 1", "theorem", "grid", "levels must lie in (0, 1)"),
    ("grid", "1e-2, nan", "theorem", "grid", "levels must lie in (0, 1)"),
    ("grid", "1e-2, x", "theorem", "grid", "bad level list"),
    ("grid", ",", "theorem", "grid", "empty level list"),
    ("metric_levels", "0", "lemma1", "metric_levels", "levels must lie in (0, 1)"),
    ("metric_levels", "1e-4, 1e-3", "lemma1", "metric_levels", "levels must be strictly decreasing"),
    ("workers", "0", "check", "workers", "must be >= 1"),
    ("workers", "two", "check", "workers", "not an integer: 'two'"),
    ("out_dir", "", "check", "out_dir", "must not be empty"),
    ("tolerance", "-0.1", "theorem", "tolerance", "must be >= 0"),
    ("tolerance", "nan", "theorem", "tolerance", "not a number: 'nan'"),
    ("dump_samples", "maybe", "theorem", "dump_samples", "not a boolean: 'maybe'"),
    ("b_law", "dpareto", "lemma1", "b_law", "cannot parse law 'dpareto'"),
    ("b_law", "dpareto:2", "lemma1", "b_law", "cannot parse law 'dpareto:2'"),
    ("b_law", "dpareto:2,1,0,1", "lemma1", "b_law", "cannot parse law 'dpareto:2,1,0,1'"),
    ("n_law", "constant:1,2", "grey", "n_law", "cannot parse law 'constant:1,2'"),
    ("b_law", "dpareto:-2,1", "lemma1", "b_law", "'dpareto:-2,1': dpareto kappa must be > 0"),
    (
        "b_law",
        "dpareto:0.3,0.5,1",
        "lemma1",
        "b_law",
        "'dpareto:0.3,0.5,1': dpareto beta must be <= 2.4327 kappa, or the survival rises",
    ),
    ("n_law", "poisson:1", "grey", "n_law", "cannot parse law 'poisson:1'"),
    ("n_law", "geometric0:2", "grey", "n_law", "'geometric0:2': geometric0 p must lie in (0, 1]"),
    ("i_max", "1", "corollary", "i_max", "must be >= 2 (the decay fit needs 3 points)"),
    ("i_max", "2.5", "corollary", "i_max", "not an integer: '2.5'"),
    ("level", "1", "corollary", "level", "must lie in (0, 1)"),
    ("level", "nan", "corollary", "level", "not a number: 'nan'"),
    ("alpha", "2", "decay", "alpha", "must be 1: only E[Z_n] decays at a known rate, E[m]^n"),
    ("alpha", "nan", "decay", "alpha", "not a number: 'nan'"),
    ("alpha", "inf", "decay", "alpha", "not a number: 'inf'"),
    ("alpha", "1e400", "decay", "alpha", "not a number: '1e400'"),
    ("n_gens", "2", "decay", "n_gens", "must be >= 3"),
    ("state_cap", "0", "oracle", "state_cap", "must lie in [1, 4096]"),
    ("state_cap", "4097", "oracle", "state_cap", "must lie in [1, 4096]"),
    ("hill_k", "1", "hill", "hill_k", "must be 0 (automatic) or >= 2"),
    ("hill_k", "-3", "hill", "hill_k", "must be 0 (automatic) or >= 2"),
    ("hill_k", "1000000", "hill", "hill_k", "must be below replicas (1000000)"),
]


def test_every_experiment_key_has_a_rejection_row():
    assert {row[0] for row in REJECTIONS} == _SECTION_KEYS["experiment"]


@pytest.mark.parametrize("key, value, experiment, field, message", REJECTIONS)
def test_every_key_rejects_a_bad_value(tmp_path, key, value, experiment, field, message):
    laws = "".join(f"{law} = dpareto:2,1,0\n" for law in ("b_law", "n_law") if law != key)
    path = _write(tmp_path, MINIMAL + f"\n[experiment]\n{laws}{key} = {value}\n")
    with pytest.raises(ValidationError) as err:
        load_config(path, experiment=experiment)
    assert err.value.field == field
    assert str(err.value) == f"{field}: {message}"


def test_an_override_replaces_the_file_value_before_parsing(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[experiment]\nseed = abc\nworkers = x\nout_dir =\n")
    cfg = load_config(path, experiment="check", seed=7, workers=2, out_dir="o")
    assert (cfg.seed, cfg.workers, cfg.out_dir) == (7, 2, "o")
    with pytest.raises(ValidationError) as err:
        load_config(path, experiment="check", workers=2, out_dir="o")
    assert str(err.value) == "seed: not an integer: 'abc'"


def test_readme_table_names_every_experiment_key():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `(\w+)` ", readme.read_text(), flags=re.M)
    assert sorted(rows) == sorted(_SECTION_KEYS["experiment"])


def test_readme_names_every_law_kind():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Each environment atom is") :].split("\n\n")[0]
    for family in (OffspringFamily, ImmigrationFamily):
        for kind in family.PARAMS:
            assert f"`{kind}:" in paragraph, kind
