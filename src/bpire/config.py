"""Experiment configuration: sectioned key=value files.

Three sections: [experiment] for run parameters, [model] for the exponents,
[env] for the environment law.  Unknown sections or keys are rejected with a
line number and a nearest-match suggestion; a minimal file only needs the
environment and the model's kappa, everything else has documented defaults.

Atoms are one per line inside the multi-line `atoms` value:

    [env]
    atoms =
        0.5 poisson:0.3 dpareto:2,1,0
        0.5 poisson:0.9 dpareto:2,1,0

Law syntax is kind:comma-separated-params, as in poisson:0.3 or
binomial:3,0.5.  The kinds of each family and the order of their params are
its `PARAMS` table in env_model (OffspringFamily.PARAMS,
ImmigrationFamily.PARAMS); dpareto:kappa,c[,beta] may leave out beta for 0.
"""

from __future__ import annotations

import configparser
import difflib
import math
import re
from dataclasses import dataclass, field, fields
from functools import partial

from .env_model import (
    EnvAtom,
    EnvSpec,
    ImmigrationFamily,
    ModelSpec,
    OffspringFamily,
    law_label,
)
from .errors import ParseError, ValidationError
from .oracle import MAX_STATES

__all__ = ["ExperimentConfig", "EXPERIMENTS", "load_config", "config_to_dict"]

# each experiment, the CLI subcommand of the same name, and its help line
EXPERIMENTS = {
    "check": "evaluate the standing condition and report its moments",
    "theorem": "stationary tail ratio against the immigration tail",
    "lemma1": "single-thinning random-sum tail ratio",
    "corollary": "per-depth composed-thinning tail decay",
    "grey": "independent-count sum tail ratio",
    "decay": "geometric decay of the unit-progeny mean",
    "sre": "affine-recursion perpetuity tail ratio",
    "oracle": "exact truncated-kernel stationary law vs the sampler",
    "hill": "tail-index estimate on stationary samples",
}


def _per_experiment(fallback, **by_name) -> dict:
    """A default that depends on the experiment: `fallback` unless named."""
    return {name: by_name.get(name, fallback) for name in EXPERIMENTS}


def _int(key: str, raw) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(key, f"not an integer: {raw!r}") from exc


def _float(key: str, raw) -> float:
    """A finite float; NaN and infinities (also 1e400) are not numbers here."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(key, f"not a number: {raw!r}")
    return value


def _bool(key: str, raw) -> bool:
    value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
    if value is None:
        raise ValidationError(key, f"not a boolean: {raw!r}")
    return value


def _levels(key: str, raw) -> tuple[float, ...]:
    """Comma-separated survival levels, each in (0, 1), strictly decreasing."""
    try:
        levels = tuple(float(p) for p in raw.split(",") if p.strip() != "")
    except ValueError as exc:
        raise ValidationError(key, "bad level list") from exc
    if not levels:
        raise ValidationError(key, "empty level list")
    if any(not 0.0 < v < 1.0 for v in levels):
        raise ValidationError(key, "levels must lie in (0, 1)")
    if any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValidationError(key, "levels must be strictly decreasing")
    return levels


def _parse_law(family, key: str, tok: str):
    """A `family` law token, kind:args in the order of `family.PARAMS`; a bad
    one is blamed on `key`.  dpareto alone may leave out its last argument,
    beta, for 0."""
    kind, _, rest = tok.partition(":")
    args = [a for a in rest.split(",") if a != ""]
    names = family.PARAMS.get(kind, ())
    if not names or len(args) > len(names) or names[len(args):] not in ((), ("beta",)):
        raise ValidationError(key, f"cannot parse law {tok!r}")
    try:
        # each argument takes the type of its field's default: int for n and b
        return family(kind, **{name: type(getattr(family, name))(arg) for name, arg in zip(names, args)})
    except ValueError as exc:
        raise ValidationError(key, f"{tok!r}: {exc}") from exc


def _key(parse, default, check=None, message: str = ""):
    """One [experiment] key: `parse(key, raw)` reads its value, `default`
    (a value, or a dict by experiment) stands in when the key is absent, and
    a value failing `check` is refused with `message`."""
    if not isinstance(default, dict):
        default = _per_experiment(default)
    return field(metadata={"parse": parse, "default": default, "check": check, "message": message})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description; one experiment per invocation.

    Every field after `model` declares one [experiment] key, in the order
    the keys are checked; `load_config` and `config_to_dict` loop over them.
    """

    experiment: str
    model: ModelSpec
    replicas: int = _key(
        _int, _per_experiment(10**7, check=1, decay=10**6, oracle=10**6, hill=10**6), lambda n: n >= 1, "must be >= 1"
    )
    seed: int = _key(_int, 12345, lambda s: 0 <= s < 2**64, "must fit in 64 bits")
    epsilon_trunc: float = _key(_float, 1e-6, lambda e: 0.0 < e < 1.0, "must lie in (0, 1)")
    grid: tuple[float, ...] = _key(_levels, (1e-2, 1e-3, 1e-4, 1e-5))
    metric_levels: tuple[float, ...] = _key(
        _levels, _per_experiment((1e-3,), theorem=(1e-3, 1e-4), lemma1=(1e-4,), grey=(1e-4,), sre=(1e-4,))
    )
    tolerance: float = _key(
        _float,
        _per_experiment(0.15, check=0.0, lemma1=0.10, grey=0.10, decay=0.02, oracle=0.005, hill=0.10),
        lambda t: t >= 0.0,
        "must be >= 0",
    )
    workers: int = _key(_int, 1, lambda w: w >= 1, "must be >= 1")
    out_dir: str = _key(lambda key, raw: str(raw), "out", lambda d: d != "", "must not be empty")
    b_law: ImmigrationFamily | None = _key(partial(_parse_law, ImmigrationFamily), None)
    n_law: ImmigrationFamily | None = _key(partial(_parse_law, ImmigrationFamily), None)
    i_max: int = _key(_int, 4, lambda i: i >= 2, "must be >= 2 (the decay fit needs 3 points)")
    level: float = _key(_float, 1e-3, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")
    alpha: float = _key(_float, 1.0, lambda a: a == 1.0, "must be 1: only E[Z_n] decays at a known rate, E[m]^n")
    n_gens: int = _key(_int, 10, lambda n: n >= 3, "must be >= 3")
    state_cap: int = _key(_int, 64, lambda s: 1 <= s <= MAX_STATES, f"must lie in [1, {MAX_STATES}]")
    hill_k: int = _key(_int, 0, lambda k: k == 0 or k >= 2, "must be 0 (automatic) or >= 2")
    dump_samples: bool = _key(_bool, False)


_KEYS = tuple(f for f in fields(ExperimentConfig) if f.metadata)
_SECTION_KEYS = {
    "experiment": {f.name for f in _KEYS},
    "model": {"kappa", "delta"},
    "env": {"atoms", "uniform_poisson_rate", "immigration"},
}


def _find_line(text: str, token: str) -> int | None:
    pat = re.compile(r"^\s*" + re.escape(token) + r"\s*(=|$|\s)")
    for i, line in enumerate(text.splitlines(), start=1):
        if pat.match(line):
            return i
    return None


def _unknown_key_error(text: str, section: str, key: str) -> ParseError:
    hint = difflib.get_close_matches(key, sorted(_SECTION_KEYS[section]), n=1, cutoff=0.6)
    msg = f"unknown key {key!r} in [{section}]"
    if hint:
        msg += f"; did you mean {hint[0]!r}?"
    return ParseError(msg, line=_find_line(text, key))


def _parse_atom(weight: str, offspring: str, immigration: str) -> EnvAtom:
    """The three fields of one atom line."""
    w = _float("weight", weight)
    try:
        off = _parse_law(OffspringFamily, "offspring", offspring)
        return EnvAtom(w, off, _parse_law(ImmigrationFamily, "immigration", immigration))
    except ValueError as exc:  # EnvAtom refuses the weight
        raise ValidationError("weight", str(exc)) from exc


def _parse_env(section, text: str) -> EnvSpec:
    keys = set(section.keys())
    if "atoms" in keys:
        if keys - {"atoms"}:
            extra = sorted(keys - {"atoms"})[0]
            raise ValidationError(extra, "not allowed alongside 'atoms'")
        atoms = []
        for raw in section["atoms"].splitlines():
            parts = raw.split()
            if not parts:
                continue
            # an atom written on the key's own line is found by the key
            where = f"line {_find_line(text, raw.strip()) or _find_line(text, 'atoms')}"
            if len(parts) != 3:
                raise ValidationError("atoms", f"{where}: expected 'weight offspring immigration', got {raw.strip()!r}")
            try:
                atoms.append(_parse_atom(*parts))
            except ValidationError as exc:
                raise ValidationError("atoms", f"{where}: {exc}") from exc
        if not atoms:
            raise ValidationError("atoms", "no atom lines given")
        try:
            return EnvSpec.from_atoms(atoms)
        except ValueError as exc:
            raise ValidationError("atoms", str(exc)) from exc
    if "uniform_poisson_rate" in keys:
        if "immigration" not in keys:
            raise ValidationError("immigration", "continuous environment needs a fixed immigration law")
        parts = [p.strip() for p in section["uniform_poisson_rate"].split(",")]
        if len(parts) != 2:
            raise ValidationError("uniform_poisson_rate", "expected 'lo, hi'")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValidationError("uniform_poisson_rate", "bad bounds") from exc
        try:
            imm = _parse_law(ImmigrationFamily, "immigration", section["immigration"])
            return EnvSpec.uniform_poisson_rate(lo, hi, imm)
        except ValueError as exc:
            raise ValidationError("uniform_poisson_rate", str(exc)) from exc
    raise ValidationError("env", "need 'atoms' or 'uniform_poisson_rate'")


def load_config(
    path,
    experiment: str,
    seed: int | None = None,
    workers: int | None = None,
    out_dir: str | None = None,
) -> ExperimentConfig:
    """Parse and validate a config file for `experiment`, one of EXPERIMENTS,
    applying CLI overrides.

    An override (seed, workers, out_dir) replaces the file's value before it
    is parsed; a key set by neither takes its documented default.
    """
    if experiment not in EXPERIMENTS:
        raise ValidationError("experiment", f"unknown experiment {experiment!r}")
    with open(path) as fh:
        text = fh.read()
    cp = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        if line is None:
            errs = getattr(exc, "errors", None)
            if errs:
                line = errs[0][0]
        raise ParseError(str(exc.message if hasattr(exc, "message") else exc), line=line) from exc

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ParseError(f"unknown section [{section}]", line=_find_line(text, f"[{section}]"))
        for key in cp[section]:
            if key not in _SECTION_KEYS[section]:
                raise _unknown_key_error(text, section, key)

    if not cp.has_section("env"):
        raise ValidationError("env", "missing [env] section")
    env = _parse_env(cp["env"], text)

    if not cp.has_section("model") or "kappa" not in cp["model"]:
        raise ValidationError("kappa", "missing [model] kappa")
    kappa = _float("kappa", cp["model"]["kappa"])
    delta = _float("delta", cp["model"].get("delta", 0.5))
    try:
        model = ModelSpec(env=env, kappa=kappa, delta=delta)
    except ValueError as exc:
        raise ValidationError("model", str(exc)) from exc

    raw = dict(cp["experiment"]) if cp.has_section("experiment") else {}
    overrides = {"seed": seed, "workers": workers, "out_dir": out_dir}
    raw.update((key, value) for key, value in overrides.items() if value is not None)

    values = {}
    for f in _KEYS:
        meta = f.metadata
        value = meta["parse"](f.name, raw[f.name]) if f.name in raw else meta["default"][experiment]
        if meta["check"] is not None and not meta["check"](value):
            raise ValidationError(f.name, meta["message"])
        values[f.name] = value

    if experiment == "lemma1" and values["b_law"] is None:
        raise ValidationError("b_law", "lemma1 needs a designated immigration law")
    if experiment == "grey" and values["n_law"] is None:
        raise ValidationError("n_law", "grey needs an independent heavy-tailed count law")
    if experiment in ("theorem", "hill") and values["hill_k"] >= values["replicas"]:
        raise ValidationError("hill_k", f"must be below replicas ({values['replicas']})")
    return ExperimentConfig(experiment=experiment, model=model, **values)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready echo of a resolved config: laws as their label syntax,
    level lists as lists, and keys left at None omitted."""
    env = cfg.model.env
    if env.is_atomic:
        env_d = {
            "atoms": [
                {
                    "weight": a.weight,
                    "offspring": law_label(a.offspring),
                    "immigration": law_label(a.immigration),
                }
                for a in env.atoms
            ]
        }
    else:
        env_d = {
            "uniform_poisson_rate": [env.rate_lo, env.rate_hi],
            "immigration": law_label(env.rate_immigration),
        }
    model = {"kappa": cfg.model.kappa, "delta": cfg.model.delta}
    out = {"experiment": cfg.experiment, "model": model, "env": env_d}
    for f in _KEYS:
        value = getattr(cfg, f.name)
        if isinstance(value, ImmigrationFamily):
            value = law_label(value)
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            out[f.name] = value
    return out
