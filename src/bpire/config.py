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

Law syntax is kind:comma-separated-params, as in poisson:0.3, bernoulli:0.5,
geometric0:0.6, binomial:3,0.5, constant:2, dpareto:kappa,c[,beta].
"""

from __future__ import annotations

import configparser
import difflib
import os
import re
from dataclasses import dataclass

from .env_model import (
    EnvAtom,
    EnvSpec,
    ImmigrationFamily,
    ModelSpec,
    OffspringFamily,
    law_label,
)
from .errors import ParseError, ValidationError

__all__ = ["ExperimentConfig", "EXPERIMENTS", "load_config", "config_to_dict"]

EXPERIMENTS = (
    "check",
    "theorem",
    "lemma1",
    "corollary",
    "grey",
    "decay",
    "sre",
    "oracle",
    "hill",
)

_EXPERIMENT_KEYS = {
    "name",
    "replicas",
    "seed",
    "epsilon_trunc",
    "grid",
    "metric_levels",
    "workers",
    "out_dir",
    "tolerance",
    "dump_samples",
    "b_law",
    "n_law",
    "i_max",
    "level",
    "alpha",
    "n_gens",
    "state_cap",
    "tv_tol",
    "hill_k",
}
_MODEL_KEYS = {"kappa", "delta"}
_ENV_KEYS = {"atoms", "uniform_poisson_rate", "immigration"}
_SECTION_KEYS = {"experiment": _EXPERIMENT_KEYS, "model": _MODEL_KEYS, "env": _ENV_KEYS}

_DEFAULT_REPLICAS = {
    "check": 1,
    "theorem": 10**7,
    "lemma1": 10**7,
    "corollary": 10**7,
    "grey": 10**7,
    "sre": 10**7,
    "decay": 10**6,
    "oracle": 10**6,
    "hill": 10**6,
}
_DEFAULT_TOLERANCE = {
    "check": 0.0,
    "theorem": 0.15,
    "lemma1": 0.10,
    "corollary": 0.15,
    "grey": 0.10,
    "sre": 0.15,
    "decay": 0.02,
    "oracle": 0.0,
    "hill": 0.10,
}
_DEFAULT_METRIC_LEVELS = {
    "theorem": (1e-3, 1e-4),
    "lemma1": (1e-4,),
    "grey": (1e-4,),
    "sre": (1e-4,),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description; one experiment per invocation."""

    experiment: str
    model: ModelSpec
    replicas: int
    seed: int
    epsilon_trunc: float
    grid: tuple[float, ...]
    metric_levels: tuple[float, ...]
    workers: int
    out_dir: str
    tolerance: float
    dump_samples: bool = False
    b_law: ImmigrationFamily | None = None
    n_law: ImmigrationFamily | None = None
    i_max: int = 4
    level: float = 1e-3
    alpha: float = 1.0
    n_gens: int = 10
    state_cap: int = 64
    tv_tol: float = 0.005
    hill_k: int = 0


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


def _parse_offspring(tok: str) -> OffspringFamily:
    kind, _, rest = tok.partition(":")
    args = [a for a in rest.split(",") if a != ""]
    try:
        if kind == "poisson" and len(args) == 1:
            return OffspringFamily.poisson(float(args[0]))
        if kind == "bernoulli" and len(args) == 1:
            return OffspringFamily.bernoulli(float(args[0]))
        if kind == "geometric0" and len(args) == 1:
            return OffspringFamily.geometric0(float(args[0]))
        if kind == "binomial" and len(args) == 2:
            return OffspringFamily.binomial(int(args[0]), float(args[1]))
    except ValueError as exc:
        raise ValidationError("offspring", f"{tok!r}: {exc}") from exc
    raise ValidationError("offspring", f"cannot parse law {tok!r}")


def _parse_immigration(tok: str) -> ImmigrationFamily:
    kind, _, rest = tok.partition(":")
    args = [a for a in rest.split(",") if a != ""]
    try:
        if kind == "dpareto" and len(args) in (2, 3):
            beta = float(args[2]) if len(args) == 3 else 0.0
            return ImmigrationFamily.discrete_pareto(float(args[0]), float(args[1]), beta)
        if kind == "bernoulli" and len(args) == 1:
            return ImmigrationFamily.bernoulli(float(args[0]))
        if kind == "constant" and len(args) == 1:
            return ImmigrationFamily.constant(int(args[0]))
        if kind == "geometric0" and len(args) == 1:
            return ImmigrationFamily.geometric0(float(args[0]))
    except ValueError as exc:
        raise ValidationError("immigration", f"{tok!r}: {exc}") from exc
    raise ValidationError("immigration", f"cannot parse law {tok!r}")


def _parse_env(section, text: str) -> EnvSpec:
    keys = set(section.keys())
    if "atoms" in keys:
        if keys - {"atoms"}:
            extra = sorted(keys - {"atoms"})[0]
            raise ValidationError(extra, "not allowed alongside 'atoms'")
        atoms = []
        for raw in section["atoms"].splitlines():
            raw = raw.strip()
            if not raw:
                continue
            parts = raw.split()
            if len(parts) != 3:
                raise ValidationError("atoms", f"expected 'weight offspring immigration', got {raw!r}")
            try:
                w = float(parts[0])
            except ValueError as exc:
                raise ValidationError("atoms", f"bad weight in {raw!r}") from exc
            atoms.append(EnvAtom(w, _parse_offspring(parts[1]), _parse_immigration(parts[2])))
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
            return EnvSpec.uniform_poisson_rate(lo, hi, _parse_immigration(section["immigration"]))
        except ValueError as exc:
            raise ValidationError("uniform_poisson_rate", str(exc)) from exc
    raise ValidationError("env", "need 'atoms' or 'uniform_poisson_rate'")


def _get_float(section, key: str, default: float) -> float:
    if key not in section:
        return default
    try:
        return float(section[key])
    except ValueError as exc:
        raise ValidationError(key, f"not a number: {section[key]!r}") from exc


def _get_int(section, key: str, default: int) -> int:
    if key not in section:
        return default
    try:
        return int(section[key])
    except ValueError as exc:
        raise ValidationError(key, f"not an integer: {section[key]!r}") from exc


def _get_bool(section, key: str, default: bool) -> bool:
    if key not in section:
        return default
    raw = section[key].strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ValidationError(key, f"not a boolean: {section[key]!r}")


def _get_levels(section, key: str, default: tuple[float, ...]) -> tuple[float, ...]:
    if key not in section:
        return default
    try:
        vals = tuple(float(p) for p in section[key].split(",") if p.strip() != "")
    except ValueError as exc:
        raise ValidationError(key, "bad level list") from exc
    if not vals:
        raise ValidationError(key, "empty level list")
    return vals


def _check_levels(name: str, levels: tuple[float, ...]):
    if any(not (0.0 < l < 1.0) for l in levels):
        raise ValidationError(name, "levels must lie in (0, 1)")
    if any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValidationError(name, "levels must be strictly decreasing")


def load_config(
    path,
    experiment: str | None = None,
    seed: int | None = None,
    workers: int | None = None,
    out_dir: str | None = None,
) -> ExperimentConfig:
    """Parse and validate a config file, applying CLI overrides.

    Worker precedence: the `workers` argument, then the file, then the
    BPIRE_WORKERS environment variable, then 1.
    """
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
    kappa = _get_float(cp["model"], "kappa", 0.0)
    delta = _get_float(cp["model"], "delta", 0.5)
    try:
        model = ModelSpec(env=env, kappa=kappa, delta=delta)
    except ValueError as exc:
        raise ValidationError("model", str(exc)) from exc

    exp_section = cp["experiment"] if cp.has_section("experiment") else {}
    file_name = exp_section.get("name") if hasattr(exp_section, "get") else None
    if experiment is not None and file_name is not None and experiment != file_name:
        raise ValidationError("experiment", f"file names {file_name!r} but {experiment!r} was requested")
    name = experiment or file_name
    if name is None:
        raise ValidationError("experiment", "no experiment named in file or on the command line")
    if name not in EXPERIMENTS:
        raise ValidationError("experiment", f"unknown experiment {name!r}")

    replicas = _get_int(exp_section, "replicas", _DEFAULT_REPLICAS[name])
    if replicas < 1:
        raise ValidationError("replicas", "must be >= 1")
    file_seed = _get_int(exp_section, "seed", 12345)
    eff_seed = file_seed if seed is None else int(seed)
    if not 0 <= eff_seed < 2**64:
        raise ValidationError("seed", "must fit in 64 bits")
    epsilon = _get_float(exp_section, "epsilon_trunc", 1e-6)
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("epsilon_trunc", "must lie in (0, 1)")
    grid = _get_levels(exp_section, "grid", (1e-2, 1e-3, 1e-4, 1e-5))
    _check_levels("grid", grid)
    metric_levels = _get_levels(
        exp_section, "metric_levels", _DEFAULT_METRIC_LEVELS.get(name, (1e-3,))
    )
    _check_levels("metric_levels", metric_levels)
    tolerance = _get_float(exp_section, "tolerance", _DEFAULT_TOLERANCE[name])
    if tolerance < 0.0:
        raise ValidationError("tolerance", "must be >= 0")

    if workers is not None:
        eff_workers = int(workers)
    elif "workers" in exp_section:
        eff_workers = _get_int(exp_section, "workers", 1)
    elif os.environ.get("BPIRE_WORKERS"):
        try:
            eff_workers = int(os.environ["BPIRE_WORKERS"])
        except ValueError as exc:
            raise ValidationError("BPIRE_WORKERS", "not an integer") from exc
    else:
        eff_workers = 1
    if eff_workers < 1:
        raise ValidationError("workers", "must be >= 1")

    eff_out = out_dir if out_dir is not None else exp_section.get("out_dir", "out") if hasattr(exp_section, "get") else "out"

    b_law = _parse_immigration(exp_section["b_law"]) if "b_law" in exp_section else None
    n_law = _parse_immigration(exp_section["n_law"]) if "n_law" in exp_section else None
    if name == "lemma1" and b_law is None:
        raise ValidationError("b_law", "lemma1 needs a designated immigration law")
    if name == "grey" and n_law is None:
        raise ValidationError("n_law", "grey needs an independent heavy-tailed count law")

    i_max = _get_int(exp_section, "i_max", 4)
    if i_max < 2:
        raise ValidationError("i_max", "must be >= 2 (the decay fit needs 3 points)")
    level = _get_float(exp_section, "level", 1e-3)
    if not 0.0 < level < 1.0:
        raise ValidationError("level", "must lie in (0, 1)")
    alpha = _get_float(exp_section, "alpha", 1.0)
    if alpha <= 0.0:
        raise ValidationError("alpha", "must be > 0")
    n_gens = _get_int(exp_section, "n_gens", 10)
    if n_gens < 3:
        raise ValidationError("n_gens", "must be >= 3")
    state_cap = _get_int(exp_section, "state_cap", 64)
    if not 1 <= state_cap <= 4096:
        raise ValidationError("state_cap", "must lie in [1, 4096]")
    tv_tol = _get_float(exp_section, "tv_tol", 0.005)
    if tv_tol <= 0.0:
        raise ValidationError("tv_tol", "must be > 0")
    hill_k = _get_int(exp_section, "hill_k", 0)
    if hill_k < 0 or hill_k == 1:
        raise ValidationError("hill_k", "must be 0 (automatic) or >= 2")
    if hill_k >= replicas and name in ("theorem", "hill"):
        raise ValidationError("hill_k", f"must be below replicas ({replicas})")

    return ExperimentConfig(
        experiment=name,
        model=model,
        replicas=replicas,
        seed=eff_seed,
        epsilon_trunc=epsilon,
        grid=grid,
        metric_levels=metric_levels,
        workers=eff_workers,
        out_dir=str(eff_out),
        tolerance=tolerance,
        dump_samples=_get_bool(exp_section, "dump_samples", False),
        b_law=b_law,
        n_law=n_law,
        i_max=i_max,
        level=level,
        alpha=alpha,
        n_gens=n_gens,
        state_cap=state_cap,
        tv_tol=tv_tol,
        hill_k=hill_k,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready echo of a resolved config (laws as their label syntax)."""
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
    out = {
        "experiment": cfg.experiment,
        "model": {"kappa": cfg.model.kappa, "delta": cfg.model.delta},
        "env": env_d,
        "replicas": cfg.replicas,
        "seed": cfg.seed,
        "epsilon_trunc": cfg.epsilon_trunc,
        "grid": list(cfg.grid),
        "metric_levels": list(cfg.metric_levels),
        "workers": cfg.workers,
        "out_dir": cfg.out_dir,
        "tolerance": cfg.tolerance,
        "dump_samples": cfg.dump_samples,
        "i_max": cfg.i_max,
        "level": cfg.level,
        "alpha": cfg.alpha,
        "n_gens": cfg.n_gens,
        "state_cap": cfg.state_cap,
        "tv_tol": cfg.tv_tol,
        "hill_k": cfg.hill_k,
    }
    if cfg.b_law is not None:
        out["b_law"] = law_label(cfg.b_law)
    if cfg.n_law is not None:
        out["n_law"] = law_label(cfg.n_law)
    return out
