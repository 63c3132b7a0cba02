"""Monte Carlo laboratory for the tail behavior of subcritical branching
processes with immigration in a random environment, together with exact
small-instance oracles and an experiment runner."""

__version__ = "0.1.0"

from .config import EXPERIMENTS, ExperimentConfig, load_config
from .env_model import (
    ConditionReport,
    EnvAtom,
    EnvSpec,
    ImmigrationFamily,
    ModelSpec,
    OffspringFamily,
    check_conditions,
    kappa_moment,
    mean_offspring,
    moment_A,
)
from .experiments import RunReport, emit_report, run_experiment
from .rng import RngState
from .simulator import choose_truncation

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "load_config",
    "ConditionReport",
    "EnvAtom",
    "EnvSpec",
    "ImmigrationFamily",
    "ModelSpec",
    "OffspringFamily",
    "check_conditions",
    "kappa_moment",
    "mean_offspring",
    "moment_A",
    "RunReport",
    "emit_report",
    "run_experiment",
    "RngState",
    "choose_truncation",
    "__version__",
]
