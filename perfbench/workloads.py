"""The benchmark's workloads: their configs, operations and checks.

The models mirror the bundled configs (configs/config_a.cfg, grey.cfg,
decay_poisson.cfg, oracle_bernoulli.cfg) but are written out here, so the
benchmark's inputs and the references they are judged by come from one
place and do not move when the bundled files do.  The run's seed becomes the
master seed of every sampling operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import reference as ref

# weight, Poisson offspring rate, discrete-Pareto immigration (kappa, c, beta)
CONFIG_A = ((0.5, 0.3, (2.0, 1.0, 0.0)), (0.5, 0.9, (2.0, 1.0, 0.0)))
GREY = ((0.5, 0.3, (2.0, 0.5, 0.0)), (0.5, 0.9, (2.0, 0.5, 0.0)))
B_LAW = (2.0, 1.0, 0.0)  # lemma1's designated count law
N_LAW = (2.0, 1.0, 0.0)  # grey's independent count law
KAPPA = 2.0
DECAY_RATE = 0.5  # E[m] of decay_poisson.cfg's single poisson:0.5 atom
GRID = (1e-2, 1e-3, 1e-4, 1e-5)
EXACT_CAPS = (1024, 2048)
SRE_TOLERANCE = 0.15  # the experiment's own tolerance on the 1e-4 ratio


def _law(imm) -> str:
    return "dpareto:{:g},{:g},{:g}".format(*imm)


def _config(atoms_text: list[str], kappa: float, experiment: dict) -> str:
    lines = ["[model]", f"kappa = {kappa:g}", "delta = 0.5", "", "[env]", "atoms ="]
    lines += [f"    {a}" for a in atoms_text]
    lines += ["", "[experiment]", "seed = 12345"]
    lines += [f"{k} = {v}" for k, v in experiment.items()]
    return "\n".join(lines) + "\n"


def _poisson_atoms(atoms) -> list[str]:
    return [f"{w:g} poisson:{rate:g} {_law(imm)}" for w, rate, imm in atoms]


GRID_TEXT = ", ".join(f"{lv:g}" for lv in GRID)


def _survival(atoms):
    """x -> immigration survival of the atoms' environment mixture."""
    return lambda x: float(ref.env_survival(atoms, x))


@dataclass(frozen=True)
class Op:
    """One operation: a CLI experiment run or the exact-law computation."""

    name: str  # the CLI experiment, or "exact-law"
    config: str  # config file text
    workers: int
    replicas: int  # Monte Carlo replicas the operation samples
    check: Callable[[Path], list[str]]


# ---- stationary-tail ------------------------------------------------------------

THEOREM_REPLICAS = 1 << 19


def _stationary_ops() -> list[Op]:
    surv = _survival(CONFIG_A)
    xs = [ref.threshold(surv, lv) for lv in GRID]
    x3 = ref.threshold(surv, 1e-3)
    laws = [ref.stationary_law(CONFIG_A, cap) for cap in EXACT_CAPS]
    ratio = tuple(float(ref.survival_of_pmf(p)[x3]) / surv(x3) for p in laws)
    k = ref.hill_k(THEOREM_REPLICAS)
    hill = tuple(ref.hill_functional(p, k / THEOREM_REPLICAS) for p in laws)
    hill_sd = ref.hill_sd(laws[-1], k / THEOREM_REPLICAS, THEOREM_REPLICAS)

    def check(out: Path) -> list[str]:
        rows = checks.read_csv(out / "ratio.csv")
        kappa_hat = checks.read_json(out / "summary.json")["kappa_hat"]
        return (
            checks.check_grid(rows, xs)
            + checks.check_stationary_ratio(rows, x3, ratio)
            + checks.check_hill(kappa_hat, hill, hill_sd)
        )

    text = _config(
        _poisson_atoms(CONFIG_A),
        KAPPA,
        {"replicas": THEOREM_REPLICAS, "b_law": _law(B_LAW), "grid": GRID_TEXT, "metric_levels": "1e-3, 1e-4"},
    )
    return [Op("theorem", text, 1, THEOREM_REPLICAS, check)]


# ---- count-tails --------------------------------------------------------------

COUNT_WORKERS = 2
LEMMA1_REPLICAS = 1 << 23
SRE_REPLICAS = 1 << 20
GREY_REPLICAS = 1 << 22
DECAY_REPLICAS = 1 << 19
DECAY_DEPTHS = 10


def _tail_check(atoms, count_law, ref_surv, n: int, add_immigration: bool):
    xs = [ref.threshold(ref_surv, lv) for lv in GRID]
    cap = ref.dpareto_cap(count_law)
    exact = ref.thinned_count_tail(atoms, ref.dpareto_pmf(count_law, cap), xs, add_immigration)
    exact_tail = dict(zip(xs, (float(p) for p in exact)))
    surv_at = {x: ref_surv(x) for x in xs}

    def check(out: Path) -> list[str]:
        rows = checks.read_csv(out / "ratio.csv")
        return checks.check_grid(rows, xs) + checks.check_exact_tail(rows, n, exact_tail, surv_at)

    return check


def _count_ops() -> list[Op]:
    surv_a = _survival(CONFIG_A)
    surv_b = _survival(((1.0, 0.0, B_LAW),))
    surv_grey = _survival(GREY)
    sre_x = ref.threshold(surv_a, 1e-4)
    sre_xs = [ref.threshold(surv_a, lv) for lv in GRID]
    limit = 1.0 / (1.0 - ref.kappa_moment(CONFIG_A, KAPPA))

    def check_sre(out: Path) -> list[str]:
        rows = checks.read_csv(out / "ratio.csv")
        return checks.check_grid(rows, sre_xs) + checks.check_limit_ratio(rows, sre_x, limit, SRE_TOLERANCE)

    def check_decay(out: Path) -> list[str]:
        rows = checks.read_csv(out / "decay.csv")
        if [int(r["n"]) for r in rows] != list(range(1, DECAY_DEPTHS + 1)):
            return [f"decay.csv depths {[int(r['n']) for r in rows]}"]
        return checks.check_decay(rows, DECAY_RATE)

    atoms_a = _poisson_atoms(CONFIG_A)
    common = {"grid": GRID_TEXT, "metric_levels": "1e-4"}
    return [
        Op(
            "lemma1",
            _config(atoms_a, KAPPA, {"replicas": LEMMA1_REPLICAS, "b_law": _law(B_LAW), **common}),
            COUNT_WORKERS,
            LEMMA1_REPLICAS,
            _tail_check(CONFIG_A, B_LAW, surv_b, LEMMA1_REPLICAS, add_immigration=False),
        ),
        Op("sre", _config(atoms_a, KAPPA, {"replicas": SRE_REPLICAS, **common}), COUNT_WORKERS, SRE_REPLICAS, check_sre),
        Op(
            "grey",
            _config(_poisson_atoms(GREY), KAPPA, {"replicas": GREY_REPLICAS, "n_law": _law(N_LAW), **common}),
            COUNT_WORKERS,
            GREY_REPLICAS,
            _tail_check(GREY, N_LAW, surv_grey, GREY_REPLICAS, add_immigration=True),
        ),
        Op(
            "decay",
            _config(
                ["1.0 poisson:0.5 constant:1"],
                1.0,
                {"replicas": DECAY_REPLICAS, "alpha": 1, "n_gens": DECAY_DEPTHS},
            ),
            COUNT_WORKERS,
            DECAY_REPLICAS * DECAY_DEPTHS,
            check_decay,
        ),
    ]


# ---- exact-law ----------------------------------------------------------------

ORACLE_REPLICAS = 1 << 18


def _exact_ops() -> list[Op]:
    surv = _survival(CONFIG_A)
    x3 = ref.threshold(surv, 1e-3)
    independent = {cap: ref.stationary_law(CONFIG_A, cap) for cap in EXACT_CAPS}

    def check_exact(out: Path) -> list[str]:
        return checks.check_exact_law(out, EXACT_CAPS, independent, x3, surv(x3))

    oracle_text = _config(
        ["1.0 bernoulli:0.5 bernoulli:0.5"], KAPPA, {"replicas": ORACLE_REPLICAS, "state_cap": 64}
    )
    return [
        Op("exact-law", _config(_poisson_atoms(CONFIG_A), KAPPA, {}), 1, 0, check_exact),
        Op("oracle", oracle_text, 1, ORACLE_REPLICAS, lambda out: checks.check_oracle(out, ORACLE_REPLICAS)),
    ]


WORKLOADS = {
    "stationary-tail": _stationary_ops,
    "count-tails": _count_ops,
    "exact-law": _exact_ops,
}


def operations(workload: str) -> list[Op]:
    """The workload's operations, with references computed for their checks."""
    return WORKLOADS[workload]()
