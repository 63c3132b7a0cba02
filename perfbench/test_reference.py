"""Tests of the benchmark's reference computations against bpire's own
independent routes, where both can be computed.

Not part of the repository's test suite (pytest collects `tests/` only):

    python3 -m pytest perfbench/test_reference.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bpire.env_model import (  # noqa: E402
    EnvAtom,
    EnvSpec,
    ImmigrationFamily,
    OffspringFamily,
    env_immigration_survival,
    immigration_survival,
)
from bpire.oracle import brute_force_random_sum_tail, build_kernel, stationary_power_iteration  # noqa: E402
from bpire.rng import RngState  # noqa: E402
from bpire.simulator import sample_immigration_batch  # noqa: E402
from bpire.tailstats import default_hill_k, hill_estimate, threshold_for_level  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def _env(atoms) -> EnvSpec:
    return EnvSpec.from_atoms(
        [EnvAtom(w, OffspringFamily.poisson(rate), ImmigrationFamily.discrete_pareto(*imm)) for w, rate, imm in atoms]
    )


def _geometric0_pmf(p: float, cap: int) -> np.ndarray:
    # bpire's geometric0 immigration law: survival (1 - p)^(x + 1)
    return p * (1.0 - p) ** np.arange(cap + 1)


def test_dpareto_survival_is_the_package_law():
    xs = np.arange(-2, 400)
    for imm in (workloads.B_LAW, (2.0, 0.5, 0.0), (1.5, 0.8, 1.0)):
        want = immigration_survival(ImmigrationFamily.discrete_pareto(*imm), xs)
        assert np.array_equal(ref.dpareto_survival(imm, xs), want)
    assert ref.env_survival(workloads.GREY, 70) == pytest.approx(env_immigration_survival(_env(workloads.GREY), 70), rel=1e-15)


def test_lemma1_tail_matches_brute_force_convolution():
    # a light count law, where the oracle's convolution of single-draw pmfs
    # can be carried to every B that matters
    p, cap = 0.5, 60
    got = ref.thinned_count_tail(workloads.CONFIG_A, _geometric0_pmf(p, cap), [0, 2, 5], add_immigration=False)
    env = _env(workloads.CONFIG_A)
    for x, value in zip([0, 2, 5], got):
        want = brute_force_random_sum_tail(env, ImmigrationFamily.geometric0(p), x, cap)
        assert value == pytest.approx(want, rel=1e-10, abs=1e-15), x


def test_grey_tail_matches_kernel_rows():
    # P(Poisson(m N) + B_xi > x) is the kernel's row N summed past x, mixed
    # over N; rows below the cap are exact
    p, cap = 0.5, 60
    pn = _geometric0_pmf(p, cap)
    kernel = build_kernel(_env(workloads.GREY), 512).matrix
    for x in (0, 3, 20):
        want = float(pn @ (1.0 - kernel[: cap + 1, : x + 1].sum(axis=1)))
        got = ref.thinned_count_tail(workloads.GREY, pn, [x], add_immigration=True)[0]
        assert got == pytest.approx(want, rel=1e-10), x


def test_stationary_law_matches_the_oracle():
    for cap in (64, 256):
        want = stationary_power_iteration(build_kernel(_env(workloads.CONFIG_A), cap)).pmf
        got = ref.stationary_law(workloads.CONFIG_A, cap)
        assert 0.5 * np.abs(got - want).sum() < 1e-10, cap


def test_zero_mass_product_matches_the_oracle():
    env = EnvSpec.from_atoms([EnvAtom(1.0, OffspringFamily.bernoulli(0.5), ImmigrationFamily.bernoulli(0.5))])
    pmf = stationary_power_iteration(build_kernel(env, 64)).pmf
    assert pmf[0] == pytest.approx(ref.stationary_zero_mass_bernoulli(), abs=1e-11)


def test_hill_functional_of_the_empirical_pmf_is_hill_estimate():
    draws = sample_immigration_batch(ImmigrationFamily.discrete_pareto(2.0, 1.0), RngState.from_seed(29), 100_000)
    pmf = np.bincount(draws) / draws.size
    edge = int((draws > 10).sum())  # threshold exactly at P(X > u) = k/n
    for k in (50, 1000, 4641, edge):
        want, _ = hill_estimate(draws, k)
        assert ref.hill_functional(pmf, k / draws.size) == pytest.approx(want, rel=1e-12, abs=0.0), k


def test_threshold_and_hill_k_match_the_package():
    surv = workloads._survival(workloads.CONFIG_A)
    env = _env(workloads.CONFIG_A)
    for level in workloads.GRID:
        assert ref.threshold(surv, level) == threshold_for_level(lambda x: float(env_immigration_survival(env, x)), level)
    for n in (1, 8, 10**6, 1 << 19, 10**7 + 1):
        assert ref.hill_k(n) == default_hill_k(n), n


def test_hill_sd_matches_repeated_estimates_on_the_exact_law():
    # draws by inversion of the exact config_a law, not by bpire's sampler
    pmf = ref.stationary_law(workloads.CONFIG_A, 1024)
    cdf = np.cumsum(pmf) / pmf.sum()
    n = 1 << 17
    k = ref.hill_k(n)
    rng = np.random.default_rng(31)
    estimates = [hill_estimate(np.searchsorted(cdf, rng.random(n), side="right"), k)[0] for _ in range(300)]
    got = float(np.std(estimates, ddof=1))
    want = ref.hill_sd(pmf, k / n, n)
    kappa = ref.hill_functional(pmf, k / n)
    # 300 estimates pin the sd to about 4 %
    assert got == pytest.approx(want, rel=0.2)
    # the continuous-law figure kappa / sqrt(k) falls short of it here
    assert kappa / np.sqrt(k) < 0.85 * got
