"""Reference values for the benchmark's output checks.

Everything here is computed from the model parameters with numpy and scipy
alone.  Nothing imports bpire, so a fault in the package's samplers, law
arithmetic or oracle cannot leak into the values its outputs are judged by.

Models are given as atoms `(weight, poisson_rate, imm)`, where `imm` is a
discrete-Pareto triple `(kappa, c, beta)` with survival
`min(1, c ln(e+x)^beta (1+x)^-kappa)`.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.stats as st

# Truncated count-law mass is kept below this; it bounds the absolute error
# of every tail probability computed by summation over the count.
TRUNCATION_MASS = 1e-10

# Rows of the count-law sum handled at once (bounds memory, not accuracy).
_BLOCK = 4096


def dpareto_survival(imm, x) -> np.ndarray:
    """P(B > x) at integers x; 1 for x < 0."""
    kappa, c, beta = imm
    x = np.asarray(x, dtype=float)
    xc = np.maximum(x, 0.0)
    s = np.minimum(1.0, c * np.log(math.e + xc) ** beta * (1.0 + xc) ** (-kappa))
    return np.where(x < 0.0, 1.0, s)


def dpareto_pmf(imm, n: int) -> np.ndarray:
    """P(B = k) for k = 0..n, as survival differences."""
    ks = np.arange(n + 1)
    return dpareto_survival(imm, ks - 1) - dpareto_survival(imm, ks)


def dpareto_cap(imm, mass: float = TRUNCATION_MASS) -> int:
    """Smallest n with P(B > n) <= mass (beta = 0 only, closed form)."""
    kappa, c, beta = imm
    if beta != 0.0:
        raise ValueError("closed-form cap needs beta = 0")
    n = max(0, math.ceil((c / mass) ** (1.0 / kappa)) - 1)
    while dpareto_survival(imm, n) > mass:
        n += 1
    return n


def env_survival(atoms, x) -> np.ndarray:
    """Immigration survival of the environment mixture."""
    return sum(w * dpareto_survival(imm, x) for w, _, imm in atoms)


def kappa_moment(atoms, kappa: float) -> float:
    """E[m(xi)^kappa] for Poisson offspring (mean = rate)."""
    return float(sum(w * rate**kappa for w, rate, _ in atoms))


# ---- the exact stationary law ---------------------------------------------

def stationary_law(atoms, cap: int) -> np.ndarray:
    """Stationary pmf of the chain restricted to {0..cap}.

    Row x of the kernel is, per atom, Poisson(rate * x) convolved with the
    immigration pmf, written as a matrix product with the immigration's
    upper-triangular Toeplitz matrix.  Mass beyond `cap` is folded into
    `cap`, the same truncation as the package's oracle, and the stationary
    vector comes from one dense linear solve rather than power iteration.
    """
    size = cap + 1
    xs = np.arange(size, dtype=float)
    kernel = np.zeros((size, size))
    for w, rate, imm in atoms:
        pois = st.poisson.pmf(np.arange(size)[None, :], rate * xs[:, None])
        b = dpareto_pmf(imm, cap)
        toeplitz = scipy.linalg.toeplitz(np.r_[b[0], np.zeros(cap)], b)
        kernel += w * (pois @ toeplitz)
    kernel[:, cap] = np.maximum(0.0, 1.0 - kernel[:, :cap].sum(axis=1))
    system = (kernel - np.eye(size)).T
    system[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    return np.maximum(pi, 0.0) / np.maximum(pi, 0.0).sum()


def survival_of_pmf(pmf) -> np.ndarray:
    """over[u] = P(X > u), summed from the top where it is small."""
    p = np.asarray(pmf, dtype=float)
    return np.append(np.cumsum(p[::-1])[::-1][1:], 0.0)


def _hill_excess(pmf, tail_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """The pmf above the Hill threshold u and the log excesses
    log((x + 0.5) / (u + 0.5)) there, u the smallest integer where
    P(X > u) <= k/n.  A survival within a relative 1e-9 of k/n counts as
    reaching it."""
    p = np.asarray(pmf, dtype=float)
    over = survival_of_pmf(p)
    u = int(np.argmax(over <= tail_fraction * (1.0 + 1e-9)))
    xs = np.arange(u + 1, p.size)
    return p[u + 1 :], np.log((xs + 0.5) / (u + 0.5))


def hill_functional(pmf, tail_fraction: float) -> float:
    """Exact counterpart of the Hill estimate at tail fraction k/n.

    `(k/n) / E[log((X + 0.5) / (u + 0.5)); X > u]` with u the smallest
    integer where P(X > u) <= k/n: the estimator's +0.5 shift and threshold
    rule.
    """
    p, logs = _hill_excess(pmf, tail_fraction)
    mean_log = float(p @ logs)
    if mean_log <= 0.0:
        raise ValueError("no mass above the threshold")
    return tail_fraction / mean_log


def hill_sd(pmf, tail_fraction: float, n: int) -> float:
    """Standard deviation of the Hill estimate from n draws of the law.

    On a discrete law the threshold stays at u, so the estimate is k / S
    with S the sum of the log excesses of the draws above u; the delta
    method gives sd = kappa * sd(S) / E[S].  The number of draws above u is
    random, which the continuous-law figure kappa / sqrt(k) leaves out.
    """
    p, logs = _hill_excess(pmf, tail_fraction)
    mean_log = float(p @ logs)
    var_log = float(p @ logs**2) - mean_log**2
    return (tail_fraction / mean_log) * math.sqrt(var_log / n) / mean_log


# ---- one-step sums over a heavy-tailed count ---------------------------------

def thinned_count_tail(atoms, count_pmf, xs, add_immigration: bool) -> np.ndarray:
    """P(Poisson(m N) [+ B_xi] > x) for each x in xs, N ~ count_pmf.

    N is independent of the environment xi; with `add_immigration` the
    atom's own immigration B_xi is added (the grey sum), otherwise the sum is
    the single thinned random sum of lemma 1.  N is summed directly over
    its truncated pmf; the error is at most the count mass left out.
    """
    count_pmf = np.asarray(count_pmf, dtype=float)
    xs = [int(x) for x in xs]
    out = np.zeros(len(xs))
    ns = np.arange(count_pmf.size, dtype=float)
    for w, rate, imm in atoms:
        for i, x in enumerate(xs):
            total = 0.0
            for lo in range(0, ns.size, _BLOCK):
                lam = rate * ns[lo : lo + _BLOCK]
                pn = count_pmf[lo : lo + _BLOCK]
                # P(Poisson(lam) > x), plus the cases where Poisson(lam) = j <= x
                # and the immigration exceeds x - j
                tail = st.poisson.sf(x, lam)
                if add_immigration:
                    # rows with P(Poisson(lam) <= x) < 1e-30 add nothing visible
                    near = st.poisson.cdf(x, lam) > 1e-30
                    js = np.arange(x + 1)
                    pj = st.poisson.pmf(js[None, :], lam[near, None])
                    tail[near] += pj @ dpareto_survival(imm, x - js)
                total += float(pn @ tail)
            out[i] += w * total
    return out


def stationary_zero_mass_bernoulli() -> float:
    """P(X = 0) for survive-or-die offspring with coin-flip immigration:
    prod_{k>=1} (1 - 2^-k), to double precision."""
    return math.prod(1.0 - 2.0**-k for k in range(1, 64))


def threshold(surv, level: float) -> int:
    """Smallest integer x >= 0 with surv(x) <= level, surv non-increasing."""
    hi = 1
    while surv(hi) > level:
        hi *= 2
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if surv(mid) <= level:
            hi = mid
        else:
            lo = mid
    return 0 if surv(0) <= level else hi


def hill_k(n: int) -> int:
    """floor(n^(2/3)) in integer arithmetic: k^3 <= n^2 < (k+1)^3."""
    k = int(round(n ** (2.0 / 3.0)))
    while k**3 > n * n:
        k -= 1
    while (k + 1) ** 3 <= n * n:
        k += 1
    return k
