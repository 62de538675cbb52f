"""Self-check suites: the library's analytic claims run against brute force.

Each suite draws randomized instances, evaluates a claimed identity or bound
against an independent computation, and reports the failure count together
with the worst slack margin (negative means a violation). The ``bound_scale``
hook deliberately weakens the claimed bounds so callers can confirm the
suites detect violations; it exists for negative-control testing only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compression import (
    compress,
    reconstruct,
    softplus,
    tail_gap_after_fill,
    utv_bound,
    utv_bound_online,
)
from .dist import ProbVec, SortedProbVec, TokenId, sample, softmax, sort_desc, tvd
from .specdec import distorted_resample_dist, hybrid_output_dist, rejection_prob, resample_dist
from .uncertainty import (
    DiscretePmfEstimator,
    GaussianKdeEstimator,
    LinearRejectionModel,
    rejection_risk,
    thresholds,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    n_cases: int
    failures: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: {self.n_cases} cases, "
            f"{self.failures} failures, worst margin {self.worst_margin:.3e}"
        )


def correlated_pair(rng: np.random.Generator, n: int, zipf_s: float = 1.2) -> tuple[ProbVec, ProbVec]:
    """Long-tailed device/server pair with positive divergence."""
    base = -zipf_s * np.log(np.arange(1, n + 1))
    rng.shuffle(base)
    za = base + rng.normal(0, 1.0, n)
    zb = base + rng.normal(0, 1.0, n)
    return softmax(za), softmax(zb)


def hybrid_law_reference(x: ProbVec, y: ProbVec, q: ProbVec) -> np.ndarray:
    """Brute-force output law of accept/resample with resampling dist q, token
    by token: a draft v with x_v > 0 is rejected with rejection_prob(x_v, y_v),
    the rule ``accepts`` runs, and kept otherwise; the rejected mass draws from q."""
    xs, ys = x.probs.tolist(), y.probs.tolist()
    beta = [rejection_prob(x_v, y_v) if x_v > 0.0 else 0.0 for x_v, y_v in zip(xs, ys)]
    law = np.array([x_v * (1.0 - b) for x_v, b in zip(xs, beta)])
    return law + math.fsum(x_v * b for x_v, b in zip(xs, beta)) * q.probs


def check_unbiasedness(
    n_cases: int, seed: int = 0, vocabs: tuple[int, ...] = (2, 8, 64), tol: float = 1e-10
) -> SuiteResult:
    """The token-by-token output law equals the server law under exact
    resampling, and the closed form ``hybrid_output_dist`` equals that law."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = math.inf
    total = 0
    for vocab in vocabs:
        for _ in range(n_cases):
            x = ProbVec(rng.dirichlet(np.ones(vocab)))
            y = ProbVec(rng.dirichlet(np.ones(vocab)))
            q = resample_dist(x, y)
            law = hybrid_law_reference(x, y, q)
            closed = hybrid_output_dist(x, y, q).probs
            margin = tol - float(max(np.abs(law - y.probs).max(), np.abs(closed - law).max()))
            worst = min(worst, margin)
            failures += margin < 0.0
            total += 1
    return SuiteResult("unbiasedness", total, failures, worst)


def tail_l1_reference(x_sorted: SortedProbVec, k: int, d: TokenId) -> float:
    """Brute-force bound numerator: compress at k, reconstruct, then sum the
    l1 gap between x and x_hat over ranks k+1..|V| of x."""
    x_hat = reconstruct(compress(x_sorted, k, d))
    return float(np.abs(x_sorted.probs[k:] - x_hat.probs[x_sorted.perm[k:]]).sum())


def check_tvd_bound_dominance(
    n_cases: int,
    seed: int = 0,
    vocabs: tuple[int, ...] = (8, 64, 1024),
    bound_scale: float = 1.0,
) -> SuiteResult:
    """Exact-denominator bound dominates the true resampling distortion, and
    its closed-form numerator is within 1e-12 of the brute-force reference."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = math.inf
    total = 0
    for vocab in vocabs:
        done = 0
        while done < n_cases:
            x, y = correlated_pair(rng, vocab)
            if tvd(x, y) <= 1e-12:
                continue
            k = int(rng.integers(1, vocab + 1))
            d = sample(x, rng)
            s = sort_desc(x)
            q, fallback = distorted_resample_dist(reconstruct(compress(s, k, d)), y)
            if fallback:
                continue
            rank = s.rank_of(d)
            tail = float(tail_gap_after_fill(s, k, rank))
            agreement = 1e-12 - abs(tail - tail_l1_reference(s, k, d))
            bound = bound_scale * float(utv_bound(s, rank, k, tvd(x, y)))
            margin = bound - tvd(resample_dist(x, y), q)
            worst = min(worst, margin, agreement)
            failures += (margin < -1e-12) or (agreement < 0.0)
            done += 1
            total += 1
    return SuiteResult("tvd_bound_dominance", total, failures, worst)


def smoothed_tvd(x: ProbVec, y: ProbVec, eta: float) -> float:
    """Softplus-smoothed one-sided mass sum(x_i * softplus(y_i/x_i - 1)).

    Upper-approximates tvd(x, y) with per-instance error at most ln2/eta;
    requires strictly positive x (softmax outputs satisfy this).
    """
    xs = x.probs
    if np.any(xs <= 0.0):
        raise ValueError("smoothed TVD requires strictly positive device probabilities")
    return float((xs * np.array([softplus(z, eta) for z in y.probs / xs - 1.0])).sum())


def check_online_bound_dominance(
    n_cases: int,
    seed: int = 0,
    etas: tuple[float, ...] = (5.0, 10.0, 50.0),
    bound_scale: float = 1.0,
) -> SuiteResult:
    """Device-only bound strictly exceeds the smoothed-denominator ratio, its
    closed-form numerator is within 1e-12 of the brute-force reference, and
    the softplus smoothing stays within ln2/eta of the true TVD."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = math.inf
    total = 0
    for eta in etas:
        done = 0
        while done < n_cases:
            n = int(rng.integers(3, 128))
            x, y = correlated_pair(rng, n)
            s = sort_desc(x)
            d = sample(x, rng)
            k = int(rng.integers(1, n))  # leaves at least one tail rank
            # Skip on the closed form: it is exactly 0 where the reference has rounding noise.
            rank = s.rank_of(d)
            tail = float(tail_gap_after_fill(s, k, rank))
            if tail <= 0.0:
                continue
            agreement = 1e-12 - abs(tail - tail_l1_reference(s, k, d))
            smoothed = smoothed_tvd(x, y, eta)
            beta_d = rejection_prob(float(x.probs[d]), float(y.probs[d]))
            online = bound_scale * float(utv_bound_online(s, rank, k, beta_d, eta))
            margin = online - tail / smoothed
            err_margin = math.log(2.0) / eta - (smoothed - tvd(x, y))
            worst = min(worst, margin, err_margin, agreement)
            held = margin > 0.0 and err_margin >= -1e-12 and agreement >= 0.0
            failures += not (held and smoothed >= tvd(x, y) - 1e-12)
            done += 1
            total += 1
    return SuiteResult("online_bound_dominance", total, failures, worst)


def check_risk_bound(
    seed: int = 0,
    grid_points: int = 20,
    n_samples: int = 8000,
    bound_scale: float = 1.0,
) -> SuiteResult:
    """Skip-risk bound holds along a threshold sweep for both estimators."""
    rng = np.random.default_rng(seed)
    model = LinearRejectionModel(a=0.815, b=-0.066, mse=0.0, r2=1.0)
    u = rng.uniform(0.0, 1.0, n_samples)
    span = thresholds(model, 1.0)
    failures = 0
    worst = math.inf
    total = 0
    for estimator in (GaussianKdeEstimator(), DiscretePmfEstimator(m=20)):
        for u_th in np.linspace(span.risk_averse, span.risk_prone, grid_points):
            rep = rejection_risk(model, u, float(u_th), estimator)
            margin = bound_scale * rep.bound - rep.empirical_r
            worst = min(worst, margin)
            failures += margin < -1e-12
            total += 1
    return SuiteResult("risk_bound", total, failures, worst)


def run_all_suites(
    n_cases: int, seed: int = 0, bound_scale: float = 1.0
) -> list[SuiteResult]:
    if n_cases < 1:
        raise ValueError("verification needs at least one case per suite")
    return [
        check_unbiasedness(n_cases, seed),
        check_tvd_bound_dominance(n_cases, seed + 1, bound_scale=bound_scale),
        check_online_bound_dominance(n_cases, seed + 2, bound_scale=bound_scale),
        check_risk_bound(seed + 3, bound_scale=bound_scale),
    ]
