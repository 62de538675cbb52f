"""Temperature-perturbation uncertainty and the skip-threshold calculus.

A draft token's uncertainty is the fraction of temperature-perturbed
resamples that disagree with it. Empirically this is linearly related to the
server's rejection probability, so a fitted line (beta = a*u + b) converts an
uncertainty threshold into a rejection-risk guarantee: skipping every round
with u <= u_th incurs an expected extra rejection probability bounded by a
closed-form expression in the threshold and the density of u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import MIN_TEMPERATURE, TokenId, check_logits, sample_at, softmax


@dataclass(frozen=True)
class UncertaintyConfig:
    """Perturbation count and the top of the temperature interval."""

    m: int = 20
    theta_max: float = 2.0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("perturbation count must be >= 1")
        if not self.theta_max > 0.0:
            raise ValueError("theta_max must be positive")


@dataclass(frozen=True)
class LinearRejectionModel:
    """Least-squares line mapping uncertainty to rejection probability."""

    a: float
    b: float
    mse: float
    r2: float


@dataclass(frozen=True)
class ThresholdPair:
    """Skip thresholds derived from the linear model.

    risk_averse (-b/a) skips only rounds the model predicts are never
    rejected; risk_prone ((delta - b)/a) is the largest threshold for which
    the predicted rejection probability stays within delta.
    """

    risk_averse: float
    risk_prone: float


@dataclass(frozen=True)
class RiskReport:
    """Empirical skip-induced rejection risk and its analytic upper bound."""

    empirical_r: float
    bound: float


# Sizes and least margin of the bounded redraws (redraw_brackets,
# estimate_u).
EXACT_RANKS = 256
VALUE_BUCKETS = 64
REDRAW_MARGIN = 1e-9

# Distinct sample values per exp and matmul of GaussianKdeEstimator.
KDE_CHUNK = 128


def redraw_brackets(
    z: np.ndarray, d: TokenId, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Intervals around cdf[d-1] and cdf[d] of softmax(z / theta), one entry per theta.

    Returns (lower_lo, lower_hi, upper_lo, upper_hi). For every theta the
    real cdf[d-1] = A/S lies in [lower_lo, lower_hi] and the real
    cdf[d] = (A + e_d)/S in [upper_lo, upper_hi], up to a few ulps of the
    arithmetic here. A, e_d and B sum the terms exp(w_i) below d, at d and
    above d, S = A + e_d + B, and w = z/theta - max(z/theta) is computed
    with the same floats as ``softmax``. A bound is -inf (d = 0) or +inf
    (d = |V| - 1) where ``sample_at`` has no limit, and NaN where a
    denominator underflows to 0.

    The ids with z >= cut, the EXACT_RANKS-th largest logit (every id when
    |V| <= EXACT_RANKS), contribute exact terms. The rest fall into
    VALUE_BUCKETS equal-width buckets of z between min(z) and cut, and each
    bucket contributes its count of ids below and above d times exp of its
    lower and upper edge. No id order is needed.

    The bucket of a logit is floor((z - min) * (VALUE_BUCKETS / span)) with
    span = cut - min, and its edges are min + j * (span / VALUE_BUCKETS).
    Each of those steps rounds once, so a logit can sit outside its
    computed bucket, but by at most about 9 ulps of |min| + |cut|: four
    roundings of the index scale the distance to min by at most 1 + 4u,
    three roundings of an edge move it by at most 3u*span + u*|edge|, and
    span <= |min| + |cut| (u = 2**-53). Widening each edge by
    2**-48 * (|min| + |cut|), 32 ulps, covers that with room to spare; no
    edge needs to pass min or cut, which hold every bucketed logit. Then
    exp of an edge bounds exp of every logit in the bucket, since
    z/theta - max and exp never reverse the order of two floats.
    """
    n = z.size
    kth = max(n - EXACT_RANKS, 0)
    cut = np.partition(z, kth)[kth]
    top = np.flatnonzero(z >= cut)
    z_min = z.min()
    with np.errstate(over="ignore", divide="ignore"):
        span = cut - z_min
        scale = VALUE_BUCKETS / span
        if 0.0 < scale < np.inf:
            buckets = VALUE_BUCKETS
            # One float temporary, scaled in place, and a uint8 index (it
            # holds 0..VALUE_BUCKETS): 1.125 vectors at most, not two.
            t = z - z_min
            t *= scale
            np.minimum(t, buckets - 1, out=t)
            bucket = t.astype(np.uint8)
            del t
            edges = z_min + np.arange(buckets + 1) * (span / buckets)
        else:  # a span too wide, too narrow or 0 (no id below cut) to scale
            buckets = 1
            bucket = np.zeros(n, dtype=np.uint8)
            edges = np.array([z_min, cut])
    bucket[top] = buckets  # exact terms: a bin of their own, dropped below
    n_below = np.bincount(bucket[:d], minlength=buckets + 1)[:buckets].astype(np.float64)
    n_above = np.bincount(bucket[d + 1 :], minlength=buckets + 1)[:buckets].astype(np.float64)
    slack = 2.0**-48 * abs(z_min) + 2.0**-48 * abs(cut)
    lo = np.maximum(edges[:-1] - slack, z_min)
    hi = np.minimum(edges[1:] + slack, cut)

    col = thetas[:, None]
    w_max = z.max() / thetas
    e_top = np.exp(z[top] / col - w_max[:, None])
    e_lo = np.exp(lo / col - w_max[:, None])
    e_hi = np.exp(hi / col - w_max[:, None])
    e_d = np.exp(z[d] / thetas - w_max)
    # top ascends, so its ids below d and above d are two slices.
    a_top = e_top[:, : np.searchsorted(top, d)].sum(axis=1)
    b_top = e_top[:, np.searchsorted(top, d, side="right") :].sum(axis=1)
    a_lo, a_hi = a_top + (e_lo * n_below).sum(axis=1), a_top + (e_hi * n_below).sum(axis=1)
    b_lo, b_hi = b_top + (e_lo * n_above).sum(axis=1), b_top + (e_hi * n_above).sum(axis=1)

    with np.errstate(invalid="ignore"):
        lower_lo = a_lo / (a_lo + e_d + b_hi)
        lower_hi = a_hi / (a_hi + e_d + b_lo)
        upper_lo = (a_lo + e_d) / (a_lo + e_d + b_hi)
        upper_hi = (a_hi + e_d) / (a_hi + e_d + b_lo)
    if d == 0:
        lower_lo = lower_hi = np.full_like(thetas, -np.inf)
    if d == z.size - 1:
        upper_lo = upper_hi = np.full_like(thetas, np.inf)
    return lower_lo, lower_hi, upper_lo, upper_hi


def perturbation_draws(
    cfg: UncertaintyConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The m temperatures and m redraw uniforms of ``estimate_u``, from one call.

    The stream holds them alternately, as m pairs of ``rng.uniform(0,
    theta_max)`` and ``rng.random()`` calls would draw them. Since
    ``uniform(0, t)`` is ``0.0 + t * random()``, the floats and the
    generator's final state are those of the 2m scalar calls.
    """
    r = rng.random(2 * cfg.m)
    return np.maximum(cfg.theta_max * r[0::2], MIN_TEMPERATURE), r[1::2]


def estimate_u(
    logits: np.ndarray,
    d: TokenId,
    cfg: UncertaintyConfig,
    rng: np.random.Generator,
) -> float:
    """Fraction of m temperature-perturbed redraws that disagree with the draft d.

    The fraction u is a multiple of 1/m. Temperatures are drawn uniformly
    from [0, theta_max]; an exact-zero draw is remapped to the smallest legal
    temperature, where the redraw collapses to the argmax.

    Each redraw is ``sample(softmax(logits, theta), rng)``, but only whether
    it equals d matters: with r the redraw's ``rng.random()``, it does
    exactly when cdf[d-1] <= r < cdf[d] (``sample_at``). The rng is
    consumed as the full samples would consume it (one ``uniform``, then
    one ``random`` per redraw), and every redraw is decided as the full
    sample decides it, so u is unchanged bit for bit.

    ``redraw_brackets`` bounds both CDF values from about EXACT_RANKS +
    2*VALUE_BUCKETS exps instead of |V|, without sorting the logits. With
    the margin M = max(REDRAW_MARGIN, 2 * (|V| + 32) * 2**-53), a redraw
    with r below lower_lo - M, or at or above upper_hi + M, disagrees; one
    with lower_hi + M <= r < upper_lo - M agrees; any other (a NaN bound
    included) takes the exact path, ``sample_at(softmax(z, theta), r) != d``.

    Why the margin suffices: the exact path compares r with floats within
    (|V| + 32) * 2**-53 of the real values the brackets hold. ``np.exp`` is
    within a few ulps; the division by the pairwise sum adds a relative
    error of about log2|V| ulps; the sequential ``cumsum`` adds at most |V|
    ulps of its total, which is at most 1. M is at least twice that bound
    (it is exactly REDRAW_MARGIN below about 4.5 million tokens), and the
    brackets' own rounding is smaller still: their bucket edges are widened
    past the rounding of the bucket index (see ``redraw_brackets``). The
    probabilities' sum drifts from 1 by only about 2*log2|V| ulps, far
    below ``SUM_TOL``, so ``ProbVec`` never renormalizes on this path and
    the exact path's floats are the ones above.
    """
    z = check_logits(logits)
    if not 0 <= d < z.size:
        raise ValueError(f"draft token {d} outside vocabulary of size {z.size}")
    thetas, draws = perturbation_draws(cfg, rng)
    lower_lo, lower_hi, upper_lo, upper_hi = redraw_brackets(z, d, thetas)
    margin = max(REDRAW_MARGIN, 2 * (z.size + 32) * 2.0**-53)
    outside = (draws < lower_lo - margin) | (draws >= upper_hi + margin)
    inside = (draws >= lower_hi + margin) & (draws < upper_lo - margin)
    disagree = int(np.count_nonzero(outside))
    for i in np.flatnonzero(~(outside | inside)):
        if sample_at(softmax(z, float(thetas[i])), float(draws[i])) != d:
            disagree += 1
    return disagree / cfg.m


def fit_linear(u, beta) -> LinearRejectionModel:
    """Ordinary least squares of beta on u, two equal-length columns.

    The line comes in closed form from sums about the means, each summed
    exactly with ``math.fsum``: a = sum(du * dbeta) / sum(du * du) and
    b = mean(beta) - a * mean(u). No BLAS or LAPACK routine runs.
    """
    u = np.asarray(u, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if u.shape != beta.shape or u.ndim != 1:
        raise ValueError("u and beta must be two columns of equal length")
    if u.size < 2:
        raise ValueError("need at least two calibration pairs")
    if np.ptp(u) == 0.0:
        raise ValueError("degenerate fit: all uncertainty values identical")
    n = u.size
    u_mean = math.fsum(u.tolist()) / n
    beta_mean = math.fsum(beta.tolist()) / n
    du = u - u_mean
    a = math.fsum((du * (beta - beta_mean)).tolist()) / math.fsum((du * du).tolist())
    b = beta_mean - a * u_mean
    resid = beta - (a * u + b)
    mse = float(np.mean(resid**2))
    ss_tot = float(np.sum((beta - beta.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    return LinearRejectionModel(a=float(a), b=float(b), mse=mse, r2=r2)


def predict_beta(model: LinearRejectionModel, u):
    """Predicted rejection probability a*u + b clamped to [0, 1], elementwise."""
    return np.clip(model.a * u + model.b, 0.0, 1.0)


def thresholds(model: LinearRejectionModel, delta: float) -> ThresholdPair:
    """Closed-form risk-averse and risk-prone skip thresholds."""
    if not model.a > 0.0:
        raise ValueError("threshold formulas require a positive slope")
    return ThresholdPair(
        risk_averse=-model.b / model.a,
        risk_prone=(delta - model.b) / model.a,
    )


def estimate_delta(x_d, y_d) -> float:
    """Fraction of rounds, given as two equal-length columns, where the draft
    is not deterministically accepted (y_d < x_d)."""
    if len(x_d) == 0:
        raise ValueError("empty calibration set")
    return float(np.mean(np.less(y_d, x_d)))


class GaussianKdeEstimator:
    """Gaussian kernel density estimate with Silverman's bandwidth.

    h = std(samples, ddof=1) * (3n/4)^(-1/5), Silverman's (1986) rule in
    1-D. Equal samples collapse into (value, count) pairs: u takes only the
    m+1 values j/m, so it costs m+1 kernels per grid point, not n.
    """

    GRID_POINTS = 2048

    def density_l2_integral(self, samples: np.ndarray, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        if np.ptp(samples) == 0.0:
            raise ValueError("KDE undefined for zero-variance samples")
        h = np.std(samples, ddof=1) * (0.75 * samples.size) ** -0.2
        values, counts = np.unique(samples, return_counts=True)
        grid = np.linspace(lo, hi, self.GRID_POINTS)
        f = np.zeros(grid.size)
        for i in range(0, values.size, KDE_CHUNK):
            z = np.subtract.outer(grid / h, values[i : i + KDE_CHUNK] / h)
            z *= z
            z *= -0.5
            f += np.exp(z, out=z) @ counts[i : i + KDE_CHUNK]
        f /= samples.size * h * np.sqrt(2.0 * np.pi)
        return float(np.trapezoid(f**2, grid))


class DiscretePmfEstimator:
    """Histogram density on the natural 1/m grid of uncertainty values.

    Each level j/m owns a cell of width 1/m centered on it; the squared
    density integrates as a Riemann sum over the cells' overlap with the
    integration interval.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("resolution must be >= 1")
        self.m = m

    def density_l2_integral(self, samples: np.ndarray, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        levels = np.clip(np.round(samples * self.m).astype(int), 0, self.m)
        counts = np.bincount(levels, minlength=self.m + 1)
        pmf = counts / counts.sum()
        width = 1.0 / self.m
        total = 0.0
        for j in range(self.m + 1):
            if pmf[j] == 0.0:
                continue
            cell_lo = j * width - width / 2.0
            cell_hi = j * width + width / 2.0
            overlap = max(0.0, min(hi, cell_hi) - max(lo, cell_lo))
            density = pmf[j] / width
            total += density**2 * overlap
        return total


def rejection_risk(
    model: LinearRejectionModel,
    u_samples: np.ndarray,
    u_th: float,
    estimator,
) -> RiskReport:
    """Empirical skip risk against the closed-form upper bound.

    The empirical risk averages the predicted rejection probability over
    samples inside the skip interval (-b/a, u_th]. The bound multiplies
    delta^(3/2)/sqrt(3a) by the L2 norm of the uncertainty density over the
    same interval, with delta = a*u_th + b. Like ``thresholds``, it
    rejects a model whose slope a is not positive.
    """
    u = np.asarray(u_samples, dtype=np.float64)
    if u.size == 0:
        raise ValueError("empty uncertainty sample set")
    lo = thresholds(model, 0.0).risk_averse
    in_risk_zone = (u > lo) & (u <= u_th)
    betas = predict_beta(model, u)
    empirical = float(np.mean(np.where(in_risk_zone, betas, 0.0)))
    delta = model.a * u_th + model.b
    if delta <= 0.0:
        bound = 0.0
    else:
        l2 = estimator.density_l2_integral(u, lo, u_th)
        bound = delta**1.5 / np.sqrt(3.0 * model.a) * np.sqrt(l2)
    return RiskReport(empirical_r=empirical, bound=float(bound))

