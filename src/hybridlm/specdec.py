"""Speculative draft verification: acceptance cases, resampling, and bias.

The device proposes a draft token from its distribution x; the server holds
the reference distribution y and either accepts the draft or resamples a
replacement so that the combined output law equals y exactly. Under top-k
compression the server resamples from a distorted distribution q instead,
and the per-round bias measures how far the combined law drifts from y.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dist import ProbVec, TokenId, sample, tvd


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification round.

    ``token`` is the draft when accepted, the resampled replacement otherwise.
    """

    accepted: bool
    token: TokenId


def rejection_prob(x_d: float, y_d: float) -> float:
    """Probability the server rejects a draft with device mass x_d and server mass y_d."""
    if not x_d > 0.0:
        raise ValueError("draft token must have positive device-side probability")
    if y_d < 0.0:
        raise ValueError("server-side probability must be non-negative")
    return max(0.0, 1.0 - y_d / x_d)


def accepts(x_d: float, y_d: float, rng: np.random.Generator) -> bool:
    """Whether the server accepts a draft: always when y_d >= x_d, else with probability y_d/x_d."""
    beta = rejection_prob(x_d, y_d)
    return beta == 0.0 or rng.random() < 1.0 - beta


def verify_draft(
    d: TokenId,
    x_d: float,
    y_d: float,
    resample_from: ProbVec | Callable[[], ProbVec],
    rng: np.random.Generator,
) -> Verdict:
    """Scalar-level acceptance test; lets the caller supply the wire-observed x_d.

    ``resample_from`` is the replacement distribution, or a function that
    builds it, called only when the draft is rejected.
    """
    if accepts(x_d, y_d, rng):
        return Verdict(accepted=True, token=d)
    q = resample_from() if callable(resample_from) else resample_from
    return Verdict(accepted=False, token=sample(q, rng))


def verify(
    d: TokenId,
    x: ProbVec,
    y: ProbVec,
    resample_from: ProbVec | Callable[[], ProbVec],
    rng: np.random.Generator,
) -> Verdict:
    """Accept the draft, or reject and resample from the supplied distribution.

    Deterministic acceptance when y_d >= x_d; otherwise accept with probability
    y_d/x_d. The caller chooses ``resample_from`` (or a function that builds
    it): the exact resampling distribution gives an unbiased output law, a
    distorted one does not.
    """
    return verify_draft(d, float(x.probs[d]), float(y.probs[d]), resample_from, rng)


def resample_dist(x: ProbVec, y: ProbVec) -> ProbVec:
    """Replacement distribution on rejection: positive part of y - x, normalized."""
    q, degenerate = distorted_resample_dist(x, y)
    if degenerate:
        raise ValueError(
            "resampling distribution undefined: y never exceeds x, no rejection possible"
        )
    return q


def distorted_resample_dist(x_hat: ProbVec, y: ProbVec) -> tuple[ProbVec, bool]:
    """Resampling distribution against a reconstructed device distribution.

    Compression can zero the numerator even when a rejection occurred against
    the exact x; in that degenerate case fall back to y itself (flag set),
    which keeps the output a valid distribution with bounded bias.
    """
    num = np.subtract(y.probs, x_hat.probs)
    np.maximum(num, 0.0, out=num)
    denom = num.sum()
    if denom <= 0.0:
        return y, True
    num /= denom
    return ProbVec.adopt(num), False


def hybrid_output_dist(x: ProbVec, y: ProbVec, q: ProbVec) -> ProbVec:
    """Per-token law of the full accept/resample process with resampling dist q.

    A draft v is kept with mass min(x_v, y_v), and a rejection, of total
    mass tvd(x, y), draws from q: the law is min(x, y) + tvd(x, y) * q.
    Equals y exactly when q is the exact resampling distribution.
    """
    return ProbVec.adopt(np.minimum(x.probs, y.probs) + tvd(x, y) * q.probs)


def round_bias(tvd_xy: float, tvd_pq: float | None) -> float:
    """l1 deviation of the hybrid output law from y: 2 * tvd(x, y) * tvd(p, q).

    The law minus y is tvd(x, y) * (q - p), p the exact resampling
    distribution. ``tvd_pq`` is None when x = y: no draft is rejected, and
    the law is y itself.
    """
    return 0.0 if tvd_pq is None else 2.0 * tvd_xy * tvd_pq
