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

from .dist import ProbVec, TokenId, check_probs, sample


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


def rejection_probs(x: ProbVec, y: ProbVec, out: np.ndarray | None = None) -> np.ndarray:
    """Vector of per-token rejection probabilities; tokens with x_v = 0 get 0.

    ``out``, when given, is a float64 array of x's length that receives them.
    """
    xs = x.probs
    zero = xs == 0.0  # a ProbVec has no negative entry
    beta = np.empty_like(xs) if out is None else out
    np.copyto(beta, xs)
    beta[zero] = 1.0  # x_v = 0 divides by 1, not by 0
    np.divide(y.probs, beta, out=beta)
    np.subtract(1.0, beta, out=beta)
    np.maximum(beta, 0.0, out=beta)
    beta[zero] = 0.0
    return beta


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

    Equals y exactly when q is the exact resampling distribution.
    """
    return ProbVec.adopt(_hybrid_output_probs(x, y, q))


# Elements of q scaled per step when adding the rejected mass's share, so
# that step's temporary stays small next to the vocabulary.
_SLICE = 4096


def _hybrid_output_probs(x: ProbVec, y: ProbVec, q: ProbVec) -> np.ndarray:
    """``hybrid_output_dist``'s probabilities, unchecked, in a new array.

    x * (1 - beta) + reject_mass * q, built in one full-length array:
    beta is made twice, once for the rejected mass x * beta and once for
    the accepted part.
    """
    out = rejection_probs(x, y)
    np.multiply(x.probs, out, out=out)
    reject_mass = float(out.sum())
    rejection_probs(x, y, out=out)
    np.subtract(1.0, out, out=out)
    np.multiply(x.probs, out, out=out)
    for i in range(0, out.size, _SLICE):
        part = out[i : i + _SLICE]
        part += np.multiply(reject_mass, q.probs[i : i + _SLICE])
    return out


def round_bias(x: ProbVec, y: ProbVec, q: ProbVec) -> float:
    """l1 deviation of the hybrid output law from y under resampling dist q.

    The law is checked and repaired as ``ProbVec`` would, but in the array
    that then holds the deviation, so no copy of it is made.
    """
    diff = check_probs(_hybrid_output_probs(x, y, q))
    np.subtract(diff, y.probs, out=diff)
    np.abs(diff, out=diff)
    return float(diff.sum())
