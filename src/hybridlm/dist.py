"""Probability-vector primitives: tempered softmax, sampling, sorting, TVD."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TokenId = int

# Construction tolerances for probability vectors.  Long simulation loops
# accumulate rounding, so mild drift is repaired (with a warning) instead of
# rejected outright.
SUM_TOL = 1e-9
RENORM_TOL = 1e-6
NEG_TOL = 1e-12

MIN_TEMPERATURE = 1e-6


class DistributionError(ValueError):
    """Raised when a vector cannot be interpreted as a probability distribution."""


@dataclass(frozen=True, eq=False)
class ProbVec:
    """Normalized distribution over the vocabulary. Immutable after construction."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise DistributionError("probability vector must be 1-D and non-empty")
        if not np.all(np.isfinite(p)):
            raise DistributionError("probability vector has non-finite entries")
        if np.any(p < -NEG_TOL):
            raise DistributionError(f"negative probability entry: min={p.min():.3e}")
        p = np.maximum(p, 0.0)
        total = p.sum()
        drift = abs(total - 1.0)
        if drift > RENORM_TOL:
            raise DistributionError(f"probabilities sum to {total!r}, expected 1")
        if drift > SUM_TOL:
            warnings.warn(
                f"renormalizing probability vector with drift {drift:.3e}",
                stacklevel=2,
            )
            p = p / total
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, n: int) -> "ProbVec":
        return cls(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class SortedProbVec:
    """Distribution sorted by non-increasing probability.

    ``perm[rank]`` is the token id occupying that rank; ties are broken by
    ascending token id so the ordering is total and reproducible.
    """

    probs: np.ndarray
    perm: np.ndarray

    @cached_property
    def prefix(self) -> np.ndarray:
        """Prefix sums of the sorted probabilities: prefix[k] is the mass of the top-k ranks."""
        return np.concatenate([[0.0], np.cumsum(self.probs)])

    def __len__(self) -> int:
        return self.probs.size

    def rank_of(self, token: TokenId) -> int:
        """0-based rank of a token id."""
        hits = np.nonzero(self.perm == token)[0]
        if hits.size == 0:
            raise ValueError(f"token {token} not in vocabulary of size {len(self)}")
        return int(hits[0])


def check_logits(logits: np.ndarray) -> np.ndarray:
    """Logits as a float64 array; raises ValueError unless 1-D, non-empty and finite."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logit vector must be 1-D and non-empty")
    if not np.all(np.isfinite(z)):
        raise ValueError("logit vector has non-finite entries")
    return z


def softmax(logits: np.ndarray, temperature: float = 1.0) -> ProbVec:
    """Tempered softmax with max-subtraction for overflow safety.

    Temperatures below ``MIN_TEMPERATURE`` are rejected rather than treated as
    argmax; callers that draw temperatures from an interval touching zero must
    remap the degenerate draw first.
    """
    z = check_logits(logits)
    if not (temperature >= MIN_TEMPERATURE):
        raise ValueError(f"temperature must be >= {MIN_TEMPERATURE}, got {temperature}")
    w = z / temperature
    w = w - w.max()
    e = np.exp(w)
    return ProbVec(e / e.sum())


def sample(p: ProbVec, rng: np.random.Generator) -> TokenId:
    """Inverse-CDF draw in ascending index order; deterministic given the rng state."""
    return sample_at(p, rng.random())


def sample_at(p: ProbVec, r: float) -> TokenId:
    """The token ``sample`` returns when its rng yields r.

    That is the number of CDF entries <= r, clamped to |V| - 1: token d
    exactly when cdf[d-1] <= r < cdf[d] (no lower limit for d = 0, no
    upper one for d = |V| - 1).
    """
    cdf = np.cumsum(p.probs)
    idx = int(np.searchsorted(cdf, r, side="right"))
    return min(idx, len(p) - 1)


def tvd(p: ProbVec, q: ProbVec) -> float:
    """Total variation distance, half the l1 distance."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def sort_desc(p: ProbVec) -> SortedProbVec:
    """Descending sort; equal probabilities keep ascending token id order.

    The default argsort is faster than the stable one but orders ties
    arbitrarily. Without ties the descending order is unique, so both give
    the same permutation; a vector with two equal entries is sorted again
    with the stable kind.
    """
    neg = -p.probs
    order = np.argsort(neg)
    probs = p.probs[order]
    if np.any(probs[1:] == probs[:-1]):
        order = np.argsort(neg, kind="stable")
        probs = p.probs[order]
    return SortedProbVec(probs=probs, perm=order)
