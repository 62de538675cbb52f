"""Probability-vector primitives: tempered softmax, sampling, sorting, TVD."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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


def apply_sum_rule(p: np.ndarray, total: float) -> np.ndarray:
    """The drift rule of ``ProbVec`` for a non-negative vector p summing to total.

    A drift |total - 1| above ``RENORM_TOL`` is rejected, one above
    ``SUM_TOL`` is repaired by dividing by the total (with a warning), and a
    smaller one is accepted as is. A NaN total means a NaN entry.
    """
    if np.isnan(total):
        raise DistributionError("probability vector has non-finite entries")
    drift = abs(total - 1.0)
    if drift > RENORM_TOL:
        raise DistributionError(f"probabilities sum to {total!r}, expected 1")
    if drift > SUM_TOL:
        warnings.warn(
            f"renormalizing probability vector with drift {drift:.3e}",
            stacklevel=3,
        )
        return p / total
    return p


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
        p = apply_sum_rule(p, p.sum())
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
    prefix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Prefix sums of the sorted probabilities; prefix[k] is the mass of the
        # top-k ranks, used heavily by the compression policies.
        pref = np.concatenate([[0.0], np.cumsum(self.probs)])
        object.__setattr__(self, "prefix", pref)

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
    return ProbVec(tempered_probs(z, temperature))


def tempered_probs(z: np.ndarray, temperature: float) -> np.ndarray:
    """``softmax(z, temperature).probs``, without building a ``ProbVec``.

    For logits that passed ``check_logits`` and a temperature >=
    ``MIN_TEMPERATURE``. The result has been through ``apply_sum_rule``, so
    the ``ProbVec`` that softmax builds from it holds the same floats.
    """
    w = z / temperature
    w = w - w.max()
    e = np.exp(w)
    p = e / e.sum()
    return apply_sum_rule(p, p.sum())


def sample(p: ProbVec, rng: np.random.Generator) -> TokenId:
    """Inverse-CDF draw in ascending index order; deterministic given the rng state."""
    cdf = np.cumsum(p.probs)
    u = rng.random()
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, len(p) - 1)


def draws_token(p: np.ndarray, d: TokenId, r: float) -> bool:
    """Whether ``sample`` returns d when its rng yields r, reading only p[:d+1].

    ``sample`` returns the number of CDF entries <= r, clamped to |V| - 1, so
    it returns d exactly when cdf[d-1] <= r < cdf[d] (no lower limit for
    d = 0, no upper one for d = |V| - 1). A cumulative sum is sequential,
    so the prefix's entries equal the full CDF's bit for bit.
    """
    cdf = np.cumsum(p[: d + 1])
    if d > 0 and cdf[d - 1] > r:
        return False
    return d == p.size - 1 or r < cdf[d]


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
