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
        # One copy, so the caller's array is neither aliased nor frozen.
        self._own(np.array(self.probs, dtype=np.float64))

    @classmethod
    def adopt(cls, p: np.ndarray) -> "ProbVec":
        """A ProbVec that holds ``p`` itself, checked and repaired in place, then frozen.

        For a float64 array the library has just built and that nothing
        else holds: it saves the copy the constructor makes.
        """
        v = object.__new__(cls)
        v._own(p)
        return v

    def _own(self, p: np.ndarray) -> None:
        check_probs(p)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class SortedProbVec:
    """Distribution sorted by non-increasing probability.

    ``probs`` holds the sorted values and ``source`` the vector they came
    from, indexed by token id. Ranks order ties by ascending token id, so
    the ordering is total and reproducible. ``rank_of`` and ``top_ids``
    read ranks off ``source`` without sorting the ids.
    """

    probs: np.ndarray
    source: np.ndarray

    @cached_property
    def prefix(self) -> np.ndarray:
        """Prefix sums of the sorted probabilities: prefix[k] is the mass of the top-k ranks."""
        out = np.empty(self.probs.size + 1)
        out[0] = 0.0
        np.cumsum(self.probs, out=out[1:])
        return out

    def __len__(self) -> int:
        return self.probs.size

    def rank_of(self, token: TokenId) -> int:
        """0-based rank of a token id: the entries above it, then its equals with lower ids."""
        if not 0 <= token < len(self):
            raise ValueError(f"token {token} not in vocabulary of size {len(self)}")
        p = self.source[token]
        return int(np.count_nonzero(self.source > p) + np.count_nonzero(self.source[:token] == p))

    def top_ids(self, k: int) -> np.ndarray:
        """The token ids of the top-k ranks, from a sort of the candidates only.

        Every id at rank < k has a value >= the k-th largest; those ids, in
        ascending order, stable-sorted by descending value, start with the
        ids of ranks 0..k-1. Their values are the top ranks' values, so
        ``probs`` shows whether they tie; without a tie the faster default
        sort gives the same order.
        """
        if not 1 <= k <= len(self):
            raise ValueError(f"k={k} out of range [1, {len(self)}]")
        candidates = np.flatnonzero(self.source >= self.probs[k - 1])
        n = candidates.size
        tied = np.any(self.probs[1:n] == self.probs[: n - 1])
        order = np.argsort(-self.source[candidates], kind="stable" if tied else None)
        return candidates[order[:k]]


def check_probs(p: np.ndarray) -> np.ndarray:
    """Check a float64 array as a distribution and repair mild drift, in place.

    Raises DistributionError unless ``p`` is 1-D, non-empty and finite, with
    no entry below -NEG_TOL and a sum within RENORM_TOL of 1. Entries in
    [-NEG_TOL, 0) become 0, and a sum off by more than SUM_TOL is divided
    out (with a warning). Returns ``p``. ``ProbVec`` runs this on its copy,
    ``ProbVec.adopt`` on the array it adopts.
    """
    if p.ndim != 1 or p.size == 0:
        raise DistributionError("probability vector must be 1-D and non-empty")
    # A NaN or infinite entry makes the min or the sum non-finite; a
    # finite vector whose sum overflows is left to the sum check.
    lo = p.min()
    total = p.sum()
    if not (np.isfinite(lo) and np.isfinite(total)) and not np.all(np.isfinite(p)):
        raise DistributionError("probability vector has non-finite entries")
    if lo < -NEG_TOL:
        raise DistributionError(f"negative probability entry: min={lo:.3e}")
    if lo < 0.0:
        np.maximum(p, 0.0, out=p)
        total = p.sum()
    drift = abs(total - 1.0)
    if drift > RENORM_TOL:
        raise DistributionError(f"probabilities sum to {total!r}, expected 1")
    if drift > SUM_TOL:
        warnings.warn(
            f"renormalizing probability vector with drift {drift:.3e}",
            stacklevel=3,
        )
        p /= total
    return p


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
    w -= w.max()
    np.exp(w, out=w)
    w /= w.sum()
    return ProbVec.adopt(w)


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
    diff = np.subtract(p.probs, q.probs)
    np.abs(diff, out=diff)
    return 0.5 * float(diff.sum())


def sort_desc(p: ProbVec) -> SortedProbVec:
    """Descending sort of the values; the ids' order is left to ``SortedProbVec``.

    Equal values are interchangeable, so the sorted values are the same floats
    in the same order whichever way ties are broken.
    """
    return SortedProbVec(probs=np.sort(p.probs)[::-1], source=p.probs)
