"""Top-k vocabulary compression with provable resampling-distortion bounds.

The device transmits only the k most probable tokens (plus the draft token's
entry); the server rebuilds a full distribution by spreading the residual
mass uniformly over the untransmitted tokens. Two upper bounds control the
total variation distance between the exact and distorted resampling
distributions:

* an exact-denominator bound, computable with knowledge of both the device
  and server distributions, used offline through its time average; and
* a device-only bound whose denominator replaces the cross-distribution TVD
  with a softplus-smoothed lower bound driven by the draft probability and
  the predicted rejection probability, used online per round.

Both bounds share the same numerator: the l1 gap between the true and
reconstructed tails beyond rank k, which a closed form evaluates from prefix
sums for a whole array of k without materializing any reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import ProbVec, SortedProbVec, TokenId
from .uncertainty import LinearRejectionModel, predict_beta

# Softplus argument above which exp() underflow makes the asymptote exact.
_SOFTPLUS_CUTOFF = 30.0


@dataclass(frozen=True, eq=False)
class CompressedVocab:
    """Uplink payload: top-k entries plus the draft token's entry.

    Entries are rank-ordered (non-increasing probability). The draft entry is
    always carried; it only counts as an extra transmitted record when the
    draft sits outside the top-k.
    """

    k: int
    entry_ids: np.ndarray
    entry_probs: np.ndarray
    draft_id: TokenId
    draft_prob: float
    vocab_size: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.vocab_size:
            raise ValueError(f"k={self.k} out of range [1, {self.vocab_size}]")
        if np.any(np.diff(self.entry_probs) > 1e-12):
            raise ValueError("entry probabilities must be non-increasing")
        if not self.draft_prob > 0.0:
            raise ValueError("draft entry must have positive probability")

    @property
    def draft_in_topk(self) -> bool:
        return bool(np.any(self.entry_ids == self.draft_id))

    @property
    def n_transmitted(self) -> int:
        return self.k + (0 if self.draft_in_topk else 1)


def compress(x_sorted: SortedProbVec, k: int, d: TokenId) -> CompressedVocab:
    """Truncate to the top-k ranks, attaching the draft token's exact entry."""
    if not 0 <= d < len(x_sorted):
        raise ValueError(f"token {d} not in vocabulary of size {len(x_sorted)}")
    c = CompressedVocab(
        k=k,
        entry_ids=x_sorted.top_ids(k),
        entry_probs=x_sorted.probs[:k].copy(),
        draft_id=d,
        draft_prob=float(x_sorted.source[d]),
        vocab_size=len(x_sorted),
    )
    if c.entry_probs.sum() + (0.0 if c.draft_in_topk else c.draft_prob) > 1.0 + 1e-9:
        raise ValueError("transmitted mass exceeds 1")
    return c


def reconstruct(c: CompressedVocab) -> ProbVec:
    """Rebuild a full distribution from the payload.

    Transmitted entries keep their value; the residual mass is spread
    uniformly over untransmitted tokens. Quantized payloads can leave a
    negative residual (clamp the fill to zero, renormalize) or, with nothing
    untransmitted, a total off 1 (renormalize the transmitted values).
    """
    x_hat = np.zeros(c.vocab_size)
    x_hat[c.entry_ids] = c.entry_probs
    x_hat[c.draft_id] = c.draft_prob
    transmitted = np.zeros(c.vocab_size, dtype=bool)
    transmitted[c.entry_ids] = True
    transmitted[c.draft_id] = True
    slots = c.vocab_size - int(np.count_nonzero(transmitted))
    residual = 1.0 - x_hat[transmitted].sum()
    if slots > 0 and residual > 0.0:
        # Fill every slot, then put the transmitted values back.
        x_hat.fill(residual / slots)
        x_hat[c.entry_ids] = c.entry_probs
        x_hat[c.draft_id] = c.draft_prob
    else:
        x_hat /= x_hat.sum()
    return ProbVec.adopt(x_hat)


def softplus(z: float, eta: float) -> float:
    """Numerically stable ln(1 + exp(eta*z))/eta, a ReLU smoothing of sharpness
    eta with approximation error <= ln2/eta."""
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    w = eta * z
    if w > _SOFTPLUS_CUTOFF:
        return z + math.exp(-w) / eta
    if w < -_SOFTPLUS_CUTOFF:
        return math.exp(w) / eta
    return math.log1p(math.exp(w)) / eta


def online_denominator(x_d: float, beta_hat: float, eta: float) -> float:
    """Device-only lower bound on the smoothed cross-distribution TVD."""
    if not 0.0 < x_d <= 1.0:
        raise ValueError(f"draft probability must be in (0, 1], got {x_d}")
    if not 0.0 <= beta_hat <= 1.0:
        raise ValueError(f"predicted rejection probability must be in [0, 1], got {beta_hat}")
    return (1.0 - x_d) * softplus(-1.0, eta) + x_d * softplus(-beta_hat, eta)


def tail_gap_after_fill(
    x_sorted: SortedProbVec, k: np.ndarray, draft_rank: int
) -> np.ndarray:
    """Both bounds' closed-form numerator sum(|x_i - x_hat_i|, ranks > k) for each k.

    Equivalent to compressing at k (draft entry included), reconstructing,
    and summing the tail l1 gap, but computed from prefix sums: with the
    untransmitted range filled by its own mean, the absolute deviations are
    twice the positive part, 2*(sum of above-mean entries - count*mean).
    ``k`` is an integer array; the result has its shape.
    """
    s = x_sorted.probs
    prefix = x_sorted.prefix
    vocab = s.size
    s_d = s[draft_rank]
    # A draft beyond the top-k is transmitted too, so it leaves the fill range.
    outside = draft_rank >= k
    m = vocab - k - outside
    mass = 1.0 - prefix[k] - np.where(outside, s_d, 0.0)
    range_sum = prefix[vocab] - prefix[k] - np.where(outside, s_d, 0.0)
    fill = np.maximum(mass, 0.0) / np.maximum(m, 1)
    # Count and sum of tail entries >= fill: s is non-increasing, so they are
    # the ranks from k up to the first entry below fill. They are counted on
    # the ascending view of s, which takes no full-vocabulary temporary.
    c = np.maximum(vocab - np.searchsorted(s[::-1], fill, side="left") - k, 0)
    above = prefix[k + c] - prefix[k]
    draft_above = outside & (s_d >= fill)
    c = c - draft_above
    above = np.where(draft_above, above - s_d, above)
    # The last term vanishes when the vector sums exactly to 1; keeping it
    # makes the identity hold for any construction drift within tolerance.
    gap = np.maximum(2.0 * (above - c * fill) + (m * fill - range_sum), 0.0)
    return np.where(m > 0, gap, 0.0)


def utv_bound(x_sorted: SortedProbVec, draft_rank: int, k: np.ndarray, tvd_xy: float) -> np.ndarray:
    """Exact-denominator upper bound on tvd of the resampling distributions
    for each k, given tvd_xy = tvd(x, y) of the device and server laws."""
    if not tvd_xy > 0.0:
        raise ValueError("bound undefined when device and server distributions match")
    return tail_gap_after_fill(x_sorted, k, draft_rank) / tvd_xy


def utv_bound_online(
    x_sorted: SortedProbVec, draft_rank: int, k: np.ndarray, beta_hat: float, eta: float
) -> np.ndarray:
    """Device-computable upper bound on the resampling distortion for each k: the
    exact bound's numerator over a denominator that uses only the draft
    probability and the predicted rejection probability."""
    denom = online_denominator(float(x_sorted.probs[draft_rank]), beta_hat, eta)
    return tail_gap_after_fill(x_sorted, k, draft_rank) / denom


@dataclass(frozen=True)
class KSelection:
    """Chosen compressed vocabulary size and the bound value that justified it."""

    k_star: int
    bound_value_at_k: float
    saturated: bool = False


def select_k_offline(
    k_grid: np.ndarray, expected_bounds: np.ndarray, theta: float, vocab_size: int
) -> KSelection:
    """Smallest k whose time-averaged exact bound stays within theta.

    The calibration table lives on a sparse grid; the crossing is refined to
    an exact integer k by linear interpolation between the bracketing grid
    points.
    """
    k_grid = np.asarray(k_grid, dtype=int)
    vals = np.asarray(expected_bounds, dtype=float)
    if k_grid.size != vals.size or k_grid.size == 0:
        raise ValueError("table grid and values must be non-empty and equal length")
    ok = np.nonzero(vals <= theta)[0]
    if ok.size == 0:
        return KSelection(vocab_size, float(vals[-1]), saturated=True)
    j = int(ok[0])
    if j == 0:
        return KSelection(int(k_grid[0]), float(vals[0]))
    k_lo, k_hi = int(k_grid[j - 1]), int(k_grid[j])
    v_lo, v_hi = float(vals[j - 1]), float(vals[j])
    ks = np.arange(k_lo + 1, k_hi + 1)
    v = v_lo + (ks - k_lo) / (k_hi - k_lo) * (v_hi - v_lo)
    i = int(np.argmax(v <= theta))
    if not v[i] <= theta:  # rounding can leave v at k_hi just above v_hi
        return KSelection(k_hi, v_hi)
    return KSelection(int(ks[i]), float(v[i]))


def select_k_online(
    x_sorted: SortedProbVec,
    draft_rank: int,
    u: float,
    model: LinearRejectionModel,
    theta: float,
    eta: float,
) -> KSelection:
    """Smallest k whose device-only bound stays within theta for this round.

    Probes k = 1, 2, 4, ..., |V| and then scans the octave that brackets the
    first probe within theta, each as one vector call. This finds the
    smallest k because the tail numerator never grows with k. Raising k past
    a non-draft rank drops the tail's top entry a; with T the tail and mu its
    mean, the mean moves by (a - mu)/(|T| - 1), so the l1 deviation of the
    remaining entries rises by at most what removing a's own deviation took
    away. Raising k past the draft's rank leaves the untransmitted set as it
    was. At k = |V| the numerator is zero, so any theta > 0 is met.
    """
    vocab = len(x_sorted)
    beta_hat = predict_beta(model, u)
    if not theta > 0.0:
        return KSelection(vocab, 0.0, saturated=True)

    probes = np.append(2 ** np.arange((vocab - 1).bit_length()), vocab)
    within = utv_bound_online(x_sorted, draft_rank, probes, beta_hat, eta) <= theta
    hit = int(np.argmax(within))  # the last probe, k = |V|, is always within
    lo = 1 if hit == 0 else int(probes[hit - 1]) + 1
    ks = np.arange(lo, int(probes[hit]) + 1)
    bounds = utv_bound_online(x_sorted, draft_rank, ks, beta_hat, eta)
    j = int(np.argmax(bounds <= theta))
    return KSelection(int(ks[j]), float(bounds[j]))


def default_k_grid(vocab_size: int) -> np.ndarray:
    """Logarithmic k grid of at most 64 points over [1, vocab_size] for the calibration table.

    The rounded points never decrease, so the distinct ones are those that
    differ from their predecessor; ``np.unique`` would sort them again and
    import ``numpy.ma``.
    """
    grid = np.round(np.logspace(0.0, math.log10(vocab_size), 64)).astype(int)
    grid[-1] = vocab_size
    return grid[np.insert(grid[1:] != grid[:-1], 0, True)]

