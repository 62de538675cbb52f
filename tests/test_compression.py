"""Tests for top-k compression, reconstruction, and the distortion bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from hybridlm.compression import (
    CompressedVocab,
    compress,
    default_k_grid,
    online_denominator,
    reconstruct,
    select_k_offline,
    select_k_online,
    softplus,
    tail_gap_after_fill,
    utv_bound,
    utv_bound_online,
)
from hybridlm.channel import quantize_vocab
from hybridlm.dist import ProbVec, softmax, sort_desc, tvd
from hybridlm.oracle import (
    CalibrationSet,
    OracleSpec,
    SyntheticOracle,
    load_calibration,
    save_calibration,
)
from hybridlm.specdec import distorted_resample_dist, resample_dist
from hybridlm.uncertainty import LinearRejectionModel
from hybridlm.verification import smoothed_tvd

MODEL = LinearRejectionModel(a=0.815, b=-0.066, mse=0.0, r2=1.0)


def reconstruct_reference(c):
    """The earlier ``reconstruct``, and whether it took the renormalise branch."""
    x_hat = np.zeros(c.vocab_size)
    x_hat[c.entry_ids] = c.entry_probs
    x_hat[c.draft_id] = c.draft_prob
    transmitted = np.zeros(c.vocab_size, dtype=bool)
    transmitted[c.entry_ids] = True
    transmitted[c.draft_id] = True
    slots = int(c.vocab_size - transmitted.sum())
    residual = 1.0 - x_hat[transmitted].sum()
    renormalised = not (slots > 0 and residual > 0.0)
    if not renormalised:
        x_hat[~transmitted] = residual / slots
    else:
        x_hat = x_hat / x_hat.sum()
    return ProbVec(x_hat), renormalised


def random_pair(rng, n, concentration=0.3):
    """Correlated long-tailed (x, y) with guaranteed positive tvd."""
    base = -1.2 * np.log(np.arange(1, n + 1))
    rng.shuffle(base)
    x = ProbVec(np.exp(base - base.max()) / np.exp(base - base.max()).sum())
    noise = rng.normal(0, 1.0, n)
    zy = base + noise
    y = ProbVec(np.exp(zy - zy.max()) / np.exp(zy - zy.max()).sum())
    if tvd(x, y) <= 1e-12:
        return random_pair(rng, n, concentration)
    return x, y


class TestCompress:
    def test_full_vocabulary(self):
        p = ProbVec(np.array([0.1, 0.6, 0.3]))
        c = compress(sort_desc(p), 3, d=0)
        np.testing.assert_array_equal(c.entry_ids, [1, 2, 0])
        np.testing.assert_allclose(c.entry_probs, [0.6, 0.3, 0.1])
        assert c.draft_in_topk and c.n_transmitted == 3

    def test_draft_outside_topk(self):
        p = ProbVec(np.array([0.6, 0.3, 0.1]))
        c = compress(sort_desc(p), 1, d=2)
        np.testing.assert_array_equal(c.entry_ids, [0])
        np.testing.assert_allclose(c.entry_probs, [0.6])
        assert c.draft_id == 2 and c.draft_prob == pytest.approx(0.1)
        assert not c.draft_in_topk and c.n_transmitted == 2

    def test_draft_inside_topk_no_duplicate(self):
        p = ProbVec(np.array([0.6, 0.3, 0.1]))
        c = compress(sort_desc(p), 2, d=1)
        assert c.n_transmitted == 2
        assert c.draft_in_topk

    def test_k_out_of_range(self):
        s = sort_desc(ProbVec(np.full(4, 1.0 / 4)))
        for bad in (0, 5):
            with pytest.raises(ValueError):
                compress(s, bad, d=0)

    def test_zero_prob_draft_rejected(self):
        p = ProbVec(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            compress(sort_desc(p), 1, d=1)


class TestReconstruct:
    def test_uniform_residual_spread(self):
        p = ProbVec(np.array([0.7, 0.2, 0.06, 0.04]))
        c = compress(sort_desc(p), 2, d=0)
        np.testing.assert_allclose(reconstruct(c).probs, [0.7, 0.2, 0.05, 0.05])

    def test_full_k_identity(self):
        rng = np.random.default_rng(0)
        p = ProbVec(rng.dirichlet(np.ones(12)))
        c = compress(sort_desc(p), 12, d=3)
        np.testing.assert_allclose(reconstruct(c).probs, p.probs, atol=1e-15)

    def test_one_hot_zero_residual(self):
        p = ProbVec(np.eye(5)[2])
        with pytest.raises(ValueError):
            compress(sort_desc(p), 1, d=0)  # zero-prob draft
        c = compress(sort_desc(p), 1, d=2)
        np.testing.assert_allclose(reconstruct(c).probs, p.probs, atol=1e-15)

    def test_draft_entry_preserved(self):
        p = ProbVec(np.array([0.5, 0.25, 0.15, 0.1]))
        c = compress(sort_desc(p), 1, d=3)
        r = reconstruct(c)
        assert r.probs[3] == pytest.approx(0.1)
        assert r.probs[0] == pytest.approx(0.5)
        np.testing.assert_allclose(r.probs[1:3], (1 - 0.6) / 2)

    def test_negative_residual_renormalizes(self):
        # Inflated (quantization-like) entry values push the sum past 1.
        c = CompressedVocab(
            k=2,
            entry_ids=np.array([0, 1]),
            entry_probs=np.array([0.8, 0.4]),
            draft_id=0,
            draft_prob=0.8,
            vocab_size=4,
        )
        r = reconstruct(c)
        assert abs(r.probs.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(r.probs[2:], 0.0)

    def test_bit_equal_to_reference(self):
        # V=32000 oracle rounds, raw and on the 8-bit wire, with the draft
        # inside and outside the top k, a vector with exact zeros, k = |V|
        # (no slot left) and a quantized total above 1 (renormalised).
        payloads = []
        o = SyntheticOracle(OracleSpec())
        seq = []
        for t in range(3):
            x = softmax(o.next_round(seq, t).slm_logits)
            zeroed = x.probs.copy()
            zeroed[::5] = 0.0
            for p in (x, ProbVec(zeroed / zeroed.sum())):
                s = sort_desc(p)
                for k, rank in ((1, 0), (12, 3), (12, 40), (len(s), 7)):
                    c = compress(s, k, int(s.top_ids(rank + 1)[rank]))
                    payloads += [c, quantize_vocab(c, 8)]
            seq.append(t)
        payloads.append(
            CompressedVocab(
                k=2, entry_ids=np.array([0, 1]), entry_probs=np.array([0.8, 0.4]),
                draft_id=0, draft_prob=0.8, vocab_size=4,
            )
        )
        branches = set()
        for c in payloads:
            ref, renormalised = reconstruct_reference(c)
            branches.add(renormalised)
            assert np.array_equal(reconstruct(c).probs, ref.probs)
        assert branches == {False, True}

    def test_always_valid_probvec(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            p = ProbVec(rng.dirichlet(np.full(n, 0.3)) + 1e-12)
            s = sort_desc(p)
            k = int(rng.integers(1, n + 1))
            d = int(np.argmax(p.probs > 0))
            r = reconstruct(compress(s, k, d))
            assert abs(r.probs.sum() - 1.0) < 1e-9
            assert np.all(r.probs >= 0)


class TestUtvBound:
    def test_zero_at_full_k(self):
        rng = np.random.default_rng(3)
        x, y = random_pair(rng, 16)
        s = sort_desc(x)
        assert utv_bound(s, s.rank_of(0), 16, tvd(x, y)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_worked_example(self):
        x = ProbVec(np.array([0.7, 0.2, 0.06, 0.04]))
        y = ProbVec(np.array([0.1, 0.3, 0.3, 0.3]))
        s = sort_desc(x)
        b = utv_bound(s, s.rank_of(0), 2, tvd(x, y))
        assert b == pytest.approx(0.02 / 0.6)

    def test_undefined_when_distributions_match(self):
        x = ProbVec(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            utv_bound(sort_desc(x), 0, 1, tvd(x, x))

    @pytest.mark.parametrize("vocab", [8, 64])
    def test_dominates_exact_tvd(self, vocab):
        rng = np.random.default_rng(100 + vocab)
        checked = 0
        while checked < 300:
            x, y = random_pair(rng, vocab)
            k = int(rng.integers(1, vocab + 1))
            d = int(np.argmax(x.probs))
            s = sort_desc(x)
            x_hat = reconstruct(compress(s, k, d))
            q, fallback = distorted_resample_dist(x_hat, y)
            if fallback:
                continue
            p = resample_dist(x, y)
            assert tvd(p, q) <= utv_bound(s, s.rank_of(d), k, tvd(x, y)) + 1e-12
            checked += 1


class TestSoftplus:
    ETA = 10.0

    def test_at_zero(self):
        assert softplus(0.0, self.ETA) == pytest.approx(math.log(2) / 10)

    def test_negative_one(self):
        assert softplus(-1.0, self.ETA) == pytest.approx(
            math.log1p(math.exp(-10)) / 10
        )
        assert softplus(-1.0, self.ETA) == pytest.approx(4.54e-6, rel=1e-2)

    def test_asymptotic_linear(self):
        assert abs(softplus(5.0, self.ETA) - 5.0) < 1e-12

    def test_extreme_arguments_finite(self):
        assert softplus(-1000.0, self.ETA) == 0.0
        assert softplus(1000.0, self.ETA) == pytest.approx(1000.0)

    def test_eta_validation(self):
        s = sort_desc(ProbVec(np.array([0.5, 0.3, 0.2])))
        for eta in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="eta must be positive"):
                softplus(0.0, eta)
            with pytest.raises(ValueError, match="eta must be positive"):
                online_denominator(0.5, 0.5, eta)
            with pytest.raises(ValueError, match="eta must be positive"):
                select_k_online(s, 0, 0.5, MODEL, 0.1, eta)


class TestSmoothedTvd:
    @pytest.mark.parametrize("eta", [5.0, 10.0, 50.0])
    def test_error_within_ln2_over_eta(self, eta):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            x, y = random_pair(rng, n)
            err = smoothed_tvd(x, y, eta) - tvd(x, y)
            assert 0.0 < err <= math.log(2.0) / eta + 1e-12


class TestUtvBoundOnline:
    ETA = 10.0

    def test_zero_at_full_k(self):
        rng = np.random.default_rng(5)
        x, _ = random_pair(rng, 16)
        s = sort_desc(x)
        b = utv_bound_online(s, s.rank_of(0), 16, 0.5, self.ETA)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_strictly_increasing_in_beta(self):
        rng = np.random.default_rng(6)
        x, _ = random_pair(rng, 32)
        s = sort_desc(x)
        d = int(np.argmax(x.probs))
        lo = utv_bound_online(s, s.rank_of(d), 4, 0.2, self.ETA)
        hi = utv_bound_online(s, s.rank_of(d), 4, 0.8, self.ETA)
        assert hi > lo

    def test_dominates_smoothed_ratio(self):
        # The device-only denominator lower-bounds the smoothed TVD, so the
        # online bound strictly exceeds the smoothed-denominator ratio
        # whenever a non-draft token exists.
        rng = np.random.default_rng(7)
        eta = self.ETA
        for _ in range(300):
            n = int(rng.integers(3, 64))
            x, y = random_pair(rng, n)
            s = sort_desc(x)
            d = int(np.argmax(x.probs))
            k = int(rng.integers(1, n))
            beta_d = max(0.0, 1.0 - float(y.probs[d]) / float(x.probs[d]))
            # The production numerator on both sides (TestTailGapClosedForm
            # checks it against the explicit reconstruction).
            tail = float(tail_gap_after_fill(s, k, s.rank_of(d)))
            smoothed_ratio = tail / smoothed_tvd(x, y, eta)
            online = utv_bound_online(s, s.rank_of(d), k, beta_d, eta)
            if tail > 0:
                assert online > smoothed_ratio
            else:
                assert online == smoothed_ratio == 0.0

    def test_input_validation(self):
        # A zero-probability draft, then a predicted rejection probability above 1.
        s = sort_desc(ProbVec(np.array([0.5, 0.5, 0.0])))
        with pytest.raises(ValueError):
            utv_bound_online(s, 2, 2, 0.5, self.ETA)
        with pytest.raises(ValueError):
            utv_bound_online(s, 0, 2, 1.5, self.ETA)


class TestTailGapClosedForm:
    def test_matches_explicit_reconstruction(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(3, 80))
            x = ProbVec(rng.dirichlet(np.full(n, 0.4)) + 1e-12)
            s = sort_desc(x)
            ks = np.arange(1, n + 1)
            draft_rank = int(rng.integers(0, n))
            d = int(s.perm[draft_rank])
            explicit = []
            for k in ks:
                x_hat = reconstruct(compress(s, int(k), d))
                explicit.append(float(np.abs(s.probs[k:] - x_hat.probs[s.perm[k:]]).sum()))
            np.testing.assert_allclose(
                tail_gap_after_fill(s, ks, draft_rank), explicit, rtol=0, atol=1e-12
            )

    def test_zero_at_full_k(self):
        s = sort_desc(ProbVec(np.full(10, 1.0 / 10)))
        assert tail_gap_after_fill(s, np.array([10]), 0)[0] == 0.0

    def test_non_increasing_in_k(self):
        # The invariant select_k_online's probe-and-octave search relies on.
        rng = np.random.default_rng(10)
        for _ in range(300):
            n = int(rng.integers(3, 200))
            x = ProbVec(rng.dirichlet(np.full(n, rng.choice([0.05, 0.3, 1.0]))) + 1e-12)
            s = sort_desc(x)
            ks = np.arange(1, n + 1)
            # Draft inside the top-k for small ranks, outside for large ones.
            for draft_rank in (0, int(rng.integers(0, n)), n - 1):
                gaps = tail_gap_after_fill(s, ks, draft_rank)
                assert np.all(np.diff(gaps) <= 1e-12)


    @staticmethod
    def negated_search_gap(x_sorted, k, draft_rank):
        """The closed form as it counted tail entries >= fill before: on -s."""
        s, prefix, vocab = x_sorted.probs, x_sorted.prefix, x_sorted.probs.size
        s_d = s[draft_rank]
        outside = draft_rank >= k
        m = vocab - k - outside
        mass = 1.0 - prefix[k] - np.where(outside, s_d, 0.0)
        range_sum = prefix[vocab] - prefix[k] - np.where(outside, s_d, 0.0)
        fill = np.maximum(mass, 0.0) / np.maximum(m, 1)
        c = np.maximum(np.searchsorted(-s, -fill, side="right") - k, 0)
        above = prefix[k + c] - prefix[k]
        draft_above = outside & (s_d >= fill)
        c = c - draft_above
        above = np.where(draft_above, above - s_d, above)
        gap = np.maximum(2.0 * (above - c * fill) + (m * fill - range_sum), 0.0)
        return np.where(m > 0, gap, 0.0)

    @pytest.mark.parametrize(
        "probs",
        [
            [0.5, 0.125, 0.125, 0.125, 0.125],  # k = 1 fills at 0.125: every tail entry ties
            [0.25, 0.25, 0.125, 0.125, 0.125, 0.0625, 0.0625],  # ties at several k
            [0.1] * 10,  # inexact ties: which of them count as >= fill changes the rounding
            [0.5] + [0.05] * 10,
            [0.5, 0.5, 0.0, 0.0, 0.0],  # k >= 2 leaves no mass: fill == 0, ties at 0
            [0.75, 0.25, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ],
    )
    def test_bit_equal_to_negated_search_on_ties(self, probs):
        s = sort_desc(ProbVec(np.array(probs)))
        ks = np.arange(1, len(probs) + 1)  # k = |V| included
        for draft_rank in range(len(probs)):  # drafts inside and outside the top k
            got = tail_gap_after_fill(s, ks, draft_rank)
            want = self.negated_search_gap(s, ks, draft_rank)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_bit_equal_to_negated_search_random(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 120))
            p = rng.dirichlet(np.full(n, rng.choice([0.05, 0.3, 1.0])))
            p[rng.random(n) < 0.1] = 0.0  # exact zeros, so some fills are 0
            if p.sum() == 0.0:
                p[0] = 1.0
            s = sort_desc(ProbVec(p / p.sum()))
            ks = np.arange(1, n + 1)
            for draft_rank in (0, int(rng.integers(0, n)), n - 1):
                got = tail_gap_after_fill(s, ks, draft_rank)
                assert np.array_equal(got, self.negated_search_gap(s, ks, draft_rank))

    def test_no_full_vocabulary_temporary(self):
        # select_k_online's probe call at V=32000: every temporary is sized by k.
        vocab = 32_000
        rng = np.random.default_rng(13)
        s = sort_desc(softmax(-4.0 * np.log(np.arange(1, vocab + 1)) + rng.standard_normal(vocab)))
        s.prefix  # cached, as select_k_online's first call leaves it
        probes = np.append(2 ** np.arange((vocab - 1).bit_length()), vocab)
        tracemalloc.start()
        try:
            tail_gap_after_fill(s, probes, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vocab * 8 / 4


class TestSelectKOffline:
    def test_loosest_constraint(self):
        grid = np.array([1, 4, 16])
        vals = np.array([0.05, 0.01, 0.0])
        sel = select_k_offline(grid, vals, theta=0.1, vocab_size=16)
        assert sel.k_star == 1 and not sel.saturated

    def test_saturation(self):
        grid = np.array([1, 4, 8])
        vals = np.array([0.5, 0.3, 0.2])
        sel = select_k_offline(grid, vals, theta=0.0, vocab_size=16)
        assert sel.k_star == 16 and sel.saturated

    def test_interpolated_refinement(self):
        # Crossing between grid points 10 and 20: interpolated value reaches
        # theta=0.35 exactly at k=16.
        grid = np.array([10, 20])
        vals = np.array([0.5, 0.25])
        sel = select_k_offline(grid, vals, theta=0.35, vocab_size=32)
        assert sel.k_star == 16
        assert sel.bound_value_at_k <= 0.35

    def test_minimal_on_grid(self):
        grid = np.array([1, 2, 4, 8])
        vals = np.array([0.9, 0.4, 0.2, 0.0])
        sel = select_k_offline(grid, vals, theta=0.2, vocab_size=8)
        assert sel.k_star in (3, 4)
        assert sel.bound_value_at_k <= 0.2


class TestSelectKOnline:
    ETA = 10.0

    def _naive_scan(self, s, draft_rank, beta_hat, theta, eta):
        denom = online_denominator(float(s.probs[draft_rank]), beta_hat, eta)
        ks = np.arange(1, len(s) + 1)
        for k, gap in zip(ks, tail_gap_after_fill(s, ks, draft_rank)):
            if gap / denom <= theta:
                return int(k)
        return len(s)

    def test_matches_naive_full_scan(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(4, 128))
            x = ProbVec(rng.dirichlet(np.full(n, 0.3)) + 1e-12)
            s = sort_desc(x)
            draft_rank = int(rng.integers(0, n))
            u = float(rng.uniform(0, 1))
            theta = float(rng.uniform(0.01, 0.5))
            sel = select_k_online(s, draft_rank, u, MODEL, theta, self.ETA)
            beta_hat = float(np.clip(MODEL.a * u + MODEL.b, 0, 1))
            assert sel.k_star == self._naive_scan(s, draft_rank, beta_hat, theta, self.ETA)
            assert sel.bound_value_at_k <= theta + 1e-12

    def test_staircase_monotone_in_u(self):
        rng = np.random.default_rng(13)
        x = ProbVec(rng.dirichlet(np.full(256, 0.2)) + 1e-12)
        s = sort_desc(x)
        draft_rank = 0
        ks = [
            select_k_online(s, draft_rank, u, MODEL, 0.05, self.ETA).k_star
            for u in np.linspace(0, 1, 30)
        ]
        assert all(b >= a for a, b in zip(ks, ks[1:]))

    def test_clamped_beta_path(self):
        rng = np.random.default_rng(14)
        x = ProbVec(rng.dirichlet(np.full(32, 0.5)) + 1e-12)
        s = sort_desc(x)
        # Any u at or below -b/a clamps the prediction to zero: identical k.
        k_lo = select_k_online(s, 0, 0.0, MODEL, 0.1, self.ETA).k_star
        k_also = select_k_online(s, 0, 0.05, MODEL, 0.1, self.ETA).k_star
        assert k_lo == k_also

    def test_saturation_theta_zero(self):
        rng = np.random.default_rng(15)
        x = ProbVec(rng.dirichlet(np.ones(16)) + 1e-12)
        s = sort_desc(x)
        sel = select_k_online(s, 0, 0.9, MODEL, 0.0, self.ETA)
        assert sel.k_star == 16 and sel.saturated


class TestTableIo:
    def test_default_grid_shape(self):
        grid = default_k_grid(32_000)
        assert grid[0] == 1 and grid[-1] == 32_000
        assert np.all(np.diff(grid) > 0)
        assert len(grid) <= 64

    @pytest.mark.parametrize("vocab", [2, 3, 10, 64, 65, 100, 2048, 32_000, 65_535, 131_072])
    def test_default_grid_equals_unique_construction(self, vocab):
        grid = np.unique(np.round(np.logspace(0.0, math.log10(vocab), 64)).astype(int))
        grid[-1] = vocab
        want = np.unique(grid)
        got = default_k_grid(vocab)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_round_trip(self, tmp_path):
        grid = default_k_grid(100)
        vals = np.linspace(0.5, 0.0, grid.size)
        cal = CalibrationSet(
            rows=[], delta_hat=0.0, utv_k_grid=grid, utv_values=vals, model=MODEL
        )
        save_calibration(tmp_path, cal)
        back = load_calibration(tmp_path)
        np.testing.assert_array_equal(back.utv_k_grid, grid)
        np.testing.assert_allclose(back.utv_values, vals, rtol=1e-8)
