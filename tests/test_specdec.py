"""Tests for speculative verification and bias accounting."""

import numpy as np
import pytest

from hybridlm.compression import compress, reconstruct
from hybridlm.dist import ProbVec, softmax, sort_desc, tvd
from hybridlm.oracle import OracleSpec, SyntheticOracle
from hybridlm.specdec import (
    Verdict,
    distorted_resample_dist,
    hybrid_output_dist,
    rejection_prob,
    resample_dist,
    round_bias,
    verify,
)
from hybridlm.verification import hybrid_law_reference


# The earlier whole-array expression of distorted_resample_dist, which the
# in-place version must match bit for bit.


def distorted_resample_dist_reference(x_hat, y):
    num = np.maximum(y.probs - x_hat.probs, 0.0)
    denom = num.sum()
    if denom <= 0.0:
        return y, True
    return ProbVec(num / denom), False


def reference_cases():
    """(x, x_hat, y): V=32000 oracle rounds, and vectors with exact zeros in x."""
    o = SyntheticOracle(OracleSpec())
    rng = np.random.default_rng(21)
    seq = []
    for t in range(3):
        ri = o.next_round(seq, t)
        x, y = softmax(ri.slm_logits), softmax(ri.llm_logits)
        d = int(np.argmax(x.probs))
        yield x, reconstruct(compress(sort_desc(x), 16 << t, d)), y
        zeroed = x.probs.copy()
        zeroed[rng.random(zeroed.size) < 0.3] = 0.0
        zeroed[d] = x.probs[d]
        xz = ProbVec(zeroed / zeroed.sum())
        yield xz, reconstruct(compress(sort_desc(xz), 8, d)), y
        seq.append(t)
    x = ProbVec(np.array([0.5, 0.0, 0.3, 0.0, 0.2]))
    y = ProbVec(np.array([0.1, 0.4, 0.1, 0.3, 0.1]))
    yield x, x, y


def brute_force_bias(x, y, q):
    """Independent scalar-loop evaluation of the per-round bias sum."""
    n = len(x)
    reject_mass = 0.0
    for i in range(n):
        xi = float(x.probs[i])
        if xi > 0.0:
            reject_mass += xi * max(0.0, 1.0 - float(y.probs[i]) / xi)
    total = 0.0
    for v in range(n):
        xv = float(x.probs[v])
        beta_v = max(0.0, 1.0 - float(y.probs[v]) / xv) if xv > 0.0 else 0.0
        lhs = xv * (1.0 - beta_v) + reject_mass * float(q.probs[v])
        total += abs(lhs - float(y.probs[v]))
    return total


def bias_from_tvds(x, y, q):
    """round_bias from the two TVDs a round has, as run_round calls it:
    tvd(p, q) is None when x = y."""
    tvd_xy = tvd(x, y)
    tvd_pq = tvd(resample_dist(x, y), q) if tvd_xy > 0.0 else None
    return round_bias(tvd_xy, tvd_pq)


def enumerate_two_stage_law(x, y, q):
    """Brute-force outcome law: loop every draft, branch accept/reject."""
    n = len(x)
    out = [0.0] * n
    for v in range(n):
        xv = float(x.probs[v])
        if xv == 0.0:
            continue
        accept = min(1.0, float(y.probs[v]) / xv)
        out[v] += xv * accept
        reject = 1.0 - accept
        for w in range(n):
            out[w] += xv * reject * float(q.probs[w])
    return np.array(out)


class FixedRng:
    """Feeds a scripted list of uniforms to code expecting rng.random()."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


class TestRejectionProb:
    def test_clamps_to_zero_when_y_dominates(self):
        assert rejection_prob(0.3, 0.5) == 0.0

    def test_half(self):
        assert rejection_prob(0.8, 0.4) == pytest.approx(0.5)

    def test_zero_target_mass(self):
        assert rejection_prob(0.5, 0.0) == 1.0

    def test_zero_draft_mass_rejected(self):
        with pytest.raises(ValueError):
            rejection_prob(0.0, 0.5)

    def test_vectorized_matches_scalar(self):
        # The closed form min(x, y) + tvd(x, y) * q against the law built
        # token by token from the scalar rule.
        rng = np.random.default_rng(0)
        x = ProbVec(rng.dirichlet(np.ones(16)))
        y = ProbVec(rng.dirichlet(np.ones(16)))
        q = ProbVec(rng.dirichlet(np.ones(16)))
        law = hybrid_output_dist(x, y, q)
        np.testing.assert_allclose(law.probs, hybrid_law_reference(x, y, q), rtol=0, atol=1e-15)

    def test_vectorized_zero_entries(self):
        # A token with x_v = 0 is never drafted: its mass is its share of the rejections.
        x = ProbVec(np.array([0.0, 1.0]))
        y = ProbVec(np.array([0.5, 0.5]))
        q = ProbVec(np.array([0.25, 0.75]))
        expected = [0.5 * 0.25, 0.5 + 0.5 * 0.75]
        assert np.array_equal(hybrid_law_reference(x, y, q), expected)
        assert np.array_equal(hybrid_output_dist(x, y, q).probs, expected)


class TestVerify:
    def test_deterministic_acceptance(self):
        x = ProbVec(np.array([0.2, 0.8]))
        y = ProbVec(np.array([0.5, 0.5]))
        v = verify(0, x, y, y, FixedRng([0.999]))
        assert v == Verdict(accepted=True, token=0)

    def test_identical_distributions_always_accept(self):
        x = ProbVec(np.array([0.3, 0.7]))
        for d in (0, 1):
            v = verify(d, x, x, x, FixedRng([0.0]))
            assert v.accepted and v.token == d

    def test_probabilistic_rejection_path(self):
        x = ProbVec(np.array([0.8, 0.2]))
        y = ProbVec(np.array([0.4, 0.6]))
        # accept prob is 0.5; a 0.7 draw rejects, then 0.1 resamples index 0
        # of the supplied distribution.
        resample_from = ProbVec(np.array([0.0, 1.0]))
        v = verify(0, x, y, resample_from, FixedRng([0.7, 0.1]))
        assert not v.accepted
        assert v.token == 1

    def test_resample_builder_called_only_on_rejection(self):
        x = ProbVec(np.array([0.8, 0.2]))
        y = ProbVec(np.array([0.4, 0.6]))
        built = []

        def build():
            built.append(True)
            return ProbVec(np.array([0.0, 1.0]))

        assert verify(0, x, y, build, FixedRng([0.3])) == Verdict(accepted=True, token=0)
        assert built == []
        assert verify(0, x, y, build, FixedRng([0.7, 0.1])) == Verdict(accepted=False, token=1)
        assert built == [True]

    def test_probabilistic_acceptance_path(self):
        x = ProbVec(np.array([0.8, 0.2]))
        y = ProbVec(np.array([0.4, 0.6]))
        v = verify(0, x, y, y, FixedRng([0.3]))
        assert v.accepted and v.token == 0

    def test_monte_carlo_unbiasedness(self):
        # Empirical output law over many verification rounds matches y.
        rng = np.random.default_rng(99)
        gen = np.random.default_rng(100)
        n = 8
        x = ProbVec(gen.dirichlet(np.ones(n)))
        y = ProbVec(gen.dirichlet(np.ones(n)))
        p = resample_dist(x, y)
        counts = np.zeros(n)
        rounds = 100_000
        from hybridlm.dist import sample

        for _ in range(rounds):
            d = sample(x, rng)
            v = verify(d, x, y, p, rng)
            counts[v.token] += 1
        empirical = ProbVec(counts / rounds)
        assert tvd(empirical, y) < 0.02


class TestResampleDist:
    def test_single_surplus_token(self):
        x = ProbVec(np.array([0.6, 0.4]))
        y = ProbVec(np.array([0.2, 0.8]))
        np.testing.assert_allclose(resample_dist(x, y).probs, [0.0, 1.0])

    def test_two_surplus_tokens(self):
        x = ProbVec(np.array([0.5, 0.3, 0.2]))
        y = ProbVec(np.array([0.1, 0.5, 0.4]))
        np.testing.assert_allclose(resample_dist(x, y).probs, [0.0, 0.5, 0.5])

    def test_equal_distributions_error(self):
        x = ProbVec(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            resample_dist(x, x)


class TestDistortedResampleDist:
    def test_uncompressed_matches_exact(self):
        rng = np.random.default_rng(3)
        x = ProbVec(rng.dirichlet(np.ones(8)))
        y = ProbVec(rng.dirichlet(np.ones(8)))
        q, fallback = distorted_resample_dist(x, y)
        assert not fallback
        np.testing.assert_allclose(q.probs, resample_dist(x, y).probs, atol=1e-15)

    def test_reconstructed_example(self):
        x_hat = ProbVec(np.array([0.6, 0.2, 0.2]))
        y = ProbVec(np.array([0.2, 0.5, 0.3]))
        q, fallback = distorted_resample_dist(x_hat, y)
        assert not fallback
        np.testing.assert_allclose(q.probs, [0.0, 0.75, 0.25])

    def test_zero_denominator_falls_back_to_y(self):
        # Reconstruction dominates y everywhere, so the numerator vanishes.
        x_hat = ProbVec(np.array([0.5, 0.3, 0.2]))
        y = ProbVec(np.array([0.5, 0.3, 0.2]))
        q, fallback = distorted_resample_dist(x_hat, y)
        assert fallback
        np.testing.assert_allclose(q.probs, y.probs)


class TestHybridOutputDist:
    def test_exact_resampling_recovers_y(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = ProbVec(rng.dirichlet(np.ones(8)))
            y = ProbVec(rng.dirichlet(np.ones(8)))
            out = hybrid_output_dist(x, y, resample_dist(x, y))
            np.testing.assert_allclose(out.probs, y.probs, atol=1e-12)

    def test_degenerate_one_hot(self):
        x = ProbVec(np.eye(4)[2])
        y = ProbVec(np.eye(4)[2])
        out = hybrid_output_dist(x, y, ProbVec(np.full(4, 1.0 / 4)))
        np.testing.assert_allclose(out.probs, y.probs, atol=1e-15)

    def test_matches_two_stage_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            x = ProbVec(rng.dirichlet(np.ones(8)))
            y = ProbVec(rng.dirichlet(np.ones(8)))
            q = ProbVec(rng.dirichlet(np.ones(8)))
            out = hybrid_output_dist(x, y, q)
            np.testing.assert_allclose(
                out.probs, enumerate_two_stage_law(x, y, q), atol=1e-12
            )


class TestUnbiasednessProperty:
    @pytest.mark.parametrize("vocab", [2, 8, 64])
    def test_thousand_random_pairs(self, vocab):
        rng = np.random.default_rng(2024 + vocab)
        for _ in range(1000):
            x = ProbVec(rng.dirichlet(np.ones(vocab)))
            y = ProbVec(rng.dirichlet(np.ones(vocab)))
            out = hybrid_output_dist(x, y, resample_dist(x, y))
            assert np.max(np.abs(out.probs - y.probs)) < 1e-10


class TestRoundBias:
    def test_zero_with_exact_resampling(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = ProbVec(rng.dirichlet(np.ones(16)))
            y = ProbVec(rng.dirichlet(np.ones(16)))
            p = resample_dist(x, y)
            assert bias_from_tvds(x, y, p) < 1e-12
            assert bias_from_tvds(x, y, p) == pytest.approx(brute_force_bias(x, y, p), abs=1e-12)

    def test_zero_when_x_equals_y(self):
        x = ProbVec(np.array([0.4, 0.6]))
        q = ProbVec(np.array([0.9, 0.1]))
        assert bias_from_tvds(x, x, q) == 0.0
        assert brute_force_bias(x, x, q) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(2, 32))
            x = ProbVec(rng.dirichlet(np.ones(n)))
            y = ProbVec(rng.dirichlet(np.ones(n)))
            q = ProbVec(rng.dirichlet(np.ones(n)))
            assert bias_from_tvds(x, y, q) == pytest.approx(
                brute_force_bias(x, y, q), abs=1e-12
            )

    def test_equals_twice_reject_mass_times_tvd(self):
        # The bias collapses to 2 * (total reject mass) * tvd(p, q): both the
        # accepted mass and y - min(x, y) cancel exactly. The reject mass,
        # summed from the scalar rule, is tvd(x, y).
        rng = np.random.default_rng(41)
        for _ in range(100):
            x = ProbVec(rng.dirichlet(np.ones(12)))
            y = ProbVec(rng.dirichlet(np.ones(12)))
            q = ProbVec(rng.dirichlet(np.ones(12)))
            p = resample_dist(x, y)
            reject_mass = sum(
                xv * rejection_prob(xv, yv) for xv, yv in zip(x.probs, y.probs)
            )
            assert reject_mass == pytest.approx(tvd(x, y), abs=1e-15)
            expected = 2.0 * reject_mass * tvd(p, q)
            assert bias_from_tvds(x, y, q) == pytest.approx(expected, abs=1e-12)
            assert brute_force_bias(x, y, q) == pytest.approx(expected, abs=1e-12)

    def test_zero_iff_no_reject_mass_or_q_equals_p(self):
        x = ProbVec(np.array([0.4, 0.6]))
        y = ProbVec(np.array([0.4, 0.6]))
        q = ProbVec(np.array([1.0, 0.0]))
        assert bias_from_tvds(x, y, q) == 0.0
        assert brute_force_bias(x, y, q) == 0.0

        x = ProbVec(np.array([0.7, 0.3]))
        y = ProbVec(np.array([0.3, 0.7]))
        p = resample_dist(x, y)
        assert bias_from_tvds(x, y, p) < 1e-15
        assert brute_force_bias(x, y, p) < 1e-15
        q = ProbVec(np.array([0.5, 0.5]))
        assert bias_from_tvds(x, y, q) > 1e-3
        assert bias_from_tvds(x, y, q) == pytest.approx(brute_force_bias(x, y, q), abs=1e-12)


class TestBitEqualToReference:
    def test_distorted_resample_dist(self):
        for x, x_hat, y in reference_cases():
            for a in (x, x_hat):
                q, fallback = distorted_resample_dist(a, y)
                q_ref, fallback_ref = distorted_resample_dist_reference(a, y)
                assert fallback == fallback_ref
                assert np.array_equal(q.probs, q_ref.probs)

    def test_distorted_resample_dist_fallback(self):
        for _, _, y in reference_cases():
            q, fallback = distorted_resample_dist(y, y)
            assert fallback and q is y
            assert distorted_resample_dist_reference(y, y) == (q, fallback)

    def test_hybrid_output_dist_and_round_bias(self):
        # The closed forms against the law built token by token, per entry,
        # and the bias against that law's l1 deviation from y.
        for x, x_hat, y in reference_cases():
            q, _ = distorted_resample_dist(x_hat, y)
            for resample in (q, y):
                law = hybrid_law_reference(x, y, resample)
                np.testing.assert_allclose(
                    hybrid_output_dist(x, y, resample).probs, law, rtol=0, atol=1e-15
                )
                bias = float(np.abs(law - y.probs).sum())
                assert bias_from_tvds(x, y, resample) == pytest.approx(bias, abs=1e-12)
