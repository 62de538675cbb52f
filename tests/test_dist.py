"""Tests for probability-vector primitives."""

import math
import warnings

import numpy as np
import pytest

from hybridlm.dist import (
    NEG_TOL,
    RENORM_TOL,
    SUM_TOL,
    DistributionError,
    ProbVec,
    sample,
    sample_at,
    softmax,
    sort_desc,
    tvd,
)
from hybridlm.oracle import OracleSpec, SyntheticOracle
from hybridlm.verification import rank_order


def probvec_reference(values):
    """The stored vector of the earlier ``ProbVec``, which checked each property in its own pass."""
    p = np.asarray(values, dtype=np.float64)
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
        p = p / total
    return p


def tvd_reference(p, q):
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def oracle_pairs(n_rounds):
    """(x, y) of the first rounds of a default V=32000 synthetic sequence."""
    o = SyntheticOracle(OracleSpec())
    seq = []
    for t in range(n_rounds):
        ri = o.next_round(seq, t)
        yield softmax(ri.slm_logits), softmax(ri.llm_logits)
        seq.append(t)


class TestProbVec:
    def test_valid_construction(self):
        p = ProbVec(np.array([0.25, 0.75]))
        np.testing.assert_allclose(p.probs, [0.25, 0.75])

    def test_negative_entry_rejected(self):
        with pytest.raises(DistributionError):
            ProbVec(np.array([0.5, 0.6, -0.1]))

    def test_bad_sum_rejected(self):
        with pytest.raises(DistributionError):
            ProbVec(np.array([0.5, 0.4]))

    def test_small_drift_renormalized_with_warning(self):
        p = np.array([0.5, 0.5 + 3e-7])
        with pytest.warns(UserWarning, match="renormalizing"):
            v = ProbVec(p)
        assert abs(v.probs.sum() - 1.0) < 1e-15

    def test_tiny_drift_accepted_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ProbVec(np.array([0.5, 0.5 + 1e-12]))

    def test_immutable(self):
        v = ProbVec(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            v.probs[0] = 0.9

    def test_tiny_negative_clamped(self):
        v = ProbVec(np.array([1.0 + 1e-13, -1e-13]))
        assert v.probs[1] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(DistributionError, match="non-finite entries"):
            ProbVec(np.array([0.5, bad, 0.5]))

    def test_negative_entry_names_min(self):
        with pytest.raises(DistributionError, match=r"min=-1\.000e-01"):
            ProbVec(np.array([0.5, 0.6, -0.1]))

    @pytest.mark.parametrize("values", [[0.25, 0.75], [1.0 + 1e-13, -1e-13]])
    def test_caller_array_neither_aliased_nor_frozen(self, values):
        a = np.array(values)
        v = ProbVec(a)
        before = v.probs.copy()
        a[0] = 0.5
        assert a.flags.writeable
        np.testing.assert_array_equal(v.probs, before)

    def test_adopted_array_renormalized_in_place_with_warning(self):
        rng = np.random.default_rng(13)
        a = rng.dirichlet(np.ones(1000))
        a *= 1.0 + 5e-8 / a.sum()  # drift between SUM_TOL and RENORM_TOL
        assert SUM_TOL < abs(a.sum() - 1.0) <= RENORM_TOL
        expected = probvec_reference(a)
        with pytest.warns(UserWarning, match="renormalizing"):
            v = ProbVec.adopt(a)
        assert v.probs is a and not a.flags.writeable
        assert np.array_equal(v.probs, expected)

    def test_bit_equal_to_reference(self):
        rng = np.random.default_rng(12)
        cases = [x.probs for x, _ in oracle_pairs(2)]
        cases.append(np.array([1.0 + 1e-13, -1e-13, 0.0, -0.0]))  # clamp
        cases.append(rng.dirichlet(np.ones(1000)) * (1.0 + 5e-8))  # renormalize
        zeros = rng.dirichlet(np.ones(500))
        zeros[::3] = 0.0
        cases.append(zeros / zeros.sum())
        for values in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = ProbVec(values).probs
            assert np.array_equal(got, probvec_reference(values))


class TestSoftmax:
    def test_constant_logits_uniform(self):
        for c in (0.0, -3.5, 1e4):
            p = softmax(np.full(4, c))
            np.testing.assert_allclose(p.probs, 0.25, atol=1e-15)

    def test_closed_form_two_tokens(self):
        # exp(ln 3) = 3 gives the 1:3 split exactly.
        p = softmax(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(p.probs, [0.25, 0.75], atol=1e-14)

    def test_high_temperature_flattens(self):
        p = softmax(np.array([0.0, 10.0]), temperature=1e6)
        # Independent evaluation of the definition at this temperature.
        e = np.exp(np.array([0.0, 10.0]) / 1e6)
        expected = e / e.sum()
        np.testing.assert_allclose(p.probs, expected, atol=1e-15)
        np.testing.assert_allclose(p.probs, [0.5, 0.5], atol=1e-5)

    def test_overflow_safety(self):
        p = softmax(np.array([1000.0, 999.0, 0.0]))
        assert np.all(np.isfinite(p.probs))
        assert abs(p.probs.sum() - 1.0) < 1e-12

    def test_temperature_validation(self):
        z = np.array([0.0, 1.0])
        for bad in (0.0, -1.0, 1e-7):
            with pytest.raises(ValueError):
                softmax(z, temperature=bad)

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([0.0, np.inf]))
        with pytest.raises(ValueError):
            softmax(np.array([0.0, np.nan]))

    def test_sums_to_one_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            z = rng.normal(scale=10.0, size=n)
            theta = float(rng.uniform(0.01, 5.0))
            p = softmax(z, theta)
            assert abs(p.probs.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = rng.normal(size=16)
            c = float(rng.uniform(-100, 100))
            a = softmax(z, 0.7)
            b = softmax(z + c, 0.7)
            np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)


class TestSample:
    def test_one_hot_degenerate(self):
        p = ProbVec(np.eye(10)[7])
        for seed in range(5):
            assert sample(p, np.random.default_rng(seed)) == 7

    def test_cdf_boundary(self):
        class FixedRng:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        p = ProbVec(np.array([0.2, 0.3, 0.5]))
        assert sample(p, FixedRng(0.45)) == 1
        assert sample(p, FixedRng(0.1)) == 0
        assert sample(p, FixedRng(0.99)) == 2

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(123)
        p = ProbVec(np.array([0.5, 0.5]))
        draws = np.array([sample(p, rng) for _ in range(100_000)])
        freq0 = np.mean(draws == 0)
        assert 0.49 <= freq0 <= 0.51

    def test_deterministic_given_seed(self):
        p = ProbVec(np.array([0.1, 0.2, 0.3, 0.4]))
        a = [sample(p, np.random.default_rng(42)) for _ in range(10)]
        b = [sample(p, np.random.default_rng(42)) for _ in range(10)]
        assert a == b


class TestTvd:
    def test_identity(self):
        p = ProbVec(np.array([0.3, 0.7]))
        assert tvd(p, p) == 0.0

    def test_disjoint_support(self):
        assert tvd(ProbVec(np.eye(2)[0]), ProbVec(np.eye(2)[1])) == 1.0

    def test_direct_sum(self):
        p = ProbVec(np.array([0.5, 0.5]))
        q = ProbVec(np.eye(2)[0])
        assert tvd(p, q) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tvd(ProbVec(np.full(2, 1.0 / 2)), ProbVec(np.full(3, 1.0 / 3)))

    def test_bit_equal_to_reference(self):
        pairs = list(oracle_pairs(3))
        x0 = pairs[0][0].probs.copy()
        x0[::7] = 0.0
        pairs.append((ProbVec(x0 / x0.sum()), pairs[0][1]))
        for p, q in pairs:
            assert tvd(p, q) == tvd_reference(p, q)
            assert tvd(q, p) == tvd_reference(q, p)

    def test_symmetry_triangle_and_mass_conservation(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            p = ProbVec(rng.dirichlet(np.ones(n)))
            q = ProbVec(rng.dirichlet(np.ones(n)))
            r = ProbVec(rng.dirichlet(np.ones(n)))
            assert tvd(p, q) == pytest.approx(tvd(q, p), abs=1e-15)
            assert tvd(p, r) <= tvd(p, q) + tvd(q, r) + 1e-12
            # Half-l1 equals the one-sided positive mass.
            pos = np.maximum(q.probs - p.probs, 0.0).sum()
            assert tvd(p, q) == pytest.approx(pos, abs=1e-12)
            assert 0.0 <= tvd(p, q) <= 1.0 + 1e-12


class TestSortDesc:
    def test_direct_ordering(self):
        s = sort_desc(ProbVec(np.array([0.1, 0.7, 0.2])))
        np.testing.assert_allclose(s.probs, [0.7, 0.2, 0.1])
        np.testing.assert_array_equal(rank_order(s), [1, 2, 0])

    def test_tie_broken_by_index(self):
        s = sort_desc(ProbVec(np.array([0.25, 0.25, 0.5])))
        np.testing.assert_array_equal(rank_order(s), [2, 0, 1])

    def test_sorted_input_identity_perm(self):
        s = sort_desc(ProbVec(np.array([0.5, 0.3, 0.2])))
        np.testing.assert_array_equal(rank_order(s), [0, 1, 2])

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            p = ProbVec(rng.dirichlet(np.ones(n) * 0.5))
            s = sort_desc(p)
            np.testing.assert_array_equal(p.probs[rank_order(s)], s.probs)
            assert np.all(np.diff(s.probs) <= 0)

    def test_prefix_sums(self):
        s = sort_desc(ProbVec(np.array([0.1, 0.7, 0.2])))
        np.testing.assert_allclose(s.prefix, [0.0, 0.7, 0.9, 1.0])

    def test_prefix_computed_on_first_read(self):
        s = sort_desc(ProbVec(np.array([0.1, 0.7, 0.2])))
        assert "prefix" not in vars(s)
        first = s.prefix
        assert vars(s)["prefix"] is first and s.prefix is first

    def test_rank_of(self):
        s = sort_desc(ProbVec(np.array([0.1, 0.7, 0.2])))
        assert s.rank_of(1) == 0
        assert s.rank_of(0) == 2
        with pytest.raises(ValueError):
            s.rank_of(3)


class _FixedRng:
    """Stands in for a Generator whose next ``random()`` is r."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def _boundary_draws(cdf, d):
    """CDF boundaries around token d and the floats just below them."""
    edges = [cdf[d], cdf[-1], 0.0]
    if d > 0:
        edges.append(cdf[d - 1])
    rs = []
    for e in edges:
        rs += [e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)]
    return [r for r in rs if r >= 0.0]


class TestDrawsToken:
    def _vectors(self):
        rng = np.random.default_rng(31)
        yield np.array([1.0])
        yield np.array([0.2, 0.3, 0.5])
        yield np.array([0.5, 0.0, 0.0, 0.5])  # zero-mass tokens: flat CDF steps
        yield np.array([0.0, 1.0, 0.0])
        for _ in range(200):
            n = int(rng.integers(2, 300))
            alpha = float(rng.choice([0.05, 1.0, 20.0]))
            yield rng.dirichlet(np.full(n, alpha))

    def test_equals_sample_at_cdf_boundaries(self):
        rng = np.random.default_rng(32)
        checked = 0
        for raw in self._vectors():
            pv = ProbVec(raw)
            p = pv.probs
            cdf = np.cumsum(p)
            v = p.size
            for d in {0, v - 1, int(rng.integers(v))}:
                rs = _boundary_draws(cdf, d) + list(rng.random(4))
                if cdf[-1] < 1.0:
                    rs.append(float(rng.uniform(cdf[-1], 1.0)))  # past the CDF: clamped
                for r in rs:
                    got = sample_at(pv, r)
                    assert got == sample(pv, _FixedRng(r)), (v, d, r)
                    expected = (d == 0 or cdf[d - 1] <= r) and (d == v - 1 or r < cdf[d])
                    assert (got == d) == expected, (v, d, r)
                    checked += 1
        assert checked > 3000

    def test_cdf_short_of_one_clamps_to_last_token(self):
        p = np.array([0.25, 0.25, 0.5 - 1e-12])
        r = float(np.cumsum(p)[-1])
        assert sample(ProbVec(p), _FixedRng(r)) == 2
        assert sample_at(ProbVec(p), r) == 2


class TestTemperedProbs:
    def test_overflowing_logits_rejected_like_softmax(self):
        z = np.array([1e303, 0.0])  # z / 1e-6 overflows, and inf - inf is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DistributionError, match="non-finite"):
                softmax(z, 1e-6)


class TestApplySumRule:
    def test_nan_total_rejected(self):
        with pytest.raises(DistributionError, match="non-finite"):
            ProbVec(np.array([np.nan, 0.5]))


class TestSortDescMatchesStable:
    def _check(self, probs):
        p = ProbVec(probs)
        s = sort_desc(p)
        expected = np.argsort(-p.probs, kind="stable")
        np.testing.assert_array_equal(s.top_ids(len(p)), expected)
        assert s.probs.tobytes() == p.probs[expected].tobytes()

    def test_uniform(self):
        for n in (2, 7, 1000):
            self._check(np.full(n, 1.0 / n))

    def test_one_hot(self):
        for i in (0, 5, 9):
            self._check(ProbVec(np.eye(10)[i]).probs)

    def test_rounded_dirichlet(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            p = np.round(rng.dirichlet(np.ones(int(rng.integers(5, 500)))), 3)
            if p.sum() > 0.0:
                self._check(p / p.sum())

    def test_large_vocabulary_with_duplicates(self):
        rng = np.random.default_rng(35)
        half = rng.dirichlet(np.ones(16_000))
        p = rng.permutation(np.concatenate([half, half]))
        self._check(p / p.sum())

    def test_large_vocabulary_without_ties(self):
        rng = np.random.default_rng(36)
        p = rng.dirichlet(np.ones(32_000))
        assert np.unique(p).size == p.size
        self._check(p)


class TestArgsortFreeRanks:
    """rank_of and top_ids read no id order, yet equal the stable argsort's."""

    def _vectors(self):
        rng = np.random.default_rng(37)
        yield np.full(7, 1.0 / 7)  # uniform: one run of ties
        yield np.full(1000, 1.0 / 1000)
        yield np.array([0.1, 0.2, 0.2, 0.1, 0.2, 0.2])  # repeated values
        yield ProbVec(np.eye(9)[4]).probs  # one-hot: eight tied zeros
        for _ in range(30):
            n = int(rng.integers(2, 400))
            p = np.round(rng.dirichlet(np.ones(n)), int(rng.choice([2, 3, 17])))
            if p.sum() > 0.0:
                yield p / p.sum()
        half = rng.dirichlet(np.ones(2000))
        p = rng.permutation(np.concatenate([half, half]))
        yield p / p.sum()

    def test_rank_of_is_the_stable_rank(self):
        for probs in self._vectors():
            p = ProbVec(probs)
            s = sort_desc(p)
            expected = np.empty(len(p), dtype=int)
            expected[np.argsort(-p.probs, kind="stable")] = np.arange(len(p))
            assert [s.rank_of(d) for d in range(len(p))] == expected.tolist()

    def test_top_ids_is_the_perm_prefix(self):
        for probs in self._vectors():
            p = ProbVec(probs)
            s = sort_desc(p)
            perm = np.argsort(-p.probs, kind="stable")
            for k in {1, 2, len(p) // 2, len(p) - 1, len(p)} - {0}:
                np.testing.assert_array_equal(s.top_ids(k), perm[:k])

    def test_top_ids_k_inside_a_run_of_ties(self):
        # Ranks 1 to 5 hold the five ids tied at 0.15: k = 2 to 5 cut the run.
        probs = np.array([0.05, 0.15, 0.2, 0.15, 0.15, 0.0, 0.15, 0.15, 0.0])
        s = sort_desc(ProbVec(probs / probs.sum()))
        perm = np.argsort(-probs, kind="stable")
        for k in range(1, probs.size + 1):
            np.testing.assert_array_equal(s.top_ids(k), perm[:k])
        np.testing.assert_array_equal(s.top_ids(4), [2, 1, 3, 4])

    def test_out_of_range(self):
        s = sort_desc(ProbVec(np.full(4, 1.0 / 4)))
        for bad in (-1, 4):
            with pytest.raises(ValueError):
                s.rank_of(bad)
        for bad in (0, 5):
            with pytest.raises(ValueError):
                s.top_ids(bad)
