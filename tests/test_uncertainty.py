"""Tests for uncertainty estimation, the linear fit, and the risk bound."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hybridlm import uncertainty
from hybridlm.dist import (
    MIN_TEMPERATURE,
    ProbVec,
    sample,
    sample_at,
    softmax,
    sort_desc,
)
from hybridlm.oracle import (
    PAIRS,
    CalibrationSet,
    OracleSpec,
    SyntheticOracle,
    calibrate,
    load_calibration,
    save_calibration,
)
from hybridlm.uncertainty import (
    EXACT_RANKS,
    KDE_CHUNK,
    REDRAW_MARGIN,
    DiscretePmfEstimator,
    GaussianKdeEstimator,
    LinearRejectionModel,
    UncertaintyConfig,
    estimate_delta,
    estimate_u,
    fit_linear,
    perturbation_draws,
    predict_beta,
    redraw_brackets,
    rejection_risk,
    thresholds,
)
from hybridlm.verification import rank_order

# Regression constants used as a fixed reference model throughout.
REF_A = 0.815
REF_B = -0.066
REF_MODEL = LinearRejectionModel(a=REF_A, b=REF_B, mse=0.0, r2=1.0)


def normal_equations(u, beta):
    """Closed-form OLS slope/intercept, independent of the fit implementation."""
    u = np.asarray(u, dtype=float)
    beta = np.asarray(beta, dtype=float)
    n = len(u)
    su, sb = u.sum(), beta.sum()
    a = (n * (u * beta).sum() - su * sb) / (n * (u * u).sum() - su * su)
    b = (sb - a * su) / n
    return a, b


class TestUncertaintyConfig:
    def test_defaults(self):
        cfg = UncertaintyConfig()
        assert cfg.m == 20 and cfg.theta_max == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            UncertaintyConfig(m=0)
        with pytest.raises(ValueError):
            UncertaintyConfig(theta_max=0.0)


class TestEstimateU:
    def test_dominant_logit_zero_uncertainty(self):
        logits = np.zeros(8)
        logits[3] = 1000.0
        assert estimate_u(logits, 3, UncertaintyConfig(), np.random.default_rng(0)) == 0.0

    def test_single_sample_binary(self):
        cfg = UncertaintyConfig(m=1)
        rng = np.random.default_rng(1)
        logits = np.array([0.0, 0.5, 1.0])
        for _ in range(20):
            assert estimate_u(logits, 2, cfg, rng) in (0.0, 1.0)

    def test_uniform_logits_near_one(self):
        # Per-redraw agreement probability is 1/|V|, so u = 1 almost always.
        cfg = UncertaintyConfig(m=20)
        rng = np.random.default_rng(2)
        logits = np.zeros(32_000)
        values = [estimate_u(logits, 0, cfg, rng) for _ in range(50)]
        assert sum(1 for u in values if u >= 0.99) >= 49

    def test_quantized_to_m_levels(self):
        cfg = UncertaintyConfig(m=7)
        rng = np.random.default_rng(3)
        logits = np.array([2.0, 1.5, 0.0, -1.0])
        for _ in range(30):
            u = estimate_u(logits, 0, cfg, rng)
            assert abs(u * cfg.m - round(u * cfg.m)) < 1e-12
            assert 0.0 <= u <= 1.0

    def test_deterministic_given_seed(self):
        cfg = UncertaintyConfig()
        logits = np.linspace(0, 3, 50)
        a = estimate_u(logits, 49, cfg, np.random.default_rng(77))
        b = estimate_u(logits, 49, cfg, np.random.default_rng(77))
        assert a == b


def reference_estimate_u(logits, d, cfg, rng):
    """The plain definition: m full tempered-softmax-and-sample redraws."""
    disagree = 0
    for _ in range(cfg.m):
        theta = max(float(rng.uniform(0.0, cfg.theta_max)), MIN_TEMPERATURE)
        w = logits / theta
        w = w - w.max()
        e = np.exp(w)
        if sample(ProbVec(e / e.sum()), rng) != d:
            disagree += 1
    return disagree / cfg.m


class TestEstimateUMatchesReference:
    def _cases(self):
        rng = np.random.default_rng(41)
        for i in range(2400):
            n = int(rng.integers(1, 40))
            scale = float(rng.choice([0.1, 1.0, 10.0, 1000.0]))
            z = rng.normal(scale=scale, size=n)
            if i % 3 == 0:
                z = np.round(z / scale) * scale  # tied logits
            if i % 7 == 0:
                z = np.full(n, float(rng.normal()))  # all tied
            d = int(rng.choice([0, n - 1, int(np.argmax(z)), int(rng.integers(n))]))
            cfg = UncertaintyConfig(
                m=int(rng.integers(1, 25)),
                theta_max=float(rng.choice([1e-3, 0.1, 2.0, 50.0])),
            )
            yield z, d, cfg, int(rng.integers(2**32))

    def test_bit_identical_u_and_rng_consumption(self):
        for z, d, cfg, seed in self._cases():
            fast_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            got = estimate_u(z, d, cfg, fast_rng)
            assert got == reference_estimate_u(z, d, cfg, ref_rng), (z, d, cfg, seed)
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_large_vocabulary(self):
        rng = np.random.default_rng(42)
        z = -4.0 * np.log(np.arange(1, 32_001)) + rng.normal(size=32_000)
        z = rng.permutation(z)
        cfg = UncertaintyConfig()
        for d in (int(np.argmax(z)), 0, 31_999, int(rng.integers(32_000))):
            got = estimate_u(z, d, cfg, np.random.default_rng(d))
            assert got == reference_estimate_u(z, d, cfg, np.random.default_rng(d))


def loop_draws(cfg, rng):
    """perturbation_draws' floats as 2m scalar calls: uniform(0, theta_max), then random()."""
    thetas, draws = np.empty(cfg.m), np.empty(cfg.m)
    for i in range(cfg.m):
        thetas[i] = max(float(rng.uniform(0.0, cfg.theta_max)), MIN_TEMPERATURE)
        draws[i] = rng.random()
    return thetas, draws


class TestPerturbationDraws:
    @pytest.mark.parametrize("m, theta_max", [(1, 2.0), (20, 2.0), (7, 50.0), (20, 1e-7)])
    def test_one_call_matches_scalar_calls(self, m, theta_max):
        # theta_max 1e-7 puts every temperature under MIN_TEMPERATURE.
        cfg = UncertaintyConfig(m=m, theta_max=theta_max)
        for seed in range(3000):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            thetas, draws = perturbation_draws(cfg, rng)
            ref_thetas, ref_draws = loop_draws(cfg, ref_rng)
            assert np.array_equal(thetas, ref_thetas) and np.array_equal(draws, ref_draws)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class ScriptedRng:
    """Stands in for a Generator whose random(size) returns given values."""

    def __init__(self, values):
        self._values = np.array(values, dtype=np.float64)

    def random(self, size):
        assert size == self._values.size
        return self._values


@pytest.fixture(scope="module")
def oracle_rounds():
    """Default-oracle (V=32000) SLM logits and their descending order, three rounds."""
    oracle = SyntheticOracle(OracleSpec())
    rounds = []
    for sequence in ([], [5], [5, 17]):
        z = oracle.next_round(sequence, len(sequence)).slm_logits
        rounds.append((z, rank_order(sort_desc(softmax(z)))))
    return rounds


@pytest.fixture(scope="module")
def large_round():
    """A V=262144 synthetic-oracle round: SLM logits and their descending order."""
    z = SyntheticOracle(OracleSpec(vocab_size=262_144)).next_round([], 0).slm_logits
    return z, rank_order(sort_desc(softmax(z)))


@pytest.fixture
def exact_calls(monkeypatch):
    """Temperatures of the redraws estimate_u decides on the exact path."""
    calls = []

    def counting(z, theta):
        calls.append(theta)
        return softmax(z, theta)

    monkeypatch.setattr(uncertainty, "softmax", counting)
    return calls


def one_redraw(z, d, theta, r):
    """u of one redraw at temperature theta whose rng.random() yields r."""
    # theta_max * 0.5 is theta exactly.
    return estimate_u(z, d, UncertaintyConfig(m=1, theta_max=2 * theta), ScriptedRng([0.5, r]))


def exact_redraw(z, d, theta, r):
    return 0.0 if sample_at(softmax(z, theta), r) == d else 1.0


BRACKET_THETAS = np.array([MIN_TEMPERATURE, 0.1, 0.7, 2.0, 50.0])


def assert_brackets_hold(z, d, thetas=BRACKET_THETAS):
    """Each bracket of redraw_brackets holds the exact CDF value, to 1e-11."""
    lower_lo, lower_hi, upper_lo, upper_hi = redraw_brackets(z, d, thetas)
    for i, theta in enumerate(thetas):
        cdf = np.cumsum(softmax(z, theta).probs)
        lower = cdf[d - 1] if d > 0 else -np.inf
        upper = cdf[d] if d < z.size - 1 else np.inf
        # A NaN bound claims nothing; estimate_u takes the exact path.
        for lo, exact, hi in (
            (lower_lo[i], lower, lower_hi[i]),
            (upper_lo[i], upper, upper_hi[i]),
        ):
            assert not lo - 1e-11 > exact and not exact > hi + 1e-11


def assert_redraws_exact(z, d, thetas=(MIN_TEMPERATURE, 0.3, 1.0, 2.0), full=True):
    """Redraws on, an ulp beside and 1e-12 beside the exact CDF values around d
    decide as the exact path does; with ``full``, so does a whole estimate_u."""
    for theta in thetas:
        cdf = np.cumsum(softmax(z, theta).probs)
        for c in [cdf[d]] + ([cdf[d - 1]] if d > 0 else []):
            for r in (c, np.nextafter(c, -1.0), np.nextafter(c, 2.0), c - 1e-12, c + 1e-12):
                if 0.0 <= r < 1.0:
                    assert one_redraw(z, d, theta, float(r)) == exact_redraw(z, d, theta, r)
    if not full:
        return
    cfg = UncertaintyConfig()
    rng, ref_rng = np.random.default_rng(d), np.random.default_rng(d)
    assert estimate_u(z, d, cfg, rng) == reference_estimate_u(z, d, cfg, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def exact_set(z):
    """The ids redraw_brackets sums exactly: z >= the EXACT_RANKS-th largest logit."""
    if z.size <= EXACT_RANKS:
        return np.arange(z.size)
    return np.flatnonzero(z >= np.sort(z)[z.size - EXACT_RANKS])


class TestBoundedRedraws:
    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_each_outcome_on_and_beside_the_bracket_ends(self, oracle_rounds, exact_calls, theta):
        z, order = oracle_rounds[0]
        d = int(order[0])
        lower_lo, lower_hi, upper_lo, upper_hi = (
            float(b[0]) for b in redraw_brackets(z, d, np.array([theta]))
        )
        m = REDRAW_MARGIN
        assert 0.0 < lower_lo - m and lower_hi + m < upper_lo - m and upper_hi + m < 1.0
        below = np.nextafter(lower_lo - m, -1.0)
        cases = [  # (r, u, settled without the exact path)
            (below, 1.0, True),  # reject below
            (lower_lo - m, 1.0, False),
            (np.nextafter(lower_hi + m, -1.0), 0.0, False),
            (lower_hi + m, 0.0, True),  # accept
            (np.nextafter(upper_lo - m, -1.0), 0.0, True),
            (upper_lo - m, 0.0, False),
            (np.nextafter(upper_hi + m, -1.0), 1.0, False),
            (upper_hi + m, 1.0, True),  # reject above
        ]
        for r, u, settled in cases:
            exact_calls.clear()
            assert one_redraw(z, d, theta, float(r)) == u == exact_redraw(z, d, theta, r)
            assert exact_calls == ([] if settled else [theta]), (r, u)

    @pytest.mark.parametrize("rank", [0, 16_000, 31_999])
    def test_draws_on_and_beside_the_exact_cdf(self, oracle_rounds, large_round, rank):
        # r within a few ulps, 1e-12 or twice the margin of the floats the
        # exact path compares against: a too-small margin or a missing block
        # decides one of these differently.
        for z, order in [*oracle_rounds, large_round]:
            d = int(order[rank])
            for theta in (MIN_TEMPERATURE, 0.05, 0.3, 1.0, 2.0):
                cdf = np.cumsum(softmax(z, theta).probs)
                ends = [cdf[d]] + ([cdf[d - 1]] if d > 0 else [])
                for c in ends:
                    for r in (
                        c, np.nextafter(c, -1.0), np.nextafter(c, 2.0),
                        c - 1e-12, c + 1e-12, c - 2e-9, c + 2e-9,
                    ):
                        if 0.0 <= r < 1.0:
                            got = one_redraw(z, d, theta, float(r))
                            assert got == exact_redraw(z, d, theta, r), (rank, theta, c, r)

    def test_all_exact_terms_draws_on_the_cdf(self):
        # Below EXACT_RANKS tokens the brackets hold no bucket terms, so they
        # meet the exact floats to within rounding: only the margin tells an
        # r on the CDF value from one an ulp away.
        rng = np.random.default_rng(9)
        for _ in range(300):
            z = rng.normal(scale=float(rng.choice([0.5, 3.0])), size=int(rng.integers(2, 200)))
            d = int(rng.integers(1, z.size))
            theta = float(rng.choice([0.3, 1.0, 2.0]))
            cdf = np.cumsum(softmax(z, theta).probs)
            for c in (cdf[d - 1], cdf[d]):
                for r in (c, np.nextafter(c, -1.0), np.nextafter(c, 2.0)):
                    if r < 1.0:
                        got = one_redraw(z, d, theta, float(r))
                        assert got == exact_redraw(z, d, theta, r), (z.size, d, theta, r)

    @pytest.mark.parametrize("rank", [0, 16_000, 31_999])
    def test_oracle_rounds_match_reference(self, oracle_rounds, rank):
        cfg = UncertaintyConfig()
        for i, (z, order) in enumerate(oracle_rounds):
            d = int(order[rank])
            rng, ref_rng = np.random.default_rng(i), np.random.default_rng(i)
            got = estimate_u(z, d, cfg, rng)
            assert got == reference_estimate_u(z, d, cfg, ref_rng), (i, rank)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_oracle_redraws_rarely_take_the_exact_path(self, oracle_rounds, exact_calls):
        cfg = UncertaintyConfig()
        n = 0
        for i, (z, order) in enumerate(oracle_rounds):
            for rank in (0, 1, 2, 5, 300):
                estimate_u(z, int(order[rank]), cfg, np.random.default_rng(i))
                n += cfg.m
        assert len(exact_calls) <= n // 20

    def test_brackets_hold_for_any_permutation(self):
        # The brackets read no id order: they hold on the logits and on a
        # shuffle of them, with d the same index in both.
        rng = np.random.default_rng(5)
        for _ in range(40):
            z = rng.normal(scale=float(rng.choice([1.0, 5.0])), size=int(rng.integers(300, 3000)))
            d = int(rng.integers(z.size))
            for logits in (z, rng.permutation(z)):
                assert_brackets_hold(logits, d)

    def test_ties_at_the_cut(self):
        # 300 ids tie at the EXACT_RANKS-th largest logit: all of them are
        # exact terms, above EXACT_RANKS in number.
        rng = np.random.default_rng(12)
        z = np.concatenate([1.0 + rng.random(100), np.zeros(300), -1.0 - 5.0 * rng.random(1600)])
        z = rng.permutation(z)
        assert exact_set(z).size == 400
        above, at, below = (int(np.flatnonzero(f)[7]) for f in (z > 0.0, z == 0.0, z < 0.0))
        for d in (above, at, below, 0, z.size - 1):
            assert_brackets_hold(z, d)
            assert_redraws_exact(z, d)

    def test_all_equal_logits(self):
        # Every id ties at the cut, so no bucket has width: all terms are exact.
        for n in (EXACT_RANKS + 1, 2000):
            z = np.full(n, 0.3)
            for d in (0, n // 2, n - 1):
                assert_brackets_hold(z, d)
                assert_redraws_exact(z, d)

    def test_equal_logits_below_the_cut(self):
        rng = np.random.default_rng(13)
        z = rng.permutation(np.concatenate([rng.normal(size=EXACT_RANKS), np.full(1000, -4.0)]))
        for d in (int(np.argmax(z)), int(np.argmin(z)), int(np.flatnonzero(z == -4.0)[-1])):
            assert_brackets_hold(z, d)
            assert_redraws_exact(z, d)

    @pytest.mark.parametrize("n", [2, EXACT_RANKS - 1, EXACT_RANKS, EXACT_RANKS + 1])
    def test_vocabulary_up_to_exact_ranks(self, n):
        rng = np.random.default_rng(n)
        z = rng.normal(scale=3.0, size=n)
        for d in {0, n - 1, int(np.argmax(z)), int(np.argmin(z))}:
            assert_brackets_hold(z, d)
            assert_redraws_exact(z, d)

    def test_logits_spanning_a_thousand(self):
        rng = np.random.default_rng(14)
        for z in (rng.uniform(-1000.0, 0.0, 5000), rng.uniform(-500.0, 500.0, 3000)):
            order = np.argsort(-z, kind="stable")
            for rank in (0, 3, 255, 256, 1000, z.size - 1):
                d = int(order[rank])
                assert_brackets_hold(z, d)
                assert_redraws_exact(z, d)

    def test_draft_inside_and_outside_the_exact_set(self, oracle_rounds):
        z, order = oracle_rounds[1]
        exact = exact_set(z)
        for rank in (0, 100, EXACT_RANKS - 1, EXACT_RANKS, 5000, z.size - 1):
            d = int(order[rank])
            assert (d in exact) == (rank < EXACT_RANKS)
            assert_brackets_hold(z, d)
            assert_redraws_exact(z, d)
        # The ends of the exact ids' below-d / above-d split: d is the lowest
        # or highest exact id, or lies below or above all of them.
        first, last = int(exact[0]), int(exact[-1])
        assert 0 < first and last < z.size - 1
        for d in (first, last, first - 1, last + 1):
            assert (d in exact) == (d in (first, last))
            assert_brackets_hold(z, d)
            assert_redraws_exact(z, d)

    def test_degenerate_bucket_spans(self):
        # A span between min(z) and the cut too narrow for VALUE_BUCKETS / span
        # to be finite, and one too wide to be finite itself: one bucket each.
        # The wide one overflows softmax's own z - max to -inf as well, and
        # below theta = 1 its z / theta, so only theta >= 1 is defined.
        narrow = np.concatenate([np.full(EXACT_RANKS, 1e-310), [0.0, 5e-324, 1e-315]])
        wide = np.concatenate([np.full(EXACT_RANKS, 1e308), [-1e308, -5e307, 0.0]])
        with np.errstate(over="ignore"):
            for z in (narrow, wide):
                for d in (0, EXACT_RANKS, z.size - 1):
                    assert_brackets_hold(z, d, np.array([1.0, 2.0]))
                    assert_redraws_exact(z, d, (1.0, 2.0), full=z is narrow)

    def test_leaves_numpy_ma_unloaded(self):
        # numpy.ma costs about 1 MB of peak RSS; np.unique would load it.
        code = (
            "import sys, numpy as np; from hybridlm.uncertainty import *; "
            "estimate_u(np.linspace(0, 9, 4000), 7, UncertaintyConfig(), "
            "np.random.default_rng(0)); print('numpy.ma' in sys.modules)"
        )
        src = str(Path(uncertainty.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_large_vocabulary_takes_the_bracket_path(self, exact_calls):
        # Above the wire's 16-bit token index the margin is still 1e-9, so
        # these vocabularies are settled like any other.
        rng = np.random.default_rng(6)
        cfg = UncertaintyConfig()
        n = 0
        for vocab in (65_536, 131_072, 262_144):
            z = rng.normal(scale=3.0, size=vocab)
            for d in (int(np.argmax(z)), int(rng.integers(vocab))):
                got_rng, ref_rng = np.random.default_rng(d), np.random.default_rng(d)
                got = estimate_u(z, d, cfg, got_rng)
                assert got == reference_estimate_u(z, d, cfg, ref_rng), (vocab, d)
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state
                n += cfg.m
        assert len(exact_calls) <= n // 20


class TestEstimateUInputs:
    @pytest.mark.parametrize("d", [-1, 4, 100])
    def test_draft_outside_vocabulary_rejected(self, d):
        with pytest.raises(ValueError, match="outside vocabulary"):
            estimate_u(np.zeros(4), d, UncertaintyConfig(), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "logits", [np.array([0.0, np.inf]), np.array([0.0, np.nan]), np.zeros(0), np.zeros((2, 2))]
    )
    def test_bad_logits_rejected(self, logits):
        with pytest.raises(ValueError):
            estimate_u(logits, 0, UncertaintyConfig(), np.random.default_rng(0))


class TestFitLinear:
    def test_exact_line_recovered(self):
        u = np.linspace(0.0, 1.0, 40)
        m = fit_linear(u, REF_A * u + REF_B)
        assert m.a == pytest.approx(REF_A, abs=1e-12)
        assert m.b == pytest.approx(REF_B, abs=1e-12)
        assert m.mse == pytest.approx(0.0, abs=1e-24)
        assert m.r2 == pytest.approx(1.0, abs=1e-12)

    def test_two_point_fit(self):
        m = fit_linear([0.0, 1.0], [0.0, 1.0])
        assert m.a == pytest.approx(1.0) and m.b == pytest.approx(0.0)

    def test_noisy_line_matches_normal_equations(self):
        rng = np.random.default_rng(55)
        u = rng.uniform(0, 1, 10_000)
        beta = 0.7 * u + 0.1 + rng.normal(0, 0.01, u.size)
        m = fit_linear(u, beta)
        a_ref, b_ref = normal_equations(u, beta)
        assert m.a == pytest.approx(a_ref, abs=1e-10)
        assert m.b == pytest.approx(b_ref, abs=1e-10)
        assert abs(m.a - 0.7) < 0.01

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_linear([0.5], [0.1])
        with pytest.raises(ValueError):
            fit_linear([0.5, 0.5], [0.1, 0.9])

    def test_unequal_columns_rejected(self):
        # A length-1 beta would broadcast against u.
        with pytest.raises(ValueError, match="equal length"):
            fit_linear([0.0, 0.5, 1.0], [0.1])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exact_rational_ols(self, seed):
        # u on its natural grid j/20, beta rejection probabilities that rise
        # with u. b = mean(beta) - a*mean(u) cancels, so its error is
        # measured against the two terms it is made from.
        rng = np.random.default_rng(seed)
        u = rng.integers(0, 21, 2000) / 20
        beta = np.clip(REF_A * u + REF_B + rng.normal(0.0, 0.2, u.size), 0.0, 1.0)
        us, bs = [Fraction(v) for v in u.tolist()], [Fraction(v) for v in beta.tolist()]
        u_mean, beta_mean = sum(us) / len(us), sum(bs) / len(bs)
        a = sum((x - u_mean) * (y - beta_mean) for x, y in zip(us, bs)) / sum(
            (x - u_mean) ** 2 for x in us
        )
        b = beta_mean - a * u_mean
        m = fit_linear(u, beta)
        assert abs(Fraction(m.a) - a) <= Fraction(1e-15) * abs(a)
        assert abs(Fraction(m.b) - b) <= Fraction(1e-15) * (abs(beta_mean) + abs(a * u_mean))

    def test_calibrate_calls_no_lapack_fit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK least squares called")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        cal = calibrate(OracleSpec(vocab_size=2048, seed=11), 60, UncertaintyConfig(m=10), seed=5)
        a, b = normal_equations(cal.rows["u"], cal.rows["beta"])
        assert cal.model.a == pytest.approx(a, abs=1e-12)
        assert cal.model.b == pytest.approx(b, abs=1e-12)


class TestPredictBeta:
    def test_near_zero_at_risk_averse_point(self):
        assert abs(predict_beta(REF_MODEL, 0.0810)) < 1e-4

    def test_at_full_uncertainty(self):
        assert predict_beta(REF_MODEL, 1.0) == pytest.approx(0.749)

    def test_clamped_below(self):
        assert predict_beta(REF_MODEL, 0.0) == 0.0

    def test_clamped_above(self):
        assert predict_beta(LinearRejectionModel(2.0, 0.0, 0.0, 1.0), 0.9) == 1.0


class TestThresholds:
    def test_reference_constants(self):
        pair = thresholds(REF_MODEL, delta=0.5956)
        assert pair.risk_averse == pytest.approx(0.0810, abs=1e-4)
        assert pair.risk_prone == pytest.approx(0.8117, abs=1e-4)

    def test_identity_model(self):
        pair = thresholds(LinearRejectionModel(1.0, 0.0, 0.0, 1.0), delta=1.0)
        assert pair == (0.0, 1.0) or (pair.risk_averse, pair.risk_prone) == (0.0, 1.0)

    def test_degenerate_delta(self):
        pair = thresholds(REF_MODEL, delta=0.0)
        assert pair.risk_prone == pytest.approx(pair.risk_averse)

    def test_nonpositive_slope_rejected(self):
        with pytest.raises(ValueError):
            thresholds(LinearRejectionModel(0.0, 0.1, 0.0, 0.0), delta=0.5)

    def test_risk_averse_is_first_nonzero_prediction(self):
        grid = np.linspace(0, 1, 10_001)
        preds = np.array([predict_beta(REF_MODEL, u) for u in grid])
        first_nonzero = grid[np.argmax(preds > 0)]
        pair = thresholds(REF_MODEL, delta=0.5)
        assert abs(first_nonzero - pair.risk_averse) <= grid[1] - grid[0]


class TestEstimateDelta:
    def test_all_accepted(self):
        assert estimate_delta(np.array([0.2, 0.1]), np.array([0.5, 0.1])) == 0.0

    def test_half_and_half(self):
        assert estimate_delta(np.array([0.5, 0.1]), np.array([0.1, 0.5])) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_delta(np.array([]), np.array([]))


class TestCalibrationCsv:
    def test_round_trip(self, tmp_path):
        rows = np.array([(0.1, 0.05, 0.9, 0.8), (0.55, 0.4, 0.3, 0.2)], dtype=PAIRS)
        cal = CalibrationSet(
            rows=rows,
            delta_hat=0.5,
            utv_k_grid=np.array([1, 2]),
            utv_values=np.array([0.2, 0.1]),
            model=REF_MODEL,
        )
        save_calibration(tmp_path, cal)
        back = load_calibration(tmp_path).rows
        assert back.dtype == PAIRS
        for name in PAIRS.names:
            np.testing.assert_allclose(back[name], rows[name], rtol=1e-8)


def reference_kde_l2(samples, lo, hi):
    """The KDE's squared-density integral as a plain per-sample Gaussian sum."""
    n = samples.size
    h = np.std(samples, ddof=1) * (3.0 * n / 4.0) ** -0.2
    grid = np.linspace(lo, hi, GaussianKdeEstimator.GRID_POINTS)
    f = np.zeros(grid.size)
    for x in samples:
        f += np.exp(-0.5 * ((grid - x) / h) ** 2)
    f /= n * h * np.sqrt(2.0 * np.pi)
    return float(np.trapezoid(f**2, grid))


KDE_INTERVALS = [(0.081, 0.9), (-0.5, 1.5), (0.3, 0.31)]
KDE_INPUTS = ["continuous", "grid", "below_chunk", "not_chunk_multiple"]


@pytest.fixture(scope="module")
def kde_inputs():
    """Continuous uniforms, 1/20-grid samples, and fewer / not a multiple of KDE_CHUNK values."""
    rng = np.random.default_rng(60)
    return {
        "continuous": rng.uniform(0.0, 1.0, 8000),
        "grid": np.round(rng.uniform(0.0, 1.0, 8000) * 20.0) / 20.0,
        "below_chunk": rng.uniform(0.0, 1.0, KDE_CHUNK // 2),
        "not_chunk_multiple": rng.normal(0.5, 0.2, 3 * KDE_CHUNK + 17),
    }


class TestGaussianKde:
    @pytest.mark.parametrize("name", KDE_INPUTS)
    def test_matches_per_sample_sum(self, kde_inputs, name):
        u = kde_inputs[name]
        for lo, hi in KDE_INTERVALS:
            got = GaussianKdeEstimator().density_l2_integral(u, lo, hi)
            want = reference_kde_l2(u, lo, hi)
            assert abs(got - want) <= 1e-12 * want, (name, lo, hi, got, want)

    @pytest.mark.parametrize("name", KDE_INPUTS)
    def test_matches_scipy_silverman(self, kde_inputs, name):
        stats = pytest.importorskip("scipy.stats")
        u = kde_inputs[name]
        kde = stats.gaussian_kde(u, bw_method="silverman")
        for lo, hi in KDE_INTERVALS:
            grid = np.linspace(lo, hi, GaussianKdeEstimator.GRID_POINTS)
            want = float(np.trapezoid(kde(grid) ** 2, grid))
            got = GaussianKdeEstimator().density_l2_integral(u, lo, hi)
            assert abs(got - want) <= 1e-12 * want, (name, lo, hi, got, want)

    def test_empty_interval_and_zero_variance(self):
        est = GaussianKdeEstimator()
        assert est.density_l2_integral(np.array([0.1, 0.2]), 0.5, 0.5) == 0.0
        with pytest.raises(ValueError, match="zero-variance"):
            est.density_l2_integral(np.full(10, 0.3), 0.0, 1.0)


class TestRejectionRisk:
    def _uniform_samples(self, lo, hi, n, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(lo, hi, n)

    def test_zero_risk_at_risk_averse_threshold(self):
        lo = -REF_B / REF_A
        u = self._uniform_samples(lo, (1 - REF_B) / REF_A, 5000, 0)
        rep = rejection_risk(REF_MODEL, u, lo, GaussianKdeEstimator())
        assert rep.empirical_r == 0.0
        assert rep.bound == pytest.approx(0.0)

    def test_empirical_matches_analytic_integral(self):
        # Uniform u on the skip interval with an exact-linear beta: the mean
        # skipped rejection probability is the midpoint value of the line.
        lo = -REF_B / REF_A
        hi = 0.9
        n = 200_000
        u = self._uniform_samples(lo, hi, n, 1)
        rep = rejection_risk(REF_MODEL, u, hi, DiscretePmfEstimator(m=20))
        analytic = REF_A * (hi + lo) / 2.0 + REF_B
        sigma = np.std(np.clip(REF_A * u + REF_B, 0, 1)) / np.sqrt(n)
        assert abs(rep.empirical_r - analytic) < 3 * sigma + 1e-6

    @pytest.mark.parametrize(
        "estimator_factory",
        [lambda: GaussianKdeEstimator(), lambda: DiscretePmfEstimator(m=20)],
    )
    def test_bound_holds_on_threshold_sweep(self, estimator_factory):
        # Samples cover the full uncertainty range [0, 1] so the risk zone is
        # interior to the density's support, as in real disagreement data.
        lo = -REF_B / REF_A
        hi = (1 - REF_B) / REF_A
        u = self._uniform_samples(0.0, 1.0, 20_000, 2)
        for u_th in np.linspace(lo, hi, 20):
            rep = rejection_risk(REF_MODEL, u, float(u_th), estimator_factory())
            assert rep.empirical_r <= rep.bound + 1e-12

    def test_bound_monotone_in_delta(self):
        lo = -REF_B / REF_A
        hi = (1 - REF_B) / REF_A
        u = self._uniform_samples(lo, hi, 10_000, 3)
        est = GaussianKdeEstimator()
        bounds = [
            rejection_risk(REF_MODEL, u, float(t), est).bound
            for t in np.linspace(lo, hi, 15)
        ]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            rejection_risk(REF_MODEL, [], 0.5, GaussianKdeEstimator())

    @pytest.mark.parametrize("a, b", [(0.0, 0.1), (-0.3, 0.1)])
    def test_nonpositive_slope_rejected(self, a, b):
        # At a = -0.3 the predicted beta reaches 0.1 at u = 0, so a bound and
        # a risk of 0 inside the skip zone u <= 0.5 would be a false claim.
        model = LinearRejectionModel(a=a, b=b, mse=0.0, r2=0.0)
        u = np.linspace(0.0, 1.0, 21)
        for estimator in (GaussianKdeEstimator(), DiscretePmfEstimator(m=20)):
            with pytest.raises(ValueError, match="positive slope"):
                rejection_risk(model, u, 0.5, estimator)
