"""Tests for the analytic self-check suites."""

import pytest

from hybridlm import compression, verification
from hybridlm.verification import (
    check_online_bound_dominance,
    check_risk_bound,
    check_tvd_bound_dominance,
    check_unbiasedness,
    run_all_suites,
)


class TestSuites:
    def test_all_pass_untampered(self):
        for res in run_all_suites(60, seed=1):
            assert res.passed, res.line()
            assert res.n_cases > 0

    def test_tampered_bound_caught_by_dominance_suite(self):
        # The proof's triangle-inequality split makes tvd equal to half the
        # bound on tight instances, so a 0.5 scale only grazes equality;
        # 0.4 is decisively violated.
        res = check_tvd_bound_dominance(60, seed=2, bound_scale=0.4)
        assert not res.passed
        assert res.worst_margin < 0

    @pytest.mark.parametrize(
        "suite", [check_tvd_bound_dominance, check_online_bound_dominance], ids=["exact", "online"]
    )
    def test_numerator_ignoring_out_of_top_k_draft_caught(self, monkeypatch, suite):
        # Mutant closed form that always treats the draft as one of the top k,
        # installed wherever the suites reach the production numerator.
        original = compression.tail_gap_after_fill

        def mutant(x_sorted, k, draft_rank):
            return original(x_sorted, k, 0)

        monkeypatch.setattr(compression, "tail_gap_after_fill", mutant)
        monkeypatch.setattr(verification, "tail_gap_after_fill", mutant)
        res = suite(100, seed=7)
        assert not res.passed
        assert res.worst_margin < 0

    def test_halved_bound_caught_by_risk_suite(self):
        res = check_risk_bound(seed=3, bound_scale=0.5)
        assert not res.passed

    def test_unbiasedness_margin_positive(self):
        res = check_unbiasedness(50, seed=4)
        assert res.passed and res.worst_margin > 0

    def test_hybrid_law_returning_x_caught_by_unbiasedness_suite(self, monkeypatch):
        # With the closed form, the suite's own check is the token-by-token
        # law; a mutant hybrid_output_dist must not pass it.
        monkeypatch.setattr(verification, "hybrid_output_dist", lambda x, y, q: x)
        res = check_unbiasedness(50, seed=4)
        assert not res.passed
        assert res.worst_margin < 0

    def test_online_dominance_margins(self):
        res = check_online_bound_dominance(50, seed=5)
        assert res.passed

    def test_line_format(self):
        res = check_unbiasedness(5, seed=6)
        line = res.line()
        assert line.startswith("PASS unbiasedness:")
        assert "worst margin" in line

    def test_zero_cases_rejected(self):
        with pytest.raises(ValueError):
            run_all_suites(0)
