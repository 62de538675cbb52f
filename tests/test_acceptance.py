"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Tolerances are pinned here, not tuned at runtime.
"""

import json

import numpy as np
import pytest

from hybridlm.channel import (
    ChannelSpec,
    LatencySpec,
    payload_bits,
    round_latency,
    sample_snr,
    uplink_latency,
)
from hybridlm.cli import main
from hybridlm.compression import select_k_online, utv_bound
from hybridlm.config import PolicySpec, RunConfig
from hybridlm.dist import ProbVec, sample, sort_desc, tvd
from hybridlm.oracle import OracleSpec, calibrate
from hybridlm.pipeline import run_many
from hybridlm.specdec import resample_dist, verify
from hybridlm.uncertainty import LinearRejectionModel, UncertaintyConfig, thresholds
from hybridlm.verification import (
    SuiteResult,
    check_online_bound_dominance,
    check_risk_bound,
    check_tvd_bound_dominance,
    check_unbiasedness,
    correlated_pair,
)

REF_MODEL = LinearRejectionModel(a=0.815, b=-0.066, mse=0.0, r2=1.0)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def suite(res: SuiteResult, n_cases: int) -> None:
    """Print a verification suite's line; it must pass over exactly n_cases cases."""
    print(res.line())
    assert res.passed and res.n_cases == n_cases, res.line()


def test_criterion_01_exact_unbiasedness():
    # 1000 Dirichlet pairs at each of |V| = 2, 8, 64; the margin is 1e-10 minus
    # the worst elementwise deviation of the output law from the server law.
    res = check_unbiasedness(1000, seed=101)
    suite(res, 3000)
    print(f"worst elementwise deviation {1e-10 - res.worst_margin:.3e}")


def test_criterion_02_monte_carlo_unbiasedness():
    gen = np.random.default_rng(202)
    x = ProbVec(gen.dirichlet(np.ones(8)))
    y = ProbVec(gen.dirichlet(np.ones(8)))
    p = resample_dist(x, y)
    rng = np.random.default_rng(203)
    counts = np.zeros(8)
    rounds = 100_000
    for _ in range(rounds):
        d = sample(x, rng)
        counts[verify(d, x, y, p, rng).token] += 1
    dist = tvd(ProbVec(counts / rounds), y)
    report(
        "criterion 2 Monte Carlo unbiasedness",
        dist < 0.02,
        f"{rounds} verify rounds, empirical-output TVD to server law {dist:.4f} (tol 0.02)",
    )


def test_criterion_03_exact_bound_dominance():
    suite(check_tvd_bound_dominance(1000, seed=303), 3000)
    # Bound vanishes identically with nothing truncated.
    x, y = correlated_pair(np.random.default_rng(303), 64)
    s = sort_desc(x)
    bound_at_full = float(utv_bound(s, s.rank_of(int(np.argmax(x.probs))), 64, tvd(x, y)))
    report(
        "criterion 3 exact-denominator bound at k=|V|",
        bound_at_full <= 1e-12,
        f"bound at k=|V| {bound_at_full:.3e} (tol 1e-12)",
    )


def test_criterion_04_online_bound_strict_dominance_and_softplus_error():
    # eta in (5, 10, 50): strict dominance, and softplus error within ln2/eta.
    suite(check_online_bound_dominance(1000, seed=404), 3000)


def test_criterion_05_threshold_constants():
    pair = thresholds(REF_MODEL, delta=0.5956)
    ok = abs(pair.risk_averse - 0.0810) < 1e-4 and abs(pair.risk_prone - 0.8117) < 1e-4
    report(
        "criterion 5 threshold constants",
        ok,
        f"risk_averse {pair.risk_averse:.5f} (want 0.0810 +/- 1e-4), "
        f"risk_prone {pair.risk_prone:.5f} (want 0.8117 +/- 1e-4)",
    )


def test_criterion_06_risk_bound_both_estimators():
    # A 20-point threshold grid for each of the two density estimators.
    suite(check_risk_bound(seed=606), 40)


def test_criterion_07_payload_constant():
    bits = payload_bits(32_000, 8, 32_000)
    report(
        "criterion 7 payload constant",
        bits == 736_000 and bits // 8 == 92_000,
        f"full-vocabulary payload {bits} bits = {bits // 8} bytes (want 736000 bits = 92 kB)",
    )


def test_criterion_08_throughput_formula_and_fading_direction():
    lat = LatencySpec(tau_slm_s=25.6e-3, tau_llm_s=104.6e-3)
    bits = 736_000
    fixed_tp = 1.0 / round_latency(lat, uplink_latency(bits, 10e6, 10.0))
    spec = ChannelSpec(fading="rayleigh", mean_snr_db=10.0)
    rng = np.random.default_rng(808)
    tps = np.empty(100_000)
    for i in range(tps.size):
        tps[i] = 1.0 / round_latency(lat, uplink_latency(bits, 10e6, sample_snr(spec, rng)))
    fading_mean = float(tps.mean())
    ok = abs(fixed_tp - 6.60) < 0.01 and fading_mean < fixed_tp
    report(
        "criterion 8 throughput formula + fading direction",
        ok,
        f"fixed 10 dB {fixed_tp:.4f} tok/s (want 6.60 +/- 0.01); "
        f"Rayleigh mean over 1e5 rounds {fading_mean:.4f} < fixed value",
    )


def test_criterion_09_policy_monotonicity():
    # TR sweep on the coupled configuration: zero divergence plus unquantized
    # wire means every transmitted draft is accepted, so the trajectory is
    # threshold-invariant and per-seed monotonicity is exact.
    oracle = OracleSpec(
        kind="synthetic", vocab_size=128, zipf_s=4.0, divergence=0.0, seed=21
    )
    grid = np.linspace(0.0, 1.0, 10)
    per_seed_ok = True
    for seed in range(10):
        trs = []
        for u_th in grid:
            cfg = RunConfig(
                oracle=oracle,
                policy=PolicySpec(variant="u_hlm", u_th=float(u_th)),
                channel=ChannelSpec(fading="fixed", mean_snr_db=10.0),
                uncertainty=UncertaintyConfig(m=10),
                r_max=64,
                seed=900 + seed,
                quantize_wire=False,
            )
            rep, _ = run_many(cfg)
            trs.append(rep.tr)
        if not all(b <= a + 1e-12 for a, b in zip(trs, trs[1:])):
            per_seed_ok = False

    # Online k* staircase: non-decreasing in u for fixed x and theta.
    rng = np.random.default_rng(909)
    x = ProbVec(rng.dirichlet(np.full(512, 0.2)) + 1e-12)
    s = sort_desc(x)
    ks = [
        select_k_online(s, 0, float(u), REF_MODEL, 0.05, 10.0).k_star
        for u in np.linspace(0.0, 1.0, 25)
    ]
    staircase_ok = all(b >= a for a, b in zip(ks, ks[1:]))
    report(
        "criterion 9 policy monotonicity",
        per_seed_ok and staircase_ok,
        f"TR non-increasing per seed over 10 seeds x 10 thresholds: {per_seed_ok}; "
        f"online k* staircase non-decreasing in u: {staircase_ok} "
        f"(k from {ks[0]} to {ks[-1]})",
    )


@pytest.fixture(scope="module")
def ordering_setup():
    oracle = OracleSpec(
        kind="synthetic", vocab_size=1024, zipf_s=4.0, divergence=1.0, seed=42
    )
    cal = calibrate(oracle, 1000, UncertaintyConfig(), seed=4242)
    channel = ChannelSpec(fading="rayleigh", mean_snr_db=-10.0)
    return oracle, cal, channel


def test_criterion_10_end_to_end_ordering_and_bound_chain(ordering_setup):
    # The per-round chain verifies the truncation bounds, whose scope excludes
    # wire quantization (the draft entry's exact value is assumed delivered),
    # so these runs use the unquantized-wire switch. Payload accounting and
    # the throughput ordering are unaffected by the switch.
    oracle, cal, channel = ordering_setup
    theta = 0.1
    policies = {
        "hlm": PolicySpec(variant="hlm"),
        "u_hlm": PolicySpec(variant="u_hlm", u_th=0.8),
        "cu_online": PolicySpec(variant="cu_hlm_online", u_th=0.8, theta=theta),
    }
    tps = {}
    chain_total = 0
    chain_violations = 0
    for name, policy in policies.items():
        per_seed = []
        for seed in range(8):
            cfg = RunConfig(
                oracle=oracle,
                policy=policy,
                channel=channel,
                r_max=96,
                seed=7000 + seed,
                quantize_wire=False,
            )
            rep, recs = run_many(cfg, calib=cal)
            per_seed.append(rep.mean_throughput_tokens_per_s)
            if name == "cu_online":
                for r in recs:
                    if r.delta == 1 and not r.fallback_used and r.tvd_pq is not None:
                        chain_total += 1
                        if not (
                            r.tvd_pq <= r.bound_at_selection + 1e-12
                            and r.bound_at_selection <= theta + 1e-12
                        ):
                            chain_violations += 1
        tps[name] = float(np.mean(per_seed))
    ordering_ok = tps["cu_online"] > tps["u_hlm"] > tps["hlm"]
    chain_ok = chain_total > 0 and chain_violations == 0
    report(
        "criterion 10 end-to-end ordering + bound chain",
        ordering_ok and chain_ok,
        f"mean throughput tok/s: cu_online {tps['cu_online']:.2f} > "
        f"u_hlm {tps['u_hlm']:.2f} > hlm {tps['hlm']:.2f}; "
        f"per-round chain tvd<=bound<=theta held on {chain_total - chain_violations}"
        f"/{chain_total} transmitted non-fallback rounds",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "oracle": {
            "kind": "synthetic", "vocab_size": 256, "zipf_s": 4.0,
            "divergence": 1.0, "seed": 42,
        },
        "policy": {"variant": "cu_hlm_online", "u_th": 0.6, "theta": 0.1},
        "channel": {"fading": "rayleigh", "mean_snr_db": -10.0},
        "uncertainty": {"m": 10},
        "calibration": {"n_rounds": 200},
        "r_max": 40,
        "seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append((out / "records.jsonl").read_bytes())
    report(
        "criterion 11 determinism",
        outs[0] == outs[1],
        f"two identical-seed runs produced byte-identical record streams "
        f"({len(outs[0])} bytes)",
    )
