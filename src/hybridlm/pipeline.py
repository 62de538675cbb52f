"""Round-by-round orchestration of draft, skip, compress, transmit, verify.

One round: the device drafts a token and estimates its uncertainty; below
the threshold it keeps the draft and skips the uplink entirely, otherwise it
ships a (possibly truncated, quantized) vocabulary payload over the fading
channel and the server accepts or resamples. Latency per round is the device
compute time, plus - on transmitted rounds - the Shannon uplink time and the
server compute time.

For skipped rounds the simulator also evaluates the counterfactual server
verdict from the oracle's hidden distribution; this feeds the true-skip-rate
metric only and never influences decisions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import seeding
from .channel import (
    encode_round,
    payload_bits,
    quantize_vocab,
    round_latency,
    sample_snr,
    uplink_latency,
)
from .compression import (
    CompressedVocab,
    compress,
    reconstruct,
    select_k_offline,
    select_k_online,
)
from .config import PolicySpec, RunConfig
from .dist import ProbVec, TokenId, sample, softmax, sort_desc, tvd
from .heap import retain_heap
from .oracle import CalibrationSet, TraceExhausted, calibrate, is_eos, make_oracle, observe
from .parallel import fork_map
from .specdec import accepts, distorted_resample_dist, resample_dist, round_bias, verify_draft


VERDICTS = ("skipped", "accepted", "rejected")


@dataclass(frozen=True, kw_only=True)
class RoundRecord:
    """One round of a sequence; field order is the JSONL key order.

    Skipped and ``llm_only`` rounds leave the transmission fields at their
    defaults.
    """

    seq: int
    round: int
    u: float | None = None
    delta: int = 0
    k_used: int | None = None
    payload_bits: int = 0
    snr_linear: float | None = None
    tau_comm_s: float = 0.0
    verdict: str = "skipped"  # one of VERDICTS
    fallback_used: bool = False
    bias: float | None = None
    tvd_pq: float | None = None
    bound_at_selection: float | None = None
    token: int
    latency_s: float
    counterfactual_accept: bool | None = None
    eos: bool

    def __post_init__(self) -> None:
        for name in ("seq", "round", "token", "payload_bits", "tau_comm_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0, got {getattr(self, name)!r}")
        # Every round costs tau_slm or tau_llm, both > 0.
        if not self.latency_s > 0:
            raise ValueError(f"latency_s: must be > 0, got {self.latency_s!r}")
        if self.k_used is not None and self.k_used < 1:
            raise ValueError(f"k_used: must be >= 1, got {self.k_used!r}")
        if self.delta not in (0, 1):
            raise ValueError(f"delta: must be 0 or 1, got {self.delta!r}")
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict: must be one of {', '.join(VERDICTS)}, got {self.verdict!r}")

    def to_dict(self) -> dict:
        # Every field holds an immutable scalar, so no copy is needed.
        return {name: getattr(self, name) for name in RECORD_FIELDS}


RECORD_FIELDS = [f.name for f in fields(RoundRecord)]


@dataclass(frozen=True)
class SimReport:
    n_rounds: int
    tr: float
    tsr: float | None
    mean_bias: float | None
    mean_throughput_tokens_per_s: float
    mean_k: float | None
    mean_payload_bits: float
    acceptance_rate_given_tx: float | None
    # Rounds with tvd_pq > bound_at_selection; None when no round records a bound.
    bound_violations: int | None

    def to_dict(self) -> dict:
        return asdict(self)


def _should_transmit(
    policy: PolicySpec, u: float | None, seed: int, t: int
) -> bool:
    if policy.variant == "hlm":
        return True
    if policy.variant == "slm_only":
        return False
    if policy.variant == "rand_hlm":
        return seeding.round_rng(seed, t, seeding.SKIP).random() >= policy.skip_prob
    return u > policy.u_th


def resolve_k_star(cfg: RunConfig, calib: CalibrationSet | None) -> int | None:
    """Fixed compressed size for the offline policy, from the calibration table."""
    policy = cfg.policy
    if policy.variant != "cu_hlm_offline":
        return None
    if policy.k_star is not None:
        return policy.k_star
    vocab = cfg.oracle.vocab_size
    return select_k_offline(calib.utv_k_grid, calib.utv_values, policy.theta, vocab).k_star


def run_round(
    t: int,
    sequence: list[int],
    oracle_inst,
    cfg: RunConfig,
    calib: CalibrationSet | None,
    seq_index: int = 0,
    k_star: int | None = None,
    transcript: list[bytes] | None = None,
) -> RoundRecord:
    policy = cfg.policy
    seed = cfg.seed + seq_index
    if policy.variant == "llm_only":
        inputs = oracle_inst.next_round(sequence, t)
        token = sample(softmax(inputs.llm_logits), seeding.round_rng(seed, t, seeding.VERIFY))
        return RoundRecord(
            seq=seq_index,
            round=t,
            token=token,
            latency_s=cfg.latency.tau_llm_s,
            eos=is_eos(cfg.oracle, inputs.eos, token),
        )

    ucfg = cfg.uncertainty if policy.uses_uncertainty else None
    streams = (seeding.DRAFT, seeding.UNCERTAINTY)
    flagged, x, d, u, y = observe(oracle_inst, sequence, t, seed, streams, ucfg)
    x_d = float(x.probs[d])
    y_d = float(y.probs[d])

    if not _should_transmit(policy, u, seed, t):
        return RoundRecord(
            seq=seq_index,
            round=t,
            u=u,
            token=d,
            latency_s=cfg.latency.tau_slm_s,
            counterfactual_accept=accepts(
                x_d, y_d, seeding.round_rng(seed, t, seeding.COUNTERFACTUAL)
            ),
            eos=is_eos(cfg.oracle, flagged, d),
        )

    # Transmitted round: choose k, build the payload, cross the channel.
    c, bound_at_selection = _payload(x, d, u, cfg, calib, k_star)
    c_wire = quantize_vocab(c, cfg.b_prob) if cfg.quantize_wire else c
    if transcript is not None:
        transcript.append(encode_round(t, c_wire, cfg.b_prob))
    bits = payload_bits(c.n_transmitted, cfg.b_prob, cfg.oracle.vocab_size)
    snr = sample_snr(cfg.channel, seeding.round_rng(seed, t, seeding.CHANNEL))
    tau_comm = uplink_latency(bits, cfg.channel.bandwidth_hz, snr)

    q, fallback = distorted_resample_dist(reconstruct(c_wire), y)
    verdict = verify_draft(
        d, c_wire.draft_prob, y_d, q, seeding.round_rng(seed, t, seeding.VERIFY)
    )

    tvd_xy = tvd(x, y)
    r = resample_dist(x, y) if tvd_xy > 0.0 else None
    del x, y  # freed before tvd(r, q) allocates: the diagnostics hold three vectors
    tvd_pq = tvd(r, q) if r is not None else None

    token = verdict.token
    return RoundRecord(
        seq=seq_index,
        round=t,
        u=u,
        delta=1,
        k_used=c.k,
        payload_bits=bits,
        snr_linear=snr,
        tau_comm_s=tau_comm,
        verdict="accepted" if verdict.accepted else "rejected",
        fallback_used=fallback,
        bias=round_bias(tvd_xy, tvd_pq),
        tvd_pq=tvd_pq,
        bound_at_selection=bound_at_selection,
        token=token,
        latency_s=round_latency(cfg.latency, tau_comm),
        eos=is_eos(cfg.oracle, flagged, token),
    )


def _payload(
    x: ProbVec,
    d: TokenId,
    u: float | None,
    cfg: RunConfig,
    calib: CalibrationSet | None,
    k_star: int | None,
) -> tuple[CompressedVocab, float | None]:
    """A transmitted round's top-k payload, and the bound its k was selected on (online only).

    The sorted vector and its prefix sums live only in this call, so they
    are freed before the round's record diagnostics allocate.
    """
    policy = cfg.policy
    x_sorted = sort_desc(x)
    if policy.variant == "cu_hlm_online":
        sel = select_k_online(
            x_sorted, x_sorted.rank_of(d), u, calib.model, policy.theta, policy.eta
        )
        return compress(x_sorted, sel.k_star, d), sel.bound_value_at_k
    k = k_star if k_star is not None else cfg.oracle.vocab_size
    return compress(x_sorted, k, d), None


def calibrate_from_config(cfg: RunConfig, oracle_inst=None, workers: int = 1) -> CalibrationSet:
    """Calibrate as the config's ``calibration`` section says, in
    ``oracle.calibrate``'s fixed shards shared among ``workers`` processes.

    The calibration seed defaults to the run seed + 1, so calibration and
    simulation rounds draw from different streams. ``oracle_inst`` is
    ``calibrate``'s: the run's oracle, already made.
    """
    cal = cfg.calibration
    return calibrate(
        cfg.oracle,
        cal.n_rounds,
        cfg.uncertainty,
        seed=cal.seed if cal.seed is not None else cfg.seed + 1,
        delta_u_gate=cal.delta_u_gate,
        oracle_inst=oracle_inst,
        workers=workers,
    )


def needs_calibration(policy: PolicySpec) -> bool:
    """Whether the policy reads fitted statistics (online, or offline without k_star)."""
    return policy.variant == "cu_hlm_online" or (
        policy.variant == "cu_hlm_offline" and policy.k_star is None
    )


def ensure_calibration(
    cfg: RunConfig, calib: CalibrationSet | None, oracle_inst=None, workers: int = 1
) -> CalibrationSet | None:
    """Calibrate on the fly when the policy needs statistics it wasn't given.

    A given calibration that the policy reads must have been made at the
    config's vocabulary size: its table's grid ends at the size it was
    calibrated at. A calibration made here runs ``oracle_inst``, the
    run's oracle, when one is given, in up to ``workers`` processes.
    """
    if not needs_calibration(cfg.policy):
        return calib
    if calib is None:
        return calibrate_from_config(cfg, oracle_inst, workers)
    vocab = cfg.oracle.vocab_size
    calib_vocab = int(calib.utv_k_grid[-1])
    if calib_vocab != vocab:
        raise ValueError(
            f"calibration table was made at vocab_size {calib_vocab}, "
            f"the config has vocab_size {vocab}"
        )
    return calib


def run_sequence(
    cfg: RunConfig,
    oracle_inst,
    calib: CalibrationSet | None,
    k_star: int | None,
    seq_index: int = 0,
    transcript: list[bytes] | None = None,
) -> list[RoundRecord]:
    """One autoregressive sequence of at most r_max rounds, on inputs ``run_many`` resolved."""
    retain_heap()
    sequence: list[int] = []
    records: list[RoundRecord] = []
    for t in range(cfg.r_max):
        try:
            rec = run_round(t, sequence, oracle_inst, cfg, calib, seq_index, k_star, transcript)
        except TraceExhausted:
            break
        records.append(rec)
        sequence.append(rec.token)
        if rec.eos:
            break
    return records


def run_many(
    cfg: RunConfig,
    calib: CalibrationSet | None = None,
    transcript: list[bytes] | None = None,
    oracle_inst=None,
    workers: int = 1,
) -> tuple[SimReport, list[RoundRecord]]:
    """All configured sequences plus the aggregate report.

    The run's oracle (``oracle_inst``, or one made here), calibration and
    offline k* are resolved here, once, so a trace is parsed once. The
    sequences, and the shards of an on-the-fly calibration, are shared
    among ``workers`` processes by ``fork_map``; each sequence is keyed by
    its own index, so the records and transcript are the same for any
    number of workers.
    """
    oracle_inst = make_oracle(cfg.oracle) if oracle_inst is None else oracle_inst
    calib = ensure_calibration(cfg, calib, oracle_inst, workers)
    k_star = resolve_k_star(cfg, calib)

    def one(i: int) -> tuple[list[RoundRecord], list[bytes] | None]:
        part = None if transcript is None else []
        return run_sequence(cfg, oracle_inst, calib, k_star, i, part), part

    records: list[RoundRecord] = []
    for seq_records, part in fork_map(one, range(cfg.n_sequences), workers):
        records.extend(seq_records)
        if part is not None:
            transcript.extend(part)
    return metrics(records), records


def metrics(records: list[RoundRecord]) -> SimReport:
    """Aggregate a record stream into the summary report."""
    if not records:
        raise ValueError("no records to aggregate")
    n = len(records)
    deltas = np.array([r.delta for r in records])
    tr = float(deltas.mean())
    cf = [r.counterfactual_accept for r in records if r.delta == 0 and r.counterfactual_accept is not None]
    tsr = float(np.mean(cf)) if cf else None
    biases = [r.bias for r in records if r.bias is not None]
    mean_bias = float(np.mean(biases)) if biases else None
    total_latency = float(sum(r.latency_s for r in records))
    ks = [r.k_used for r in records if r.k_used is not None]
    mean_k = float(np.mean(ks)) if ks else None
    mean_payload = float(np.mean([r.payload_bits for r in records]))
    tx = [r for r in records if r.delta == 1]
    acc = (
        float(np.mean([1.0 if r.verdict == "accepted" else 0.0 for r in tx]))
        if tx
        else None
    )
    bounded = [r for r in records if r.bound_at_selection is not None]
    violations = sum(r.tvd_pq is not None and r.tvd_pq > r.bound_at_selection for r in bounded)
    return SimReport(
        n_rounds=n,
        tr=tr,
        tsr=tsr,
        mean_bias=mean_bias,
        mean_throughput_tokens_per_s=n / total_latency,
        mean_k=mean_k,
        mean_payload_bits=mean_payload,
        acceptance_rate_given_tx=acc,
        bound_violations=violations if bounded else None,
    )
