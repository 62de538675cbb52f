"""Distribution sources standing in for the device and server models.

A round is keyed by the sequence so far and the round index t. The synthetic
oracle produces correlated long-tailed logit pairs: a shared Zipf-shaped
base (under a context-keyed rank permutation) plus independent per-model
noise scaled by a divergence knob. A trace oracle's round t is line t of
logit pairs dumped from real models as JSONL. Calibration runs the oracle with
full knowledge of both sides to fit the uncertainty-rejection line, estimate
the non-deterministic-acceptance rate, and tabulate the expected compression
bound per candidate k.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import seeding
from .compression import default_k_grid, utv_bound
from .dist import ProbVec, TokenId, check_logits, sample, softmax, sort_desc, tvd
from .heap import retain_heap
from .parallel import fork_map
from .specdec import rejection_prob, resample_dist, verify
from .uncertainty import (
    LinearRejectionModel,
    UncertaintyConfig,
    estimate_delta,
    estimate_u,
    fit_linear,
)

EOS_TOKEN = 0

# The number of shards a calibration is split into. It is fixed, not the
# host's core count, so the calibration files never depend on the host.
CALIBRATION_SEQUENCES = 8


class TraceExhausted(Exception):
    """Raised when a round is asked past the end of a trace."""


@dataclass(frozen=True)
class OracleSpec:
    kind: str = "synthetic"  # "synthetic" or "trace"
    vocab_size: int = 32_000
    zipf_s: float = 4.0
    divergence: float = 1.0
    eos_prob: float = 0.0
    trace_path: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "trace"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if self.vocab_size < 2:
            raise ValueError("vocabulary size must be >= 2")
        if self.vocab_size > 2**32:
            # seeding.sequence_fingerprint packs token ids as uint32.
            raise ValueError("vocabulary size must be <= 2**32")
        if self.seed < 0:
            raise ValueError("oracle.seed must be >= 0")
        if self.kind == "synthetic":
            if not self.zipf_s > 0.0:
                raise ValueError("zipf_s must be positive")
            if not math.isfinite(self.divergence) or self.divergence < 0.0:
                raise ValueError("divergence must be finite and non-negative")
            if not 0.0 <= self.eos_prob < 1.0:
                raise ValueError("eos_prob must be in [0, 1)")
        elif self.trace_path is None:
            raise ValueError("trace oracle requires a path")


@dataclass(frozen=True)
class RoundInputs:
    slm_logits: np.ndarray
    llm_logits: np.ndarray
    eos: bool = False


class SyntheticOracle:
    """Deterministic logit-pair generator keyed by (seed, sequence so far);
    the round index is ignored.

    It holds only its spec: each round builds its own Zipf base, so no
    vocabulary-sized array lives between rounds or travels in a pickle.
    """

    def __init__(self, spec: OracleSpec):
        self.spec = spec

    def next_round(self, sequence: list[int], t: int) -> RoundInputs:
        spec = self.spec
        v = spec.vocab_size
        fp = seeding.sequence_fingerprint(sequence)
        perm = seeding.context_rng(spec.seed, fp, seeding.ORACLE_PERM).permutation(v)
        # The rank-ordered base -s·log(r), r = 1..V, built in place, then
        # scattered by the permutation; both are freed before the noise draws.
        ranked = np.arange(1.0, v + 1.0)
        np.log(ranked, out=ranked)
        ranked *= -spec.zipf_s
        base = np.empty(v)
        base[perm] = ranked
        del perm, ranked
        # Each model's noise, scaled and shifted by base in place; multiplying
        # by a divergence of 1.0 would change no float, so it is skipped.
        slm = seeding.context_rng(spec.seed, fp, seeding.ORACLE_NOISE_SLM).standard_normal(v)
        llm = seeding.context_rng(spec.seed, fp, seeding.ORACLE_NOISE_LLM).standard_normal(v)
        if spec.divergence != 1.0:
            slm *= spec.divergence
            llm *= spec.divergence
        slm += base
        llm += base
        if spec.eos_prob > 0.0:
            slm = self._inject_eos(slm)
            llm = self._inject_eos(llm)
        return RoundInputs(slm_logits=slm, llm_logits=llm)

    def _inject_eos(self, logits: np.ndarray) -> np.ndarray:
        # Mix a point mass at the EOS token into the softmax output, then
        # return to logit space so downstream softmax recovers the mixture.
        eps = self.spec.eos_prob
        x = softmax(logits).probs.copy()
        x *= 1.0 - eps
        x[EOS_TOKEN] += eps
        under = x == 0.0
        if not under.any():
            return np.log(x)
        # A mixture entry that underflowed to 0 takes its log-space value,
        # log(1 - eps) + log softmax(z), instead of log 0 = -inf.
        with np.errstate(divide="ignore"):
            out = np.log(x)
        w = logits - logits.max()
        out[under] = math.log(1.0 - eps) + w[under] - math.log(np.exp(w).sum())
        return out


class TraceOracle:
    """Recorded logit pairs: round t is line t of the trace, whatever the sequence."""

    def __init__(self, spec: OracleSpec):
        self.spec = spec
        self._records = read_trace(spec.trace_path)
        trace_vocab = self._records[0].slm_logits.size
        if trace_vocab != spec.vocab_size:
            raise ValueError(
                f"trace vocabulary size {trace_vocab} does not match the "
                f"configured {spec.vocab_size}; payload widths would be wrong"
            )

    def next_round(self, sequence: list[int], t: int) -> RoundInputs:
        if t >= len(self._records):
            raise TraceExhausted(f"trace ended after {len(self._records)} rounds")
        return self._records[t]


def is_eos(spec: OracleSpec, flagged: bool, token: int) -> bool:
    """Whether ``token`` ends the sequence: on a trace the round's own flag
    (``RoundInputs.eos``), else whether it is the synthetic EOS token."""
    if spec.kind == "trace":
        return flagged
    return spec.eos_prob > 0.0 and token == EOS_TOKEN


def observe(
    oracle, sequence: list[int], t: int, seed: int, streams: tuple[int, int], ucfg
) -> tuple[bool, ProbVec, TokenId, float | None, ProbVec]:
    """Round t as both sides see it: the trace's EOS flag, the device's x and
    its draft d, d's uncertainty u (None when ``ucfg`` is None) and the
    server's y. d and u draw from the round stream ids ``streams``, (DRAFT,
    UNCERTAINTY) or their CALIBRATION_ twins. y is made after ``estimate_u``,
    and the logits are freed on return, before the caller allocates.
    """
    inputs = oracle.next_round(sequence, t)
    x = softmax(inputs.slm_logits)
    d = sample(x, seeding.round_rng(seed, t, streams[0]))
    u = None
    if ucfg is not None:
        u = estimate_u(inputs.slm_logits, d, ucfg, seeding.round_rng(seed, t, streams[1]))
    return inputs.eos, x, d, u, softmax(inputs.llm_logits)


def make_oracle(spec: OracleSpec):
    if spec.kind == "synthetic":
        return SyntheticOracle(spec)
    return TraceOracle(spec)


def read_trace(path: str | Path) -> list[RoundInputs]:
    """The trace's rounds, each logit vector held as the float64 array
    ``check_logits`` makes of it."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as e:
                raise ValueError(f"trace {path} line {lineno}: {e}") from None
            if not isinstance(rec, dict) or not {"slm_logits", "llm_logits"} <= rec.keys():
                raise ValueError(
                    f"trace {path} line {lineno}: expected an object with slm_logits and llm_logits"
                )
            for key in ("slm_logits", "llm_logits"):
                try:
                    rec[key] = check_logits(rec[key])
                except (TypeError, ValueError) as e:
                    raise ValueError(f"trace {path} line {lineno}: {key}: {e}") from None
            eos = rec.get("eos", False)
            if not isinstance(eos, bool):
                raise ValueError(f"trace {path} line {lineno}: eos: expected true or false")
            records.append(RoundInputs(rec["slm_logits"], rec["llm_logits"], eos))
    if not records:
        raise ValueError(f"trace {path} contains no records")
    if len({n for r in records for n in (r.slm_logits.size, r.llm_logits.size)}) != 1:
        raise ValueError("trace records disagree on vocabulary size")
    return records


# The calibration directory's two CSV tables, each declared by its record
# dtype: one PAIRS record per round, one TABLE record per candidate k.
PAIRS = np.dtype([("u", "f8"), ("beta", "f8"), ("x_d", "f8"), ("y_d", "f8")])
TABLE = np.dtype([("k", "i8"), ("mean_utv", "f8")])
PAIRS_FILE, TABLE_FILE, MODEL_FILE = "calibration_pairs.csv", "utv_table.csv", "model.json"


@dataclass(frozen=True)
class CalibrationSet:
    """Fitted statistics a simulation run needs before deploying skip/compress policies."""

    rows: np.ndarray  # PAIRS records, one per calibration round
    delta_hat: float
    utv_k_grid: np.ndarray
    utv_values: np.ndarray
    model: LinearRejectionModel


def calibrate(
    spec: OracleSpec,
    n_rounds: int,
    ucfg: UncertaintyConfig,
    *,
    seed: int,
    delta_u_gate: float | None = None,
    oracle_inst: SyntheticOracle | TraceOracle | None = None,
    workers: int = 1,
) -> CalibrationSet:
    """Run the oracle with full two-sided knowledge and fit the policy inputs.

    Sequences advance by the exact (uncompressed) verification outcome.
    The rounds are split into S = ``CALIBRATION_SEQUENCES`` shards: shard
    i runs the global rounds [⌊n·i/S⌋, ⌊n·(i+1)/S⌋) as one sequence from the
    empty context, each round keyed by its global index. The shards are shared
    among ``workers`` processes by ``fork_map``; their rows are joined, and
    their bound vectors summed, in global round order, so the result is
    the same for any number of workers. A trace ignores the sequence, so
    its calibration is the same for any S too.

    ``delta_u_gate``, when set, estimates the non-deterministic-acceptance
    rate only over rounds with uncertainty above the gate. ``oracle_inst``,
    when given, is ``spec``'s oracle already made, so a trace is not parsed
    again.
    """
    retain_heap()
    if n_rounds < 2:
        raise ValueError("calibration needs at least two rounds")
    k_grid = default_k_grid(spec.vocab_size)
    oracle = make_oracle(spec) if oracle_inst is None else oracle_inst

    edges = [n_rounds * i // CALIBRATION_SEQUENCES for i in range(CALIBRATION_SEQUENCES + 1)]
    shards = [range(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]
    parts = fork_map(
        lambda rounds: _calibration_shard(oracle, rounds, ucfg, k_grid, seed), shards, workers
    )
    rows = [row for shard_rows, _ in parts for row in shard_rows]
    if len(rows) < 2:
        raise ValueError("calibration produced fewer than two usable rounds")
    utv_acc = np.zeros(k_grid.size)
    utv_count = 0
    for _, utvs in parts:
        for utv in utvs:
            utv_acc += utv
        utv_count += len(utvs)

    rows = np.array(rows, dtype=PAIRS)
    gated = rows if delta_u_gate is None else rows[rows["u"] > delta_u_gate]
    delta_hat = estimate_delta(gated["x_d"], gated["y_d"]) if gated.size else 0.0
    utv_values = utv_acc / utv_count if utv_count > 0 else np.full(k_grid.size, np.nan)
    return CalibrationSet(
        rows=rows,
        delta_hat=delta_hat,
        utv_k_grid=k_grid,
        utv_values=utv_values,
        model=fit_linear(rows["u"], rows["beta"]),
    )


def _calibration_shard(
    oracle: SyntheticOracle | TraceOracle,
    rounds: range,
    ucfg: UncertaintyConfig,
    k_grid: np.ndarray,
    seed: int,
) -> tuple[list[tuple[float, ...]], np.ndarray]:
    """One shard's ``PAIRS`` records and its rounds' bound vectors (one row each,
    for the rounds with x != y), in round order. A sequence that ends starts
    again from the empty context; a trace that ends ends the shard."""
    rows: list[tuple[float, ...]] = []
    utvs: list[np.ndarray] = []
    sequence: list[int] = []
    for t in rounds:
        try:
            row, utv, token, eos = _calibration_round(oracle, sequence, ucfg, k_grid, seed, t)
        except TraceExhausted:
            break
        rows.append(row)
        if utv is not None:
            utvs.append(utv)
        if eos:
            sequence = []
        else:
            sequence.append(token)
    return rows, np.array(utvs).reshape(len(utvs), k_grid.size)


def _calibration_round(
    oracle: SyntheticOracle | TraceOracle,
    sequence: list[int],
    ucfg: UncertaintyConfig,
    k_grid: np.ndarray,
    seed: int,
    t: int,
) -> tuple[tuple[float, ...], np.ndarray | None, int, bool]:
    """One calibration round: its ``PAIRS`` record, its exact bound at
    each k of ``k_grid`` (None when x = y), the token the sequence continues
    with, and whether that token ends the sequence.

    The round's vectors live only in this call, so they are freed before the
    next round's oracle draws; the sorted vector is made last, after the
    verdict's resampling distribution is freed.
    """
    streams = (seeding.CALIBRATION_DRAFT, seeding.CALIBRATION_UNCERTAINTY)
    flagged, x, d, u, y = observe(oracle, sequence, t, seed, streams, ucfg)
    x_d, y_d = float(x.probs[d]), float(y.probs[d])
    row = (u, rejection_prob(x_d, y_d), x_d, y_d)

    divergence_tvd = tvd(x, y)
    if not divergence_tvd > 0.0:
        return row, None, d, is_eos(oracle.spec, flagged, d)
    verify_rng = seeding.round_rng(seed, t, seeding.CALIBRATION_VERIFY)
    token = verify(d, x, y, lambda: resample_dist(x, y), verify_rng).token
    x_sorted = sort_desc(x)
    utv = utv_bound(x_sorted, x_sorted.rank_of(d), k_grid, divergence_tvd)
    return row, utv, token, is_eos(oracle.spec, flagged, token)


def csv_cell(v) -> str:
    """One cell of a calibration table or sweep row: empty for None, floats to
    9 significant digits, anything else as ``str``."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _save_table(path: Path, dtype: np.dtype, rows) -> None:
    """One CSV table: the dtype's field names, then one row of ``csv_cell`` cells
    per record of ``rows`` (anything ``np.asarray`` makes records of)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dtype.names)
        for row in np.asarray(rows, dtype=dtype).tolist():
            writer.writerow([csv_cell(v) for v in row])


def _load_table(path: Path, dtype: np.dtype) -> np.ndarray:
    """The records of a table written by ``_save_table``; a cell that does not
    convert to its field's type raises ValueError naming the file and field."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found, rows = next(reader, []), list(reader)
    if found != list(dtype.names):
        raise ValueError(f"{path.name}: unexpected header {found}")
    if any(len(row) != len(dtype.names) for row in rows):
        raise ValueError(f"{path.name}: every row needs {len(dtype.names)} values")
    table = np.empty(len(rows), dtype=dtype)
    for i, name in enumerate(dtype.names):
        try:
            table[name] = [row[i] for row in rows]
        except (ValueError, OverflowError) as e:  # OverflowError: an int beyond int64
            raise ValueError(f"{path.name}: {name}: {e}") from None
    return table


def save_calibration(out: Path, cal: CalibrationSet) -> None:
    """Write the pairs table, the bound table and the model under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    _save_table(out / PAIRS_FILE, PAIRS, cal.rows)
    _save_table(out / TABLE_FILE, TABLE, list(zip(cal.utv_k_grid.tolist(), cal.utv_values)))
    model = {**asdict(cal.model), "delta_hat": cal.delta_hat}
    with open(out / MODEL_FILE, "w") as fh:
        json.dump(model, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_calibration(path: Path) -> CalibrationSet:
    """Read the three files ``save_calibration`` writes under ``path``.

    Every pairs value is a u, a rejection probability or a probability, so
    it lies in [0, 1]. A mean bound is >= 0, or nan: ``calibrate`` writes
    nan when every round had x = y, and the offline selector then sends every
    entry.
    """
    with open(path / MODEL_FILE) as fh:
        try:
            m = json.load(fh)
        except ValueError as e:
            raise ValueError(f"{MODEL_FILE}: {e}") from None
    if not isinstance(m, dict):
        raise ValueError(f"{MODEL_FILE}: expected a JSON object")
    for name in (*(f.name for f in fields(LinearRejectionModel)), "delta_hat"):
        v = m.get(name)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{MODEL_FILE}: {name} must be a finite number, got {v!r}")
    table = _load_table(path / TABLE_FILE, TABLE)
    k_grid = table["k"]
    if not k_grid.size:  # its last k is the vocabulary size the calibration was made at
        raise ValueError(f"{TABLE_FILE}: no rows")
    if k_grid[0] < 1 or np.any(k_grid[1:] <= k_grid[:-1]):
        raise ValueError(f"{TABLE_FILE}: k must be strictly increasing integers >= 1")
    if np.any(table["mean_utv"] < 0.0):
        raise ValueError(f"{TABLE_FILE}: mean_utv must be >= 0 or nan")
    rows = _load_table(path / PAIRS_FILE, PAIRS)
    for name in PAIRS.names:
        if not np.all((rows[name] >= 0.0) & (rows[name] <= 1.0)):
            raise ValueError(f"{PAIRS_FILE}: {name} must be in [0, 1]")
    return CalibrationSet(
        rows=rows,
        delta_hat=m["delta_hat"],
        utv_k_grid=k_grid,
        utv_values=table["mean_utv"],
        model=LinearRejectionModel(**{f.name: m[f.name] for f in fields(LinearRejectionModel)}),
    )
