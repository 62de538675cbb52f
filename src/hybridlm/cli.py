"""Command-line front end: calibrate, simulate, sweep, verify, report.

Exit codes: 0 success, 1 configuration error, 2 verification failure,
3 I/O error. All outputs are reproducible for a fixed config and seed;
wall-clock timestamps appear only in sweep.csv's header line or a dedicated
``generated_at`` field (JSON), never in record streams.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .channel import check_transcript_payload
from .config import RunConfig, field_types, from_dict, load_config
from .oracle import CalibrationSet, csv_cell, load_calibration, make_oracle, save_calibration
from .parallel import fork_map, usable_cpus
from .pipeline import (
    RoundRecord,
    SimReport,
    calibrate_from_config,
    ensure_calibration,
    metrics,
    needs_calibration,
    run_many,
)

# Each axis's (config section, field); a value takes the field's annotated type.
SWEEP_AXES = {
    "snr_db": ("channel", "mean_snr_db"),
    "u_th": ("policy", "u_th"),
    "theta": ("policy", "theta"),
    "k": ("policy", "k_star"),
}

SWEEP_COLUMNS = ["fading", "axis", "value", *(f.name for f in dataclasses.fields(SimReport))]

class _Parser(argparse.ArgumentParser):
    # Usage mistakes are configuration errors (exit 1), not verification
    # failures (exit 2, argparse's default).
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_records(records: list[RoundRecord], path: Path) -> None:
    with open(path, "w") as fh:
        for r in records:
            fh.write(r.to_json() + "\n")


def _write_report(out: Path, report: SimReport, **sections) -> None:
    """``out/report.json``: the report, any further sections, and ``generated_at``."""
    doc = {"generated_at": _timestamp(), **sections, "report": report.to_dict()}
    with open(out / "report.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_records(path: Path) -> list[RoundRecord]:
    """A JSONL record stream; a malformed record raises ValueError naming its line."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path} line {lineno}: "
            try:
                values = json.loads(line)
            except ValueError as e:
                raise ValueError(f"{where}{e}") from None
            records.append(from_dict(RoundRecord, values, where))
    return records


def cmd_calibrate(args) -> int:
    cfg = _load(args)
    cal = calibrate_from_config(cfg, workers=usable_cpus())
    out = Path(args.out)
    save_calibration(out, cal)
    ran, asked = len(cal.rows), cfg.calibration.n_rounds
    ended = f" (the trace ended before the {asked} asked)" if ran < asked else ""
    print(
        f"calibrated {ran} rounds{ended}: a={cal.model.a:.4f} b={cal.model.b:.4f} "
        f"r2={cal.model.r2:.4f} delta={cal.delta_hat:.4f} -> {out}"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    if args.transcript:
        check_transcript_payload(cfg.b_prob, cfg.oracle.vocab_size)
    oracle_inst = make_oracle(cfg.oracle)
    calib = _calibration(args, cfg, oracle_inst)
    transcript: list[bytes] | None = [] if args.transcript else None
    report, records = run_many(cfg, calib, transcript, oracle_inst, workers=usable_cpus())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_records(records, out / "records.jsonl")
    _write_report(out, report, config=cfg.to_dict())
    if transcript is not None:
        with open(out / "transcript.bin", "wb") as fh:
            fh.write(b"".join(transcript))
    print(
        f"simulated {report.n_rounds} rounds: TR={report.tr:.3f} "
        f"throughput={report.mean_throughput_tokens_per_s:.2f} tok/s -> {out}"
    )
    return 0


def _sweep_config(cfg: RunConfig, fading: str, axis: str, value: str) -> RunConfig:
    """One grid point's config; a value or fading the config rejects raises ValueError."""
    section, field = SWEEP_AXES[axis]
    tp, _ = field_types(type(getattr(cfg, section)))[field]
    doc = cfg.to_dict()
    doc["channel"]["fading"] = fading
    doc[section][field] = tp(value)
    return RunConfig.from_dict(doc)


def _sweep_point(point, calib, oracle_inst) -> dict:
    cfg, fading, axis, value = point
    report, _ = run_many(cfg, calib=calib, oracle_inst=oracle_inst)
    row = {"fading": fading, "axis": axis, "value": value}
    row.update(report.to_dict())
    return row


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if args.axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {args.axis!r}")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("sweep needs at least one value")
    fadings = [f.strip() for f in (args.fading or cfg.channel.fading).split(",")]
    # Every grid point is built (and so validated) before calibration starts.
    points = [
        (_sweep_config(cfg, fading, args.axis, value), fading, args.axis, value)
        for fading in fadings
        for value in values
    ]
    oracle_inst = make_oracle(cfg.oracle)  # parses a trace once for the calibration and every point
    calib = _calibration(args, cfg, oracle_inst)
    # Forked workers inherit the calibration and the oracle; a point's
    # sequences run in its worker's process.
    rows = fork_map(lambda p: _sweep_point(p, calib, oracle_inst), points, usable_cpus())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    with open(path, "w", newline="") as fh:
        fh.write(f"# generated_at {_timestamp()}\n")
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([csv_cell(row[c]) for c in SWEEP_COLUMNS])
    print(f"swept {len(rows)} grid points -> {path}")
    return 0


def cmd_verify(args) -> int:
    # Imported here: no other command runs the suites.
    from .verification import run_all_suites

    results = run_all_suites(args.cases, seed=args.seed, bound_scale=args.debug_scale_bound)
    for res in results:
        print(res.line())
    if any(not r.passed for r in results):
        return 2
    return 0


def cmd_report(args) -> int:
    records = _read_records(Path(args.records))
    report = metrics(records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out, report)
    print(f"aggregated {report.n_rounds} rounds -> {out / 'report.json'}")
    return 0


def _calibration(args, cfg: RunConfig, oracle_inst) -> CalibrationSet | None:
    """The run's calibration, from ``ensure_calibration``: ``--calib``'s,
    checked against the config, or, for a policy that needs one, one made
    on the fly from ``oracle_inst`` on the usable CPUs, as said on stderr.
    """
    calib = load_calibration(Path(args.calib)) if args.calib else None
    if calib is None and needs_calibration(cfg.policy):
        print(
            f"calibrating {cfg.calibration.n_rounds} rounds on the fly; "
            "pass --calib with a `hybridlm calibrate` output to reuse one",
            file=sys.stderr,
        )
    return ensure_calibration(cfg, calib, oracle_inst, usable_cpus())


def _load(args) -> RunConfig:
    """``--config``'s run config with ``--seed`` and ``calibrate --rounds`` set
    as its ``seed`` and ``calibration.n_rounds`` keys, decoded as the file is."""
    doc = load_config(args.config).to_dict()
    if args.seed is not None:
        doc["seed"] = args.seed
    if getattr(args, "rounds", None) is not None:
        doc["calibration"]["n_rounds"] = args.rounds
    return RunConfig.from_dict(doc)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hybridlm",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override run seed")
        p.add_argument("--out", type=str, default="out", help="output directory")

    p = sub.add_parser("calibrate", help="fit the uncertainty-rejection line and bound table")
    common(p)
    p.add_argument("--rounds", type=int, default=None, help="calibration rounds")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="run sequences and write records + report")
    common(p)
    p.add_argument("--calib", type=str, default=None, help="calibration directory")
    p.add_argument(
        "--transcript", action="store_true", help="also write the byte-exact wire transcript"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "sweep",
        help="grid runs over one axis times fading kinds",
        description="CSV columns, in order: " + ",".join(SWEEP_COLUMNS),
    )
    common(p)
    p.add_argument("--axis", type=str, required=True, help=f"one of {tuple(SWEEP_AXES)}")
    p.add_argument("--values", type=str, required=True, help="comma-separated axis values")
    p.add_argument("--fading", type=str, default=None, help="comma-separated fading kinds")
    p.add_argument("--calib", type=str, default=None, help="calibration directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the analytic self-check suites")
    p.add_argument("--seed", type=int, default=0, help="suite seed")
    p.add_argument("--cases", type=int, default=1000, help="cases per suite")
    p.add_argument(
        "--debug-scale-bound",
        type=float,
        default=1.0,
        help=argparse.SUPPRESS,  # negative-control hook: deliberately scales bounds
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="aggregate a record stream into a report")
    p.add_argument("--out", type=str, default="out", help="output directory")
    p.add_argument("--records", type=str, required=True, help="records.jsonl")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        if e.code in (None, 0):
            return 0
        print(e, file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
