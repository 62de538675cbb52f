"""One measuring process of the benchmark; ``run.py`` starts it.

Usage: python bench/child.py SPEC_JSON

``timed`` mode repeats the command's set-up (imports, ``load_config``,
``load_calibration``, oracle construction), runs an untimed warm-up, then
times one call of the work function with the command's own arguments.
``traced`` mode runs the command in process through ``cli.main``, alternating
untraced runs with runs traced by ``spans.Tracer``, and derives the per-layer
metrics from the traced runs' spans. The last stdout line is a JSON object.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import platform
import sys
import time
from pathlib import Path

import spans


def _calib_seed(cfg) -> int:
    # The command's rule: the calibration seed defaults to run seed + 1.
    return cfg.calibration.seed if cfg.calibration.seed is not None else cfg.seed + 1


def _items(workload: str, result) -> int:
    return len(result.rows) if workload == "calibrate" else len(result[1])


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def timed(spec: dict) -> dict:
    import hybridlm.cli as cli
    from hybridlm import oracle, pipeline

    workload = spec["workload"]
    cfg = dataclasses.replace(cli.load_config(spec["config"]), seed=spec["seed"])
    calib = cli.load_calibration(Path(spec["calib"])) if spec.get("calib") else None
    oracle.make_oracle(cfg.oracle)
    t_ready = time.perf_counter()

    if workload == "calibrate":
        def work(n_rounds):
            return oracle.calibrate(
                cfg.oracle,
                n_rounds,
                cfg.uncertainty,
                seed=_calib_seed(cfg),
                delta_u_gate=cfg.calibration.delta_u_gate,
            )

        try:
            work(8)
        except ValueError:
            pass  # so short a warm-up can draw identical u values; its fit is unused
        run = lambda: work(spec["rounds"])  # noqa: E731
    else:
        small = dataclasses.replace(cfg, r_max=2, n_sequences=1)
        pipeline.run_many(small, calib=calib, transcript=[])
        run = lambda: pipeline.run_many(cfg, calib=calib, transcript=[])  # noqa: E731

    t0 = time.perf_counter()
    result = run()
    t1 = time.perf_counter()
    return {
        "t_ready": t_ready,
        "items": _items(workload, result),
        "seconds": t1 - t0,
        "provenance": provenance(),
    }


def traced(spec: dict) -> dict:
    t0 = time.perf_counter()
    import hybridlm.cli as cli

    import_s = time.perf_counter() - t0
    workload = spec["workload"]
    root = spans.ROOT[workload]
    tracer = spans.Tracer(root)
    runs = {"untraced": [0, 0.0], "traced": [0, 0.0]}  # items, seconds
    outputs = []
    deadline = time.perf_counter() + spec["seconds"]
    # The first untraced run is a warm-up; after it, runs alternate until the
    # time is spent, with at least one of each kind measured.
    schedule = ["warmup", "traced", "untraced"]
    i = 0
    while i < len(schedule) or time.perf_counter() < deadline:
        kind = schedule[i] if i < len(schedule) else ("untraced", "traced")[i % 2]
        out_dir = Path(spec["work"]) / f"trace-{i}"
        tracer.install(list(spans.TRACED) if kind == "traced" else [root])
        n_spans = len(tracer.spans)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(spec["argv"] + ["--out", str(out_dir)])
        finally:
            tracer.uninstall()
        seconds = sum(s[2] - s[1] for s in tracer.spans[n_spans:] if s[0] == root)
        if kind != "traced":
            del tracer.spans[n_spans:]  # keep only traced runs' spans
        result = tracer.results.pop()
        if kind != "warmup":
            runs[kind][0] += _items(workload, result)
            runs[kind][1] += seconds
        outputs.append({"exit": code, "stderr": err.getvalue(), "out": str(out_dir)})
        i += 1

    stats = spans.SpanStats(tracer.spans, root)
    rate = {k: n / s for k, (n, s) in runs.items()}
    metrics = layer_metrics(stats, workload, runs["traced"][0])
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead"] = (rate["traced"] / rate["untraced"], "ratio")
    return {"metrics": metrics, "outputs": outputs, "provenance": provenance()}


def layer_metrics(st: "spans.SpanStats", workload: str, items: int) -> dict:
    """Per-layer metrics from traced spans; 0 where a layer did not run."""
    pct = spans.percentile
    ms = lambda name, q, tag=None: pct(st.durations(name, tag), q) * 1e3  # noqa: E731
    per_item = lambda name: st.count(name) / items if items else 0.0  # noqa: E731
    cmd = [s for s in st.spans if s[0] == spans.COMMAND[workload]]
    roots = [s for s in st.spans if s[0] == spans.ROOT[workload]]
    write_s = [c[2] - r[2] for c, r in zip(cmd, roots)]
    frames = spans.FRAMES[workload]
    m = {
        "uncertainty.estimate_u.ms_p50": (ms("uncertainty.estimate_u", 50), "ms"),
        "uncertainty.estimate_u.ms_p99": (ms("uncertainty.estimate_u", 99), "ms"),
        "uncertainty.estimate_u.share": (st.share("uncertainty.estimate_u"), "ratio"),
        "dist.sort_desc.ms_p50": (ms("dist.sort_desc", 50), "ms"),
        "dist.sort_desc.share": (st.share("dist.sort_desc"), "ratio"),
        "dist.softmax.calls_per_item": (per_item("dist.softmax"), "calls/item"),
        "dist.softmax.self_share": (st.share("dist.softmax"), "ratio"),
        "dist.sample.calls_per_item": (per_item("dist.sample"), "calls/item"),
        "oracle.next_round.ms_p50": (ms("oracle.next_round", 50), "ms"),
        "oracle.next_round.ms_p99": (ms("oracle.next_round", 99), "ms"),
        "oracle.next_round.share": (st.share("oracle.next_round"), "ratio"),
        "seeding.round_rng.calls_per_item": (per_item("seeding.round_rng"), "calls/item"),
        "seeding.round_rng.us_p50": (ms("seeding.round_rng", 50) * 1e3, "us"),
        "seeding.sequence_fingerprint.us_p50": (
            ms("seeding.sequence_fingerprint", 50) * 1e3,
            "us",
        ),
        "compression.tail_gap_after_fill.calls_per_item": (
            per_item("compression.tail_gap_after_fill"),
            "calls/item",
        ),
        "compression.tail_gap_after_fill.share": (
            st.share("compression.tail_gap_after_fill"),
            "ratio",
        ),
        "compression.select_k_online.ms_p50": (ms("compression.select_k_online", 50), "ms"),
        "compression.select_k_online.ms_p99": (ms("compression.select_k_online", 99), "ms"),
        "compression.select_k_online.probes_per_call": (
            st.children_per_call(
                "compression.select_k_online", "compression.tail_gap_after_fill"
            ),
            "probes/call",
        ),
        "compression.compress.ms_p50": (ms("compression.compress", 50), "ms"),
        "compression.reconstruct.ms_p50": (ms("compression.reconstruct", 50), "ms"),
        "channel.quantize_vocab.ms_p50": (ms("channel.quantize_vocab", 50), "ms"),
        "channel.encode_round.ms_p50": (ms("channel.encode_round", 50), "ms"),
        "specdec.verify_draft.ms_p50": (ms("specdec.verify_draft", 50), "ms"),
        "specdec.distorted_resample_dist.ms_p50": (
            ms("specdec.distorted_resample_dist", 50),
            "ms",
        ),
        "specdec.round_bias.ms_p50": (ms("specdec.round_bias", 50), "ms"),
        "specdec.resample_dist.ms_p50": (ms("specdec.resample_dist", 50), "ms"),
        "pipeline.run_round.tx.ms_p50": (ms("pipeline.run_round", 50, "tx"), "ms"),
        "pipeline.run_round.tx.ms_p99": (ms("pipeline.run_round", 99, "tx"), "ms"),
        "pipeline.run_round.skip.ms_p50": (ms("pipeline.run_round", 50, "skip"), "ms"),
        "pipeline.run_round.self_share": (st.share("pipeline.run_round"), "ratio"),
        "uncertainty.fit_linear.ms": (ms("uncertainty.fit_linear", 50), "ms"),
        "cli.load_config.ms": (ms("cli.load_config", 50), "ms"),
        "cli.load_calibration.ms": (ms("cli.load_calibration", 50), "ms"),
        "cli.output_write_s": (pct(write_s, 50), "s"),
        "trace.coverage": (1.0 - st.share(*frames), "ratio"),
    }
    return m


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = timed(spec) if spec["mode"] == "timed" else traced(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
