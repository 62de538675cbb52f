"""In-memory spans around calls into hybridlm's layers, and their self times.

The wrappers live here, in the benchmark, not in the library. Modules bind
functions with ``from .x import y``, so a wrapper is installed at every
module attribute that holds the original function object, not only at the
defining module; ``SyntheticOracle.next_round`` is patched on the class.
"""

from __future__ import annotations

import sys
import time

# Span name -> (module, attribute). A dotted attribute names a method patched
# on its class. Spans that no metric names still take their self time out of
# the orchestration frames, which is what trace.coverage measures.
TRACED = {
    "cli.cmd_calibrate": ("hybridlm.cli", "cmd_calibrate"),
    "cli.cmd_simulate": ("hybridlm.cli", "cmd_simulate"),
    "cli.load_config": ("hybridlm.config", "load_config"),
    "cli.load_calibration": ("hybridlm.cli", "load_calibration"),
    "oracle.calibrate": ("hybridlm.oracle", "calibrate"),
    "oracle.next_round": ("hybridlm.oracle", "SyntheticOracle.next_round"),
    "pipeline.run_many": ("hybridlm.pipeline", "run_many"),
    "pipeline.run_sequence": ("hybridlm.pipeline", "run_sequence"),
    "pipeline.run_round": ("hybridlm.pipeline", "run_round"),
    "pipeline.metrics": ("hybridlm.pipeline", "metrics"),
    "uncertainty.estimate_u": ("hybridlm.uncertainty", "estimate_u"),
    "uncertainty.fit_linear": ("hybridlm.uncertainty", "fit_linear"),
    "dist.softmax": ("hybridlm.dist", "softmax"),
    "dist.sample": ("hybridlm.dist", "sample"),
    "dist.sort_desc": ("hybridlm.dist", "sort_desc"),
    "dist.tvd": ("hybridlm.dist", "tvd"),
    "dist.rank_of": ("hybridlm.dist", "SortedProbVec.rank_of"),
    "seeding.round_rng": ("hybridlm.seeding", "round_rng"),
    "seeding.context_rng": ("hybridlm.seeding", "context_rng"),
    "seeding.sequence_fingerprint": ("hybridlm.seeding", "sequence_fingerprint"),
    "compression.tail_gap_after_fill": ("hybridlm.compression", "tail_gap_after_fill"),
    "compression.select_k_online": ("hybridlm.compression", "select_k_online"),
    "compression.compress": ("hybridlm.compression", "compress"),
    "compression.reconstruct": ("hybridlm.compression", "reconstruct"),
    "channel.quantize_vocab": ("hybridlm.channel", "quantize_vocab"),
    "channel.encode_round": ("hybridlm.channel", "encode_round"),
    "channel.sample_snr": ("hybridlm.channel", "sample_snr"),
    "specdec.verify_draft": ("hybridlm.specdec", "verify_draft"),
    "specdec.verify": ("hybridlm.specdec", "verify"),
    "specdec.rejection_prob": ("hybridlm.specdec", "rejection_prob"),
    "specdec.resample_dist": ("hybridlm.specdec", "resample_dist"),
    "specdec.distorted_resample_dist": ("hybridlm.specdec", "distorted_resample_dist"),
    "specdec.round_bias": ("hybridlm.specdec", "round_bias"),
}

# The call timed as each workload's work phase, and the orchestration spans
# whose own (self) time is not attributed to any layer.
ROOT = {
    "calibrate": "oracle.calibrate",
    "simulate-tx": "pipeline.run_many",
}
FRAMES = {
    "calibrate": ("oracle.calibrate",),
    "simulate-tx": ("pipeline.run_many", "pipeline.run_sequence", "pipeline.run_round"),
}
COMMAND = {
    "calibrate": "cli.cmd_calibrate",
    "simulate-tx": "cli.cmd_simulate",
}


def _tag(name, args, out):
    if name == "pipeline.run_round":
        return "tx" if out.delta == 1 else "skip"
    return None


def _resolve(module, attr):
    owner = sys.modules[module]
    *cls, fn_name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    return owner, fn_name


class Tracer:
    """Records (name, start, end, parent index, tag) spans in memory.

    ``install(names)`` wraps the named layers and ``uninstall()`` restores
    every patched attribute. Spans of a call that raised keep their timing.
    """

    def __init__(self, root: str):
        self.root = root
        self.spans: list = []
        self.results: list = []  # return values of the root spans
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                tag = _tag(name, args, out) if out is not None else None
                spans[idx] = (name, t0, t1, parent, tag)
                if name == self.root:
                    self.results.append(out)

        return traced

    def install(self, names) -> None:
        originals = {}
        for name in names:
            owner, attr = _resolve(*TRACED[name])
            fn = owner.__dict__[attr]
            originals[id(fn)] = (name, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, self._wrap(name, fn))
        # Every import site: any hybridlm module attribute bound to an original.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hybridlm" and not mod_name.startswith("hybridlm."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[1] is val:
                    self._patch(mod, attr, self._wrap(*hit))

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class SpanStats:
    """Durations, self times and phase membership of a span list."""

    def __init__(self, spans, root: str):
        n = len(spans)
        child = [0.0] * n
        in_phase = [False] * n
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                in_phase[i] = in_phase[parent]
            if name == root:
                in_phase[i] = True
        self.spans = spans
        self.self_time = [(s[2] - s[1]) - c for s, c in zip(spans, child)]
        self.in_phase = in_phase
        self.phase_s = sum(s[2] - s[1] for s in spans if s[0] == root)

    def durations(self, name, tag=None):
        return [
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and (tag is None or s[4] == tag)
        ]

    def count(self, name) -> int:
        """Calls inside the timed phase."""
        return sum(1 for s, p in zip(self.spans, self.in_phase) if p and s[0] == name)

    def share(self, *names) -> float:
        """Self time of the named spans over the timed phase."""
        if self.phase_s <= 0.0:
            return 0.0
        total = sum(
            st
            for s, st, p in zip(self.spans, self.self_time, self.in_phase)
            if p and s[0] in names
        )
        return total / self.phase_s

    def children_per_call(self, parent_name, child_name) -> float:
        calls = [i for i, s in enumerate(self.spans) if s[0] == parent_name]
        if not calls:
            return 0.0
        wanted = set(calls)
        kids = sum(1 for s in self.spans if s[0] == child_name and s[3] in wanted)
        return kids / len(calls)
