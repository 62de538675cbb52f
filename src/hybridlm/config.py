"""Run configuration: one JSON document covering every subsystem.

Field defaults follow the standard simulation constants: 10 MHz uplink,
8-bit probabilities, 512-round sequences, 20 perturbations over [0, 2],
25.6 ms / 104.6 ms compute latencies, a 32000-token vocabulary, skip
threshold 0.8, distortion tolerance 0.1, and softplus sharpness 10.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from .channel import (
    SNR_FLOOR,
    ChannelSpec,
    LatencySpec,
    payload_bits,
    round_latency,
    uplink_latency,
)
from .oracle import OracleSpec
from .uncertainty import UncertaintyConfig

POLICY_VARIANTS = (
    "llm_only",
    "slm_only",
    "hlm",
    "rand_hlm",
    "u_hlm",
    "cu_hlm_offline",
    "cu_hlm_online",
)

UNCERTAINTY_VARIANTS = ("u_hlm", "cu_hlm_offline", "cu_hlm_online")


@dataclass(frozen=True)
class PolicySpec:
    variant: str = "cu_hlm_online"
    u_th: float = 0.8
    skip_prob: float = 0.5
    k_star: int | None = None
    theta: float = 0.1
    eta: float = 10.0

    def __post_init__(self) -> None:
        if self.variant not in POLICY_VARIANTS:
            raise ValueError(f"unknown policy variant {self.variant!r}")
        if not 0.0 <= self.u_th <= 1.0:
            raise ValueError("u_th must be in [0, 1]")
        if not 0.0 <= self.skip_prob <= 1.0:
            raise ValueError("skip_prob must be in [0, 1]")
        if self.k_star is not None and self.k_star < 1:
            raise ValueError("k_star must be >= 1")
        if not self.theta > 0.0:
            raise ValueError("theta must be positive")
        if not self.eta > 0.0:
            raise ValueError("eta must be positive")

    @property
    def uses_uncertainty(self) -> bool:
        return self.variant in UNCERTAINTY_VARIANTS


@dataclass(frozen=True)
class CalibrationConfig:
    """On-the-fly calibration inputs for policies that need fitted statistics."""

    n_rounds: int = 2000
    seed: int | None = None  # defaults to run seed + 1
    delta_u_gate: float | None = None

    def __post_init__(self) -> None:
        if self.n_rounds < 2:
            raise ValueError("calibration.n_rounds must be >= 2")
        if self.seed is not None and self.seed < 0:
            raise ValueError("calibration.seed must be >= 0")
        gate = self.delta_u_gate
        if gate is not None and not 0.0 <= gate < 1.0:
            # u lies in [0, 1]: a gate of 1 or more leaves no round to count.
            raise ValueError("calibration.delta_u_gate must be null or in [0, 1)")


@dataclass(frozen=True)
class RunConfig:
    oracle: OracleSpec = field(default_factory=OracleSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    latency: LatencySpec = field(default_factory=LatencySpec)
    uncertainty: UncertaintyConfig = field(default_factory=UncertaintyConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    b_prob: int = 8
    r_max: int = 512
    n_sequences: int = 1
    seed: int = 0
    quantize_wire: bool = True

    def __post_init__(self) -> None:
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if self.n_sequences < 1:
            raise ValueError("n_sequences must be >= 1")
        if self.b_prob < 1:
            raise ValueError("b_prob must be >= 1")
        if self.b_prob > 53:
            # 2^b - 1 is exact in float64, and a code fits in int64, only up to 53 bits.
            raise ValueError("b_prob must be <= 53")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        k_star = self.policy.k_star
        if k_star is not None and k_star > self.oracle.vocab_size:
            raise ValueError(
                f"k_star must be <= vocab_size ({self.oracle.vocab_size}), got {k_star}"
            )
        # The slowest round sends every entry at the SNR floor; a record
        # holding an infinite latency could not be read back by `report`.
        bits = payload_bits(self.oracle.vocab_size, self.b_prob, self.oracle.vocab_size)
        try:
            tau_comm = uplink_latency(bits, self.channel.bandwidth_hz, SNR_FLOOR)
        except ZeroDivisionError:  # the uplink rate underflows to 0
            tau_comm = math.inf
        if not math.isfinite(round_latency(self.latency, tau_comm)):
            raise ValueError(
                "a round's worst-case time overflows: tau_slm_s + tau_llm_s + "
                f"{bits} bits over bandwidth_hz at the SNR floor must be finite"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@functools.cache
def field_types(cls) -> dict[str, tuple[type, bool]]:
    """Each init field's type and whether it may be None, read from its annotation.

    Cached per class, since a record stream decodes one object per line; do not mutate.
    """
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if f.init:
            args = get_args(hints[f.name]) or (hints[f.name],)
            base = next(a for a in args if a is not type(None))
            out[f.name] = (base, type(None) in args)
    return out


def _json_scalar_fits(value, tp: type) -> bool:
    # true/false are booleans only. An int field takes an int64. A float field
    # takes a finite number: not NaN (no comparison holds), nor Infinity or an
    # overflowing decimal literal, which json reads as floats, nor an integer
    # literal beyond the float range.
    if isinstance(value, bool):
        return tp is bool
    if tp is int:
        return isinstance(value, int) and -(2**63) <= value < 2**63
    if tp is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return tp is str and isinstance(value, str)


def from_dict(cls, d, prefix: str = "", path: str = ""):
    """Build dataclass ``cls`` from a JSON object, checking each value against its annotation.

    Unknown keys, mistyped values, missing required fields and values the
    class itself rejects raise ValueError messages that start with
    ``prefix``; ``path`` is ``d``'s dotted key path.
    """
    if not isinstance(d, dict):
        label = f"{path.rstrip('.')}: " if path else ""
        raise ValueError(f"{prefix}{label}expected an object")
    types = field_types(cls)
    kwargs = {}
    for key, value in d.items():
        where = path + key
        if key not in types:
            raise ValueError(f"{prefix}unknown key {where!r}")
        tp, optional = types[key]
        if is_dataclass(tp):
            value = from_dict(tp, value, prefix, where + ".")
        elif not ((value is None and optional) or _json_scalar_fits(value, tp)):
            expected = {float: "finite float", int: "int64"}.get(tp, tp.__name__)
            expected += " or null" if optional else ""
            raise ValueError(f"{prefix}{where}: expected {expected}, got {value!r}")
        kwargs[key] = value
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if f.init and required and f.name not in d:
            raise ValueError(f"{prefix}missing key {path + f.name!r}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ValueError(f"{prefix}{e}") from None


def load_config(path: str | Path | None) -> RunConfig:
    """The run config in the JSON file at ``path``, or the defaults for None;
    a file that does not parse raises ValueError naming it."""
    if path is None:
        return RunConfig()
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    return from_dict(RunConfig, doc)
