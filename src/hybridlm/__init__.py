"""Hybrid device/server speculative token generation over a wireless uplink.

A device-side model drafts tokens; a server-side model verifies them. The
library implements the verification calculus, temperature-perturbation
uncertainty with skip thresholds and a rejection-risk bound, top-k
vocabulary compression with distortion bounds and offline/online size
selection, wireless payload/latency accounting, and a deterministic
round-level simulator with baseline policies.
"""

from .channel import (
    ChannelSpec,
    LatencySpec,
    payload_bits,
    round_latency,
    sample_snr,
    uplink_latency,
)
from .compression import (
    CompressedVocab,
    KSelection,
    compress,
    reconstruct,
    select_k_offline,
    select_k_online,
    softplus,
    utv_bound,
    utv_bound_online,
)
from .config import CalibrationConfig, PolicySpec, RunConfig
from .dist import (
    DistributionError,
    ProbVec,
    SortedProbVec,
    TokenId,
    sample,
    softmax,
    sort_desc,
    tvd,
)
from .oracle import CalibrationSet, OracleSpec, RoundInputs, TraceExhausted, calibrate
from .pipeline import RoundRecord, SimReport, metrics, run_many, run_sequence
from .specdec import (
    Verdict,
    distorted_resample_dist,
    hybrid_output_dist,
    rejection_prob,
    resample_dist,
    round_bias,
    verify,
)
from .uncertainty import (
    DiscretePmfEstimator,
    GaussianKdeEstimator,
    LinearRejectionModel,
    RiskReport,
    ThresholdPair,
    UncertaintyConfig,
    estimate_delta,
    estimate_u,
    fit_linear,
    predict_beta,
    rejection_risk,
    thresholds,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationConfig",
    "CalibrationSet",
    "ChannelSpec",
    "CompressedVocab",
    "DiscretePmfEstimator",
    "DistributionError",
    "GaussianKdeEstimator",
    "KSelection",
    "LatencySpec",
    "LinearRejectionModel",
    "OracleSpec",
    "PolicySpec",
    "ProbVec",
    "RiskReport",
    "RoundInputs",
    "RoundRecord",
    "RunConfig",
    "SimReport",
    "SortedProbVec",
    "ThresholdPair",
    "TokenId",
    "TraceExhausted",
    "UncertaintyConfig",
    "Verdict",
    "calibrate",
    "compress",
    "distorted_resample_dist",
    "estimate_delta",
    "estimate_u",
    "fit_linear",
    "hybrid_output_dist",
    "metrics",
    "payload_bits",
    "predict_beta",
    "reconstruct",
    "rejection_prob",
    "rejection_risk",
    "resample_dist",
    "round_bias",
    "round_latency",
    "run_many",
    "run_sequence",
    "sample",
    "sample_snr",
    "select_k_offline",
    "select_k_online",
    "softmax",
    "softplus",
    "sort_desc",
    "thresholds",
    "tvd",
    "uplink_latency",
    "utv_bound",
    "utv_bound_online",
    "verify",
]
