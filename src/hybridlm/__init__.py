"""Hybrid device/server speculative token generation over a wireless uplink.

A device-side model drafts tokens; a server-side model verifies them. The
library implements the verification calculus, temperature-perturbation
uncertainty with skip thresholds and a rejection-risk bound, top-k
vocabulary compression with distortion bounds and offline/online size
selection, wireless payload/latency accounting, and a deterministic
round-level simulator with baseline policies.

Each name is imported from its module (``hybridlm.dist``, ``hybridlm.pipeline``,
...); importing the package itself loads none of them.
"""

__version__ = "0.1.0"
