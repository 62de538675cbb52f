"""Uncertainty calibration: the rejection line, skip thresholds, risk bound.

Runs the synthetic oracle with full two-sided knowledge, fits the linear
map from temperature-perturbation disagreement to rejection probability,
derives the risk-averse and risk-prone skip thresholds, and checks the
empirical skip risk against its closed-form upper bound with both density
estimators.
"""

import numpy as np

from hybridlm.oracle import OracleSpec, calibrate
from hybridlm.uncertainty import (
    DiscretePmfEstimator,
    GaussianKdeEstimator,
    UncertaintyConfig,
    rejection_risk,
    thresholds,
)

spec = OracleSpec(kind="synthetic", vocab_size=1024, zipf_s=6.0, divergence=1.0, seed=3)
ucfg = UncertaintyConfig(m=20, theta_max=2.0)

print("calibrating 1500 rounds on the synthetic oracle ...")
cal = calibrate(spec, 1500, ucfg, seed=11)
m = cal.model
print(f"fitted line: beta = {m.a:.4f} * u + {m.b:+.4f}   (mse {m.mse:.2e}, r2 {m.r2:.3f})")
print(f"non-deterministic-acceptance rate delta_hat = {cal.delta_hat:.4f}")

pair = thresholds(m, cal.delta_hat)
print(f"\nrisk-averse threshold -b/a          = {pair.risk_averse:.4f}")
print(f"risk-prone threshold (delta - b)/a  = {pair.risk_prone:.4f}")

u = cal.rows["u"]
frac_low = float(np.mean(u <= pair.risk_averse))
frac_high = float(np.mean(u <= pair.risk_prone))
print(f"\nskipping at the risk-averse threshold drops {frac_low:.1%} of uplinks")
print(f"skipping at the risk-prone threshold drops {frac_high:.1%} of uplinks")

print("\nskip risk at the risk-prone threshold:")
for est in (GaussianKdeEstimator(), DiscretePmfEstimator(m=ucfg.m)):
    rep = rejection_risk(m, u, pair.risk_prone, est)
    print(
        f"  {type(est).__name__:20s}: empirical R = {rep.empirical_r:.3e}"
        f"  <=  bound = {rep.bound:.3e}"
    )
