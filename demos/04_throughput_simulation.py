"""Policy comparison over fading channels: the token-throughput story.

Calibrates once, then simulates every policy over Rayleigh fading at a few
mean SNRs and prints tokens/second plus the communication-side telemetry.
The uncertainty-gated policies keep the uplink idle on confident rounds;
the compressed variants shrink the payload on the rest.
"""

import numpy as np

from hybridlm.channel import ChannelSpec
from hybridlm.config import PolicySpec, RunConfig
from hybridlm.oracle import OracleSpec, calibrate
from hybridlm.pipeline import run_many
from hybridlm.uncertainty import UncertaintyConfig

oracle = OracleSpec(kind="synthetic", vocab_size=2048, zipf_s=4.0, divergence=1.0, seed=17)
ucfg = UncertaintyConfig(m=20)

print("calibrating ...")
cal = calibrate(oracle, 1000, ucfg, seed=171)
print(f"fitted slope a={cal.model.a:.3f}, intercept b={cal.model.b:+.3f}\n")

policies = [
    ("llm_only", PolicySpec(variant="llm_only")),
    ("slm_only", PolicySpec(variant="slm_only")),
    ("hlm", PolicySpec(variant="hlm")),
    ("rand_hlm", PolicySpec(variant="rand_hlm", skip_prob=0.5)),
    ("u_hlm", PolicySpec(variant="u_hlm", u_th=0.8)),
    ("cu_offline", PolicySpec(variant="cu_hlm_offline", u_th=0.8, theta=0.1)),
    ("cu_online", PolicySpec(variant="cu_hlm_online", u_th=0.8, theta=0.1)),
]

for snr_db in (-10.0, 0.0, 10.0):
    channel = ChannelSpec(fading="rayleigh", mean_snr_db=snr_db)
    print(f"Rayleigh fading, mean SNR {snr_db:+.0f} dB")
    print(f"  {'policy':<10} {'tok/s':>8} {'TR':>6} {'TSR':>6} {'mean k':>8} {'payload bits':>13}")
    for name, policy in policies:
        tps = []
        last = None
        for seed in range(4):
            cfg = RunConfig(
                oracle=oracle, policy=policy, channel=channel,
                uncertainty=ucfg, r_max=64, seed=600 + seed,
            )
            rep, _ = run_many(cfg, calib=cal)
            tps.append(rep.mean_throughput_tokens_per_s)
            last = rep
        tsr = f"{last.tsr:.3f}" if last.tsr is not None else "-"
        mean_k = f"{last.mean_k:.0f}" if last.mean_k is not None else "-"
        print(
            f"  {name:<10} {np.mean(tps):>8.2f} {last.tr:>6.2f} {tsr:>6} "
            f"{mean_k:>8} {last.mean_payload_bits:>13.0f}"
        )
    print()
