"""Top-k compression: distortion bounds versus k, and the size selectors.

For one device/server round this prints, per candidate k: the true
resampling-distortion TVD, its exact-denominator upper bound, and the
device-only (softplus) upper bound; then it runs the offline and online
size selectors and shows the payload they pay for.
"""

import numpy as np

from hybridlm.channel import payload_bits
from hybridlm.compression import (
    compress,
    reconstruct,
    select_k_offline,
    select_k_online,
    utv_bound,
    utv_bound_online,
)
from hybridlm.dist import sample, softmax, sort_desc, tvd
from hybridlm.oracle import OracleSpec, SyntheticOracle
from hybridlm.specdec import distorted_resample_dist, rejection_prob, resample_dist
from hybridlm.uncertainty import LinearRejectionModel

vocab = 2048
spec = OracleSpec(kind="synthetic", vocab_size=vocab, zipf_s=4.0, divergence=1.0, seed=9)
inputs = SyntheticOracle(spec).next_round([], 0)
x = softmax(inputs.slm_logits)
y = softmax(inputs.llm_logits)
rng = np.random.default_rng(5)
d = sample(x, rng)
s = sort_desc(x)
rank_d = s.rank_of(d)
beta_d = rejection_prob(float(x.probs[d]), float(y.probs[d]))
eta = 10.0
p = resample_dist(x, y)

print(f"one round at |V|={vocab}: draft rank {rank_d + 1}, "
      f"x_d={x.probs[d]:.4f}, true rejection prob {beta_d:.4f}")
print(f"device/server divergence tvd(x, y) = {tvd(x, y):.4f}\n")

print(f"{'k':>6} {'tvd(p,q)':>10} {'exact bound':>12} {'online bound':>13}")
rows = np.array([1, 2, 4, 8, 16, 32, 64, 256, 1024, 2048])
exact = utv_bound(s, rank_d, rows, tvd(x, y))
online = utv_bound_online(s, rank_d, rows, beta_d, eta)
for k, e, o in zip(rows, exact, online):
    q, _ = distorted_resample_dist(reconstruct(compress(s, int(k), d)), y)
    print(f"{k:>6} {tvd(p, q):>10.5f} {e:>12.5f} {o:>13.5f}")

theta = 0.1
b_prob = 8
model = LinearRejectionModel(a=0.5, b=0.0, mse=0.0, r2=1.0)

# Offline: pretend this round's exact bound is the long-run average.
ks = np.arange(1, vocab + 1, 8)
vals = utv_bound(s, rank_d, ks, tvd(x, y))
off = select_k_offline(ks, vals, theta, vocab)
print(f"\noffline selection at theta={theta}: k*={off.k_star} "
      f"(bound {off.bound_value_at_k:.4f})")

for u in (0.3, 0.6, 0.9):
    sel = select_k_online(s, rank_d, u, model, theta, eta)
    bits = payload_bits(compress(s, sel.k_star, d).n_transmitted, b_prob, vocab)
    print(f"online selection at u={u:.1f}: k*={sel.k_star:>5} "
          f"(bound {sel.bound_value_at_k:.4f}, payload {bits} bits)")

full = payload_bits(vocab, b_prob, vocab)
print(f"\nfull-vocabulary payload for comparison: {full} bits")
