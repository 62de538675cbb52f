"""Draft verification walkthrough: acceptance cases and unbiasedness.

The device proposes a draft token from its distribution x; the server holds
y and either accepts or resamples. This script shows the three verification
outcomes on a toy vocabulary, then demonstrates that the combined output law
equals y exactly (algebraically) and empirically (Monte Carlo).
"""

import numpy as np

from hybridlm.dist import ProbVec, sample, tvd
from hybridlm.specdec import hybrid_output_dist, rejection_prob, resample_dist, verify

x = ProbVec(np.array([0.55, 0.25, 0.15, 0.05]))
y = ProbVec(np.array([0.30, 0.40, 0.20, 0.10]))

print("device distribution x:", x.probs)
print("server distribution y:", y.probs)
print()

for d in range(4):
    beta = rejection_prob(float(x.probs[d]), float(y.probs[d]))
    kind = "deterministic accept" if beta == 0 else f"accept w.p. {1 - beta:.3f}"
    print(f"draft token {d}: x_d={x.probs[d]:.2f} y_d={y.probs[d]:.2f} -> {kind}")

p = resample_dist(x, y)
print("\nresampling distribution (positive part of y - x, normalized):", p.probs)

out = hybrid_output_dist(x, y, p)
print("hybrid output law:", out.probs)
print("max |hybrid - y|: %.2e (exact unbiasedness)" % np.max(np.abs(out.probs - y.probs)))

rng = np.random.default_rng(7)
rounds = 200_000
counts = np.zeros(4)
for _ in range(rounds):
    d = sample(x, rng)
    counts[verify(d, x, y, p, rng).token] += 1
empirical = ProbVec(counts / rounds)
print(f"\nempirical output over {rounds} rounds:", np.round(empirical.probs, 4))
print("TVD to y: %.4f" % tvd(empirical, y))
