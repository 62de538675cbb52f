#!/usr/bin/env bash
# Byte-identity check for refactors: run a fixed set of hybridlm commands
# from the source tree SRC, write their outputs under OUT, and print one
# "sha256  path" line per output (paths relative to OUT).
#
#   tools/digests.sh . /tmp/after > after.txt
#   tools/digests.sh ../parent /tmp/before > before.txt
#   diff before.txt after.txt
#
# tools/digests.expected is this script's full listing, checked in; a change
# that alters output streams on purpose regenerates it with
#
#   tools/digests.sh . /tmp/digests > tools/digests.expected
#
# The first line names the numpy version, the machine and the SIMD targets
# numpy dispatches to, since exp and summation may round differently
# elsewhere. With --v2048 only the V=2048 runs are made and listed (the five
# calibration-free policies, the EOS run, the sweep, the trace replay and
# demo 03, a few seconds); tests/test_digests.py compares them with the
# checked-in listing.
#
# The wall-clock "generated_at" line is removed from report.json and
# sweep.csv before hashing; every other byte counts. verify.txt ends with
# the command's exit status, so a failing suite shows in the diff without
# stopping the script; each demo's stdout is digested as demos/<name>.txt.
# PYTHON names the interpreter (default python3).
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ] || { [ $# -eq 3 ] && [ "$3" != "--v2048" ]; }; then
    echo "usage: $0 SRC OUT [--v2048]" >&2
    exit 2
fi
FULL=1
[ $# -eq 3 ] && FULL=0
SRC=$(cd "$1" && pwd)
mkdir -p "$2"
OUT=$(cd "$2" && pwd)
PY=${PYTHON:-python3}
export PYTHONPATH="$SRC/src" PYTHONDONTWRITEBYTECODE=1
cd "$OUT"

"$PY" - <<'EOF'
import platform

import numpy as np

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath
simd = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
print(f"# numpy {np.__version__} {platform.machine()} {','.join(simd) or '-'}")
EOF

hybridlm() { "$PY" -m hybridlm.cli "$@" >>"$OUT/commands.log"; }
: >"$OUT/commands.log"

# V=32000 transmitting every round (u_th=0), with and without the 8-bit wire.
echo '{"policy": {"u_th": 0.0}, "r_max": 128}' >tx.json
echo '{"policy": {"u_th": 0.0}, "r_max": 128, "quantize_wire": false}' >tx_raw.json
# V=131072, above the wire's 16-bit token index: calibration only.
echo '{"oracle": {"vocab_size": 131072}}' >big.json
# V=2048 with end-of-sequence tokens, calibrated on the fly.
echo '{"oracle": {"vocab_size": 2048, "eos_prob": 0.05}, "calibration": {"n_rounds": 300},
       "r_max": 128, "n_sequences": 3}' >eos.json
# Offline policy: k from the calibration table, swept over theta.
echo '{"oracle": {"vocab_size": 2048}, "policy": {"variant": "cu_hlm_offline"},
       "calibration": {"n_rounds": 300}, "r_max": 64}' >sweep.json
# The five policies that need no calibration, two sequences each.
POLICIES="llm_only slm_only hlm rand_hlm u_hlm"
for p in $POLICIES; do
    echo "{\"oracle\": {\"vocab_size\": 2048}, \"policy\": {\"variant\": \"$p\"},
           \"r_max\": 64, \"n_sequences\": 2}" >"$p.json"
done
# A V=2048 trace of 64 logit pairs, made with numpy and json alone rather than
# the tree's oracle: a Zipf base under a fresh permutation each round, plus
# independent noise per model. Its last round carries the EOS flag.
"$PY" - <<'EOF'
import json

import numpy as np

rng = np.random.default_rng(2048)
base = -1.5 * np.log(np.arange(1, 2049))
with open("trace.jsonl", "w") as fh:
    for t in range(64):
        shared = base[rng.permutation(2048)]
        rec = {
            "slm_logits": (shared + rng.standard_normal(2048)).tolist(),
            "llm_logits": (shared + rng.standard_normal(2048)).tolist(),
        }
        if t == 63:
            rec["eos"] = True
        fh.write(json.dumps(rec) + "\n")
EOF
echo '{"oracle": {"kind": "trace", "vocab_size": 2048, "trace_path": "trace.jsonl"},
       "policy": {"variant": "u_hlm"}, "r_max": 64, "n_sequences": 2}' >trace.json

if [ $FULL = 1 ]; then
    hybridlm calibrate --rounds 400 --seed 1 --out cal
    hybridlm calibrate --config big.json --rounds 40 --seed 1 --out cal_big
    hybridlm simulate --config tx.json --calib cal --transcript --out tx
    hybridlm report --records tx/records.jsonl --out tx_report
    hybridlm simulate --config tx_raw.json --calib cal --transcript --out tx_raw
    hybridlm report --records tx_raw/records.jsonl --out tx_raw_report
fi
hybridlm simulate --config eos.json --transcript --out eos
hybridlm sweep --config sweep.json --axis theta --values 0.05,0.2 --fading fixed,rayleigh --out sweep
for p in $POLICIES; do
    hybridlm simulate --config "$p.json" --transcript --out "$p"
done
hybridlm simulate --config trace.json --transcript --out trace
if [ $FULL = 1 ]; then
    status=0
    "$PY" -m hybridlm.cli verify --cases 200 >verify.txt || status=$?
    echo "exit status $status" >>verify.txt
    DEMOS=("$SRC"/demos/*.py)
else
    DEMOS=("$SRC/demos/03_compression_bounds.py")
fi
mkdir -p demos
for demo in "${DEMOS[@]}"; do
    "$PY" "$demo" >"demos/$(basename "$demo" .py).txt"
done

REPORTS="eos/report.json trace/report.json $(for p in $POLICIES; do echo "$p/report.json"; done)"
RUNS="eos/records.jsonl eos/transcript.bin eos/report.json sweep/sweep.csv"
POLICY_RUNS=$(for p in $POLICIES; do echo "$p/records.jsonl $p/transcript.bin $p/report.json"; done)
TRACE_RUNS="trace.jsonl trace/records.jsonl trace/transcript.bin trace/report.json"
if [ $FULL = 1 ]; then
    sed -i '/generated_at/d' tx/report.json tx_report/report.json tx_raw/report.json \
        tx_raw_report/report.json sweep/sweep.csv $REPORTS
    sha256sum \
        cal/calibration_pairs.csv cal/utv_table.csv cal/model.json \
        cal_big/calibration_pairs.csv cal_big/utv_table.csv cal_big/model.json \
        tx/records.jsonl tx/transcript.bin tx/report.json tx_report/report.json \
        tx_raw/records.jsonl tx_raw/transcript.bin tx_raw/report.json tx_raw_report/report.json \
        $RUNS verify.txt demos/*.txt $POLICY_RUNS $TRACE_RUNS
else
    sed -i '/generated_at/d' sweep/sweep.csv $REPORTS
    sha256sum $RUNS demos/03_compression_bounds.txt $POLICY_RUNS $TRACE_RUNS
fi
