#!/usr/bin/env bash
# End-to-end reproduction: simulate a corridor loop, learn with and
# without odometry, and print the KL comparison table and the script's
# wall time in seconds. Runs unattended.
#
# Usage: experiments/loop.sh [output-dir] [seed]
# Runs the CLI as $GEOHMM; unset, that is python3 -m geohmm on this
# checkout's src/ (no install needed).
set -euo pipefail

OUT="${1:-experiments/out}"
SEED="${2:-0}"
SEQS="${SEQS:-3}"          # sequences per arm (use 5 for the full comparison)
RESTARTS="${RESTARTS:-3}"  # EM runs per sequence (use 10 for the full comparison)
LENGTH="${LENGTH:-800}"

mkdir -p "$OUT"
if [ -z "${GEOHMM:-}" ]; then
    SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
    export PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}"
    GEOHMM="python3 -m geohmm"
fi

$GEOHMM make-loop -o "$OUT/true.json"

echo
echo "seq  arm       KL(nats/symbol)  stderr"
echo "---  --------  ---------------  ------"
for s in $(seq 1 $SEQS); do
    exp="$OUT/exp$s.txt"
    $GEOHMM simulate "$OUT/true.json" -o "$exp" -T $LENGTH \
        --seed $((SEED + s)) > /dev/null

    $GEOHMM learn "$exp" -o "$OUT/with$s.json" -n 16 \
        --constraints additive --smoothing 0.005 \
        --restarts $RESTARTS --seed $((SEED + 100 + s)) > /dev/null
    $GEOHMM learn "$exp" -o "$OUT/without$s.json" -n 16 --no-odometry \
        --smoothing 0.005 \
        --restarts $RESTARTS --seed $((SEED + 200 + s)) > /dev/null

    for arm in with without; do
        $GEOHMM eval-kl "$OUT/true.json" "$OUT/$arm$s.json" \
            --seed $((SEED + 300 + s)) --format json \
            -o "$OUT/kl_$arm$s.json" > /dev/null
        value=$(python3 -c "import json;d=json.load(open('$OUT/kl_$arm$s.json'));print('%.4f  %.4f'%(d['value_nats_per_symbol'],d['std_error']))")
        printf '%3d  %-8s  %s\n' "$s" "$arm" "$value"
    done
done

echo
$GEOHMM check "$OUT/with1.json" --level additive
$GEOHMM render "$OUT/with1.json" -o "$OUT/map_with1.svg" > /dev/null
echo "map written to $OUT/map_with1.svg"
echo "elapsed $SECONDS s"
