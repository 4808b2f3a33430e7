#!/usr/bin/env bash
# The benchmark's self-tests:
#  1. its unit tests (exact quantiles, windowed tails, answer checking);
#  2. a smoke-size run of every workload in both modes, whose result line
#     must be correct and carry every metric BENCHMARK.json names, with
#     its unit;
#  3. a run whose reference has one deliberately altered placement,
#     which must report the mismatch and exit non-zero.
#
#   bash perfbench/selftest.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo test --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

check() { # check <trace 0|1> <result line>
    python3 - "$1" "$2" <<'PY'
import json, math, sys
trace, line = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
result = json.loads(line)
want = spec["per_layer" if trace == "1" else "end_to_end"]
assert result["correct"] is True and result["failed"] == 0, result
assert result["attempted"] >= 1, result
got = result["metrics"]
assert sorted(got) == sorted(m["name"] for m in want), sorted(got)
for m in want:
    value = got[m["name"]]
    assert value["unit"] == m["unit"], (m["name"], value)
    assert math.isfinite(value["value"]), (m["name"], value)
PY
}

for workload in interactive bulk-10k durable; do
    for trace in 0 1; do
        line=$(bash perfbench/run.sh --workload "$workload" --seed 7 --seconds 1 \
            --trace "$trace" --smoke 2>/dev/null | tail -n 1)
        check "$trace" "$line"
        echo "ok: $workload --trace $trace prints every metric with its unit"
    done
done

if line=$(bash perfbench/run.sh --workload durable --seed 7 --seconds 1 --trace 0 \
    --smoke --tamper 2>/dev/null | tail -n 1); then
    echo "FAIL: a tampered reference placement passed" >&2
    exit 1
fi
python3 -c 'import json, sys; r = json.loads(sys.argv[1]); assert not r["correct"] and r["failed"] >= 1, r' "$line"
echo "ok: a tampered reference placement fails the run"
