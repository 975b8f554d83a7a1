#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full workspace test suite, smoke
# runs and the repository benchmark's correctness gates. Writes no tracked
# file. Run from the repository root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> ddr list (experiment registry enumerates)"
cargo run -q --release -p ddr-experiments --bin ddr -- list

echo "==> ddr run --all --smoke (every registered experiment stays runnable)"
cargo run -q --release -p ddr-experiments --bin ddr -- run --all --smoke > /dev/null

echo "==> telemetry smoke (trace + profile a run, then inspect the trace)"
TRACE="$(mktemp -t ddr-ci-trace.XXXXXX.jsonl)"
trap 'rm -f "$TRACE"' EXIT
cargo run -q --release -p ddr-experiments --bin ddr -- \
    run fig1 --smoke --trace "$TRACE" --trace-sample 1 --profile > /dev/null
test -s "$TRACE" || { echo "trace file is empty" >&2; exit 1; }
cargo run -q --release -p ddr-experiments --bin ddr -- inspect "$TRACE" > /dev/null

echo "==> benchmark unit tests (gates, output contract, BENCHMARK.json parity)"
cargo test -q --manifest-path benchmark/Cargo.toml

echo "==> benchmark smoke (fig1_paper traced pass: plain == probed == JSONL digests, invariants)"
# run.py exits 1 on a failed gate; the last stdout line is the JSON
# summary whose `correct` field says which.
BENCH_LAST=$(python3 benchmark/run.py --workload fig1_paper --seed 1 --seconds 1 --trace 1 \
    | tail -n 1) || { echo "benchmark smoke exited non-zero: $BENCH_LAST" >&2; exit 1; }
case "$BENCH_LAST" in
    *'"correct":true'*) echo "    correct:true" ;;
    *) echo "benchmark smoke failed a correctness gate: $BENCH_LAST" >&2; exit 1 ;;
esac

echo "==> shard_scaling --smoke --shards 2 (parallel-vs-serial parity gate)"
cargo run -q --release -p ddr-experiments --bin ddr -- \
    run shard_scaling --smoke --shards 2 > /dev/null

echo "==> fig1_dynamic --shards 2 --smoke (Gnutella slice world: digest parity gate)"
DIGEST_SERIAL=$(cargo run -q --release -p ddr-experiments --bin ddr -- \
    run fig1_dynamic --smoke 2> /dev/null | grep '^digest:')
DIGEST_SHARDED=$(cargo run -q --release -p ddr-experiments --bin ddr -- \
    run fig1_dynamic --shards 2 --smoke 2> /dev/null | grep '^digest:')
test -n "$DIGEST_SERIAL" || { echo "fig1_dynamic emitted no digest" >&2; exit 1; }
if [ "$DIGEST_SERIAL" != "$DIGEST_SHARDED" ]; then
    echo "fig1_dynamic --shards 2 diverged from serial: $DIGEST_SERIAL vs $DIGEST_SHARDED" >&2
    exit 1
fi
echo "    $DIGEST_SERIAL (serial == 2 shards)"

echo "==> free_riders --smoke (scenario pack: in-line invariants + liar refusal gate)"
# The other four pack scenarios (flash_crowd, partition_heal, heavy_churn,
# bandwidth_eras) already ran under `ddr run --all --smoke` above, each
# asserting its ScenarioInvariants in-line; this re-runs the adversarial
# one explicitly and checks the invariant and digest notes made it out.
PACK_OUT=$(cargo run -q --release -p ddr-experiments --bin ddr -- \
    run free_riders --smoke 2> /dev/null)
echo "$PACK_OUT" | grep -q '^invariants: ok' \
    || { echo "free_riders did not report invariants: ok" >&2; exit 1; }
echo "$PACK_OUT" | grep -q '^digest:' \
    || { echo "free_riders emitted no digest" >&2; exit 1; }
echo "    $(echo "$PACK_OUT" | grep '^digest:') (invariants ok)"

echo "==> metrics timeline smoke (metered + profiled sharded run, then inspect)"
METRICS="$(mktemp -t ddr-ci-metrics.XXXXXX.jsonl)"
trap 'rm -f "$TRACE" "$METRICS"' EXIT
METERED_OUT=$(cargo run -q --release -p ddr-experiments --bin ddr -- \
    run fig1_dynamic --smoke --shards 2 --metrics "$METRICS" --profile 2> /dev/null)
test -s "$METRICS" || { echo "metrics timeline file is empty" >&2; exit 1; }
# The metered+profiled digest must equal the plain serial one from above.
DIGEST_METERED=$(echo "$METERED_OUT" | grep '^digest:')
if [ "$DIGEST_SERIAL" != "$DIGEST_METERED" ]; then
    echo "metrics/profile moved the digest: $DIGEST_SERIAL vs $DIGEST_METERED" >&2
    exit 1
fi
echo "$METERED_OUT" | grep -q 'Sharded-kernel profile' \
    || { echo "--profile emitted no per-shard breakdown" >&2; exit 1; }
cargo run -q --release -p ddr-experiments --bin ddr -- inspect "$METRICS" > /dev/null
echo "    $DIGEST_METERED (metered+profiled == plain)"

echo "==> ddr serve --smoke (real-time bus load test, prints qps/core + p99)"
cargo run -q --release -p ddr-experiments --bin ddr -- \
    serve gnutella --nodes 200 --qps 50 --duration 2 --smoke

echo "==> CI green"
