#!/usr/bin/env bash
# Single CI/PR gate for the mcpart workspace: build, test, lint, format.
# Referenced from .claude/skills/verify/SKILL.md — every PR runs this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

echo "== cargo test --workspace -q"
cargo test --workspace -q

echo "== perfbench build + tests (the benchmark's use of the public API)"
# A separate package with its own workspace: a change to an API it calls
# (by_name, all, serve, JobLoader, checkpoint/cache helpers) fails here
# rather than in the benchmark run.
CARGO_TARGET_DIR=target/perfbench cargo test --manifest-path perfbench/Cargo.toml --offline -q

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy --workspace --all-targets -- -W clippy::perf"
cargo clippy --workspace --all-targets -- -W clippy::perf

echo "== cargo fmt --check"
cargo fmt --check

echo "== scripts/bench.sh --quick (smoke)"
scripts/bench.sh --quick --out /tmp/BENCH_partition.quick.json >/dev/null
test -s /tmp/BENCH_partition.quick.json

echo "== trace export smoke (--trace-out + trace-check + stats)"
target/release/mcpart run rawcaudio --trace-out /tmp/mcpart_trace.json --metrics >/dev/null
target/release/mcpart trace-check /tmp/mcpart_trace.json \
  --require gdp/cut,rhop/estimator_calls,sim/cycles,sim/stall_cycles,sim/transfer_cycles,supervise/retries,supervise/quarantined
# A clean run: supervision counters end at zero and never fired.
target/release/mcpart trace-check /tmp/mcpart_trace.json \
  --require supervise/retries=0,supervise/quarantined=0 \
  --forbid supervise/retries,supervise/quarantined
STATS_OUT=$(target/release/mcpart stats /tmp/mcpart_trace.json)
for col in p50 p90 p99 "gdp/cut" "rhop/estimator_calls"; do
  # grep -q would exit early and SIGPIPE the echo under pipefail.
  [[ "$STATS_OUT" == *"$col"* ]] \
    || { echo "stats output missing $col:"; echo "$STATS_OUT"; exit 1; }
done

echo "== bench-diff gate (self-diff clean, perturbed copy regresses)"
target/release/mcpart bench-diff /tmp/BENCH_partition.quick.json /tmp/BENCH_partition.quick.json
# Prefix a 9 onto every cycles value (~10x growth): must trip the gate.
sed 's/"cycles":/"cycles":9/' /tmp/BENCH_partition.quick.json > /tmp/BENCH_partition.perturbed.json
if target/release/mcpart bench-diff /tmp/BENCH_partition.quick.json /tmp/BENCH_partition.perturbed.json >/dev/null; then
  echo "bench-diff missed a 10x cycles regression"; exit 1
fi

echo "== kill-and-resume smoke (deterministic mid-append halt, --resume, checkpoint-diff)"
# --halt-after 2 dies mid-append of the second unit record (half a
# line, no terminator, then abort) — the exact artifact kill -9 leaves,
# with none of the scheduling race a real SIGKILL has.
rm -f /tmp/mcpart_ck_clean.json /tmp/mcpart_ck_killed.json
target/release/mcpart compare rawcaudio --checkpoint /tmp/mcpart_ck_clean.json >/dev/null
if target/release/mcpart compare rawcaudio --checkpoint /tmp/mcpart_ck_killed.json --halt-after 2 >/dev/null 2>&1; then
  echo "halted run unexpectedly survived"; exit 1
fi
RESUME_NOTES=$(target/release/mcpart compare rawcaudio --checkpoint /tmp/mcpart_ck_killed.json --resume 2>&1 >/dev/null)
echo "$RESUME_NOTES" | grep -q "partial trailing record" \
  || { echo "resume did not report the crash artifact: $RESUME_NOTES"; exit 1; }
target/release/mcpart checkpoint-diff /tmp/mcpart_ck_clean.json /tmp/mcpart_ck_killed.json

echo "== serve smoke (spool three jobs, die mid-batch, restart, verify cache hits)"
SERVE_CLEAN=/tmp/mcpart_serve_clean
SERVE_KILLED=/tmp/mcpart_serve_killed
rm -rf "$SERVE_CLEAN" "$SERVE_KILLED"
mkdir -p "$SERVE_CLEAN" "$SERVE_KILLED"
for b in fir latnrm rawcaudio; do
  echo "{\"mcpart_job\":1,\"program\":\"$b\"}" > "$SERVE_CLEAN/$b.job"
  echo "{\"mcpart_job\":1,\"program\":\"$b\"}" > "$SERVE_KILLED/$b.job"
done
target/release/mcpart serve "$SERVE_CLEAN" --drain >/dev/null
# Die mid-batch: one job committed, the next output half-written, the
# rest still claimed in work/ — what kill -9 leaves, deterministically.
if target/release/mcpart serve "$SERVE_KILLED" --drain --halt-after 1 >/dev/null 2>&1; then
  echo "halted serve run unexpectedly survived"; exit 1
fi
RESTART_LOG=$(target/release/mcpart serve "$SERVE_KILLED" --drain --metrics \
  --trace-out /tmp/mcpart_serve_trace.json)
echo "$RESTART_LOG" | grep -q "cache hit" \
  || { echo "restart reported no cache hits: $RESTART_LOG"; exit 1; }
for b in fir latnrm rawcaudio; do
  cmp "$SERVE_CLEAN/out/$b.json" "$SERVE_KILLED/out/$b.json" \
    || { echo "$b: post-crash output differs from clean run"; exit 1; }
done
target/release/mcpart trace-check /tmp/mcpart_serve_trace.json \
  --require serve/admitted,serve/rejected,serve/cache_hits,serve/cache_evictions,serve/quarantined \
  --forbid serve/quarantined

echo "== serve telemetry smoke (flight recorder + stats over the dir)"
test -s "$SERVE_KILLED/telemetry/telemetry.jsonl" \
  || { echo "flight recorder wrote no snapshots"; exit 1; }
TELEMETRY_OUT=$(target/release/mcpart stats "$SERVE_KILLED")
for needle in "telemetry:" completed "serve/job" p99; do
  [[ "$TELEMETRY_OUT" == *"$needle"* ]] \
    || { echo "telemetry stats missing $needle:"; echo "$TELEMETRY_OUT"; exit 1; }
done

echo "== scale smoke (10^5-op synthetic gen + partition under a wall bound)"
target/release/mcpart gen synth_100k >/dev/null
SCALE_START=$(date +%s)
target/release/mcpart partition synth_100k --jobs 4 \
  --trace-out /tmp/mcpart_scale_trace.json >/dev/null
SCALE_SECS=$(( $(date +%s) - SCALE_START ))
# Generous bound: ~1s release on this host; 60s catches an accidental
# return to quadratic edge folding without flaking on slow CI.
if [ "$SCALE_SECS" -gt 60 ]; then
  echo "10^5-op partition took ${SCALE_SECS}s (>60s wall bound)"; exit 1
fi
target/release/mcpart trace-check /tmp/mcpart_scale_trace.json \
  --require metis/coarsen_levels,metis/matched_frac_x1000,metis/peak_graph_bytes,gdp/cut

echo "== incremental re-partition smoke (one-function edit vs from-scratch)"
INCR=/tmp/mcpart_incr
rm -rf "$INCR"; mkdir -p "$INCR"
target/release/mcpart gen synth_100k --out "$INCR/prog.mcir" >/dev/null
target/release/mcpart run "$INCR/prog.mcir" --checkpoint "$INCR/base.ck" >/dev/null
# One-function edit: shrink one table-mask constant (stays in bounds,
# leaves the profile and GDP homes alone — the cone is one function).
sed '0,/= iconst 511$/s//= iconst 510/' "$INCR/prog.mcir" > "$INCR/edited.mcir"
cmp -s "$INCR/prog.mcir" "$INCR/edited.mcir" \
  && { echo "edit was a no-op (no mask constant found)"; exit 1; }
# Both sides trace so both checkpoint records carry pinned obs events
# (checkpoint-diff then checks replay fidelity, not just placements).
target/release/mcpart run "$INCR/edited.mcir" --checkpoint "$INCR/fresh.ck" \
  --trace-out "$INCR/fresh_trace.json" \
  | grep -v '^partition:' > "$INCR/fresh.txt"
target/release/mcpart repartition "$INCR/edited.mcir" --baseline "$INCR/base.ck" \
  --checkpoint "$INCR/inc.ck" --trace-out "$INCR/inc_trace.json" \
  | grep -v '^partition:\|^repartition:' > "$INCR/inc.txt"
target/release/mcpart trace-check "$INCR/inc_trace.json" \
  --require repartition/replayed_funcs,repartition/dirty_funcs,repartition/cone_frac_x1000
cmp "$INCR/fresh.txt" "$INCR/inc.txt" \
  || { echo "incremental stdout differs from from-scratch"; exit 1; }
target/release/mcpart checkpoint-diff "$INCR/fresh.ck" "$INCR/inc.ck"

echo "== chaos soak (500 seeded scenarios, independent oracle, 0 failures)"
target/release/mcpart chaos 500 --seed 20260807 \
  --trace-out /tmp/mcpart_chaos_trace.json > /tmp/mcpart_chaos_a.txt
grep -q " 0 failure(s)" /tmp/mcpart_chaos_a.txt \
  || { echo "chaos soak found oracle failures:"; cat /tmp/mcpart_chaos_a.txt; exit 1; }
# Bit-identical across repeat runs and jobs-invariance worker counts.
target/release/mcpart chaos 500 --seed 20260807 --jobs 2 > /tmp/mcpart_chaos_b.txt
cmp /tmp/mcpart_chaos_a.txt /tmp/mcpart_chaos_b.txt \
  || { echo "chaos soak is not deterministic across runs/worker counts"; exit 1; }
target/release/mcpart trace-check /tmp/mcpart_chaos_trace.json \
  --require chaos/scenarios=500,chaos/failures=0,chaos/shrink_steps=0,chaos/oracle_checks
# The oracle actually bites: an injected bad placement must fail the
# soak, shrink, and replay from the corpus.
CHAOS_CORPUS=/tmp/mcpart_chaos_corpus
rm -rf "$CHAOS_CORPUS"
if target/release/mcpart chaos 2 --seed 3 --inject-bad-placement \
    --corpus "$CHAOS_CORPUS" >/dev/null 2>&1; then
  echo "chaos soak missed an injected bad placement"; exit 1
fi
CHAOS_REPRO=$(ls "$CHAOS_CORPUS"/*.repro | head -1)
if target/release/mcpart chaos --replay "$CHAOS_REPRO" --inject-bad-placement >/dev/null; then
  echo "corpus repro did not reproduce the injected failure"; exit 1
fi
target/release/mcpart chaos --replay "$CHAOS_REPRO" >/dev/null \
  || { echo "corpus repro fails even without the injected bug"; exit 1; }

echo "== hardened-profile tests (overflow-checks + debug-assertions pinned)"
cargo test --profile overflow -q -p mcpart-machine -p mcpart-sched >/dev/null

echo "== all checks passed"
