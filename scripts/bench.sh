#!/usr/bin/env bash
# bench.sh — engine perf trajectories.
#
# Runs the benchmark pairs for the engines and writes one JSON file per
# pair, so CI (and future PRs) can track their scaling over time:
#
#   BENCH_campaign.json — measure.Campaign (the Section 5 pipeline)
#   BENCH_censor.json   — the Figure 13 adversary sweep (Sections 6-7)
#   BENCH_distrib.json  — the bridge-distribution arms-race sweep
#   BENCH_rolling.json  — the rolling-window adversary engine vs the
#                         pre-rolling from-scratch fold (30 days x 4
#                         windows x 4 fleets)
#   BENCH_trust.json    — the trust-graph (Salmon-style) row engine:
#                         3 frontends x 3 enumerators x 16-day horizon,
#                         rows = (frontend x enumerator) combinations
#                         (days within a row are inherently sequential,
#                         so rows are the parallelism grain)
#   BENCH_service.json  — the resident distributor daemon
#                         (cmd/i2pdistribd): the handout benchmark pair
#                         plus a load generation of SERVICE_IDENTITIES
#                         (default 1M) distinct identities through the
#                         real handler stack, reporting requests/sec and
#                         p99 latency
#
# Usage:
#
#   ./scripts/bench.sh [campaign.json [censor.json [distrib.json [rolling.json [trust.json [service.json]]]]]]
#
# Refresh procedure for the committed baselines: run this script from
# the repo root on an idle machine (BENCHTIME=3x default; raise it for
# steadier numbers), eyeball the speedups, and commit the regenerated
# BENCH_*.json next to the code change that moved them. For multicore
# baselines pin the pool explicitly — GOMAXPROCS=4 ./scripts/bench.sh —
# so the recorded "cores" field names the width the numbers were taken
# at; bench_compare.sh only ever compares files with matching cores.
# CI re-runs the script on every push and warns — never fails — via
# scripts/bench_compare.sh when a fresh number regresses against the
# committed baseline, so the baselines are a trajectory, not a gate.
#
# The serial/parallel speedups are hardware-relative: ~1.0 on a single
# core, >= 2x expected at 4 cores (campaign days and sweep cells/rows
# are independent). The rolling-vs-scratch speedup is
# algorithmic and should hold on any hardware (>= 2x on the acceptance
# grid).
set -euo pipefail
cd "$(dirname "$0")/.."

campaign_out="${1:-BENCH_campaign.json}"
censor_out="${2:-BENCH_censor.json}"
distrib_out="${3:-BENCH_distrib.json}"
rolling_out="${4:-BENCH_rolling.json}"
trust_out="${5:-BENCH_trust.json}"
service_out="${6:-BENCH_service.json}"
benchtime="${BENCHTIME:-3x}"

# The recorded core count is what the benchmarks actually ran on: a
# GOMAXPROCS pin (how CI distinguishes its 1-core and 4-core smoke
# jobs) wins over the machine's online-CPU count.
cores="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"

# bench_ns RAW NAME — extract ns/op for one benchmark from go test output.
bench_ns() {
  echo "$1" | awk -v n="$2" '$1 ~ "^"n {print $3}'
}

# bench_allocs RAW NAME — extract allocs/op (the -benchmem column) for
# one benchmark from go test output.
bench_allocs() {
  echo "$1" | awk -v n="$2" '$1 ~ "^"n {print $7}'
}

# run_pair PKG REGEX SERIAL_NAME PARALLEL_NAME LABEL OUT
run_pair() {
  local pkg="$1" regex="$2" serial_name="$3" parallel_name="$4" label="$5" out="$6"
  local raw serial parallel serial_allocs parallel_allocs
  raw="$(go test "$pkg" -run '^$' -bench "$regex" -benchtime="$benchtime" -benchmem)"
  echo "$raw"

  serial="$(bench_ns "$raw" "$serial_name")"
  parallel="$(bench_ns "$raw" "$parallel_name")"
  serial_allocs="$(bench_allocs "$raw" "$serial_name")"
  parallel_allocs="$(bench_allocs "$raw" "$parallel_name")"
  if [ -z "$serial" ] || [ -z "$parallel" ] || [ -z "$serial_allocs" ] || [ -z "$parallel_allocs" ]; then
    echo "bench.sh: failed to parse $label benchmark output" >&2
    exit 1
  fi

  awk -v serial="$serial" -v parallel="$parallel" \
    -v sa="$serial_allocs" -v pa="$parallel_allocs" \
    -v cores="$cores" -v label="$label" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"%s\",\n", label
    printf "  \"serial_ns_per_op\": %d,\n", serial
    printf "  \"parallel_ns_per_op\": %d,\n", parallel
    printf "  \"serial_allocs_per_op\": %d,\n", sa
    printf "  \"parallel_allocs_per_op\": %d,\n", pa
    printf "  \"speedup\": %.3f,\n", serial / parallel
    printf "  \"cores\": %d\n", cores
    printf "}\n"
  }' > "$out"

  echo "wrote $out:"
  cat "$out"
}

# run_rolling OUT — the rolling-engine trio: rolling serial + parallel
# plus the pre-rolling from-scratch serial reference on the same grid.
run_rolling() {
  local out="$1"
  local raw rolling_serial rolling_parallel scratch_serial rs_allocs rp_allocs
  raw="$(go test ./internal/censor/ -run '^$' \
    -bench 'BenchmarkSweep(Rolling(Serial|Parallel)|FromScratchSerial)$' \
    -benchtime="$benchtime" -benchmem)"
  echo "$raw"

  rolling_serial="$(bench_ns "$raw" BenchmarkSweepRollingSerial)"
  rolling_parallel="$(bench_ns "$raw" BenchmarkSweepRollingParallel)"
  scratch_serial="$(bench_ns "$raw" BenchmarkSweepFromScratchSerial)"
  rs_allocs="$(bench_allocs "$raw" BenchmarkSweepRollingSerial)"
  rp_allocs="$(bench_allocs "$raw" BenchmarkSweepRollingParallel)"
  if [ -z "$rolling_serial" ] || [ -z "$rolling_parallel" ] || [ -z "$scratch_serial" ] ||
    [ -z "$rs_allocs" ] || [ -z "$rp_allocs" ]; then
    echo "bench.sh: failed to parse rolling benchmark output" >&2
    exit 1
  fi

  awk -v rs="$rolling_serial" -v rp="$rolling_parallel" -v ss="$scratch_serial" \
    -v rsa="$rs_allocs" -v rpa="$rp_allocs" -v cores="$cores" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"rolling-sweep-engine\",\n"
    printf "  \"serial_ns_per_op\": %d,\n", rs
    printf "  \"parallel_ns_per_op\": %d,\n", rp
    printf "  \"scratch_serial_ns_per_op\": %d,\n", ss
    printf "  \"serial_allocs_per_op\": %d,\n", rsa
    printf "  \"parallel_allocs_per_op\": %d,\n", rpa
    printf "  \"speedup_vs_scratch\": %.3f,\n", ss / rs
    printf "  \"speedup\": %.3f,\n", rs / rp
    printf "  \"cores\": %d\n", cores
    printf "}\n"
  }' > "$out"

  echo "wrote $out:"
  cat "$out"
}

# run_service OUT — the resident daemon: the serial/parallel handout
# benchmark pair, then a full load generation through cmd/i2pdistribd
# (the ISSUE acceptance run) for requests/sec and p99 latency.
run_service() {
  local out="$1"
  local raw serial parallel serial_allocs parallel_allocs loadjson rps p99
  raw="$(go test ./internal/service/ -run '^$' \
    -bench 'BenchmarkServiceHandout(Serial|Parallel)$' -benchtime="$benchtime" -benchmem)"
  echo "$raw"

  serial="$(bench_ns "$raw" BenchmarkServiceHandoutSerial)"
  parallel="$(bench_ns "$raw" BenchmarkServiceHandoutParallel)"
  serial_allocs="$(bench_allocs "$raw" BenchmarkServiceHandoutSerial)"
  parallel_allocs="$(bench_allocs "$raw" BenchmarkServiceHandoutParallel)"
  if [ -z "$serial" ] || [ -z "$parallel" ] || [ -z "$serial_allocs" ] || [ -z "$parallel_allocs" ]; then
    echo "bench.sh: failed to parse service benchmark output" >&2
    exit 1
  fi

  loadjson="$(go run ./cmd/i2pdistribd -rate 0 \
    -scale "${SERVICE_SCALE:-0.1}" -loadgen "${SERVICE_IDENTITIES:-1000000}")"
  echo "$loadjson"
  rps="$(echo "$loadjson" | sed -n 's/.*"requests_per_sec":[[:space:]]*\([0-9.][0-9.]*\).*/\1/p')"
  p99="$(echo "$loadjson" | sed -n 's/.*"p99_latency_ns":[[:space:]]*\([0-9][0-9]*\).*/\1/p')"
  if [ -z "$rps" ] || [ -z "$p99" ]; then
    echo "bench.sh: failed to parse loadgen output" >&2
    exit 1
  fi

  awk -v serial="$serial" -v parallel="$parallel" \
    -v sa="$serial_allocs" -v pa="$parallel_allocs" \
    -v rps="$rps" -v p99="$p99" -v cores="$cores" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"distributor-service\",\n"
    printf "  \"serial_ns_per_op\": %d,\n", serial
    printf "  \"parallel_ns_per_op\": %d,\n", parallel
    printf "  \"serial_allocs_per_op\": %d,\n", sa
    printf "  \"parallel_allocs_per_op\": %d,\n", pa
    printf "  \"speedup\": %.3f,\n", serial / parallel
    printf "  \"requests_per_sec\": %.1f,\n", rps
    printf "  \"p99_latency_ns\": %d,\n", p99
    printf "  \"cores\": %d\n", cores
    printf "}\n"
  }' > "$out"

  echo "wrote $out:"
  cat "$out"
}

# snapshot_counters OUT — splice scheduler/cache counter totals from one
# small instrumented sweep (scripts/obssnap) into OUT, just before the
# "cores" field. The counters ride next to the ns/op numbers so a perf
# move comes with its explanation (steal rate up, cache gone cold);
# bench_compare.sh diffs them warn-only like every other field. The
# snapshot is run once and reused across files.
obssnap_fields=""
snapshot_counters() {
  local out="$1"
  if [ -z "$obssnap_fields" ]; then
    local snap
    snap="$(go run ./scripts/obssnap)"
    echo "$snap"
    obssnap_fields="$(echo "$snap" | awk '{printf "  \"%s\": %s,\n", $1, $2}')"
  fi
  # $(...) strips the snapshot's trailing newline, so the splice
  # re-adds it (%s\n) to keep "cores" on its own line.
  awk -v fields="$obssnap_fields" '
    /"cores":/ { printf "%s\n", fields }
    { print }
  ' "$out" > "$out.tmp" && mv "$out.tmp" "$out"
  echo "spliced counter snapshot into $out"
}

# campaign_memstats OUT — splice the streaming campaign's memory
# accounting (scripts/obssnap -campaign: retained-unit gauges and peak,
# peak RSS) into OUT, just before the "cores" field. These ride next to
# the campaign ns/op so a perf move comes with its memory story — an
# RSS jump with a flat retained-unit peak is allocator noise, a peak
# jump is a pipeline bug; bench_compare.sh diffs them warn-only.
campaign_memstats() {
  local out="$1" snap fields
  snap="$(go run ./scripts/obssnap -campaign)"
  echo "$snap"
  fields="$(echo "$snap" | awk '{printf "  \"%s\": %s,\n", $1, $2}')"
  awk -v fields="$fields" '
    /"cores":/ { printf "%s\n", fields }
    { print }
  ' "$out" > "$out.tmp" && mv "$out.tmp" "$out"
  echo "spliced campaign memstats into $out"
}

run_pair ./internal/measure/ 'BenchmarkCampaign(Serial|Parallel)$' \
  BenchmarkCampaignSerial BenchmarkCampaignParallel campaign-engine "$campaign_out"
campaign_memstats "$campaign_out"

run_pair ./internal/censor/ 'BenchmarkFigure13Sweep(Serial|Parallel)$' \
  BenchmarkFigure13SweepSerial BenchmarkFigure13SweepParallel censor-sweep-engine "$censor_out"
snapshot_counters "$censor_out"

run_pair ./internal/distrib/ 'BenchmarkDistribSweep(Serial|Parallel)$' \
  BenchmarkDistribSweepSerial BenchmarkDistribSweepParallel distrib-sweep-engine "$distrib_out"

run_pair ./internal/distrib/ 'BenchmarkTrustSweep(Serial|Parallel)$' \
  BenchmarkTrustSweepSerial BenchmarkTrustSweepParallel trust-sweep-engine "$trust_out"

run_rolling "$rolling_out"
snapshot_counters "$rolling_out"

run_service "$service_out"
