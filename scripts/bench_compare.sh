#!/usr/bin/env bash
# bench_compare.sh — warn-only bench-regression check.
#
# Usage:
#
#   ./scripts/bench_compare.sh BASELINE_DIR FRESH_DIR [THRESHOLD_PCT]
#
# Compares every *_ns_per_op and *_allocs_per_op field (plus the
# service's p99_latency_ns) of each BENCH_*.json present in both
# directories and prints a WARN line when the fresh value is worse than
# the baseline by more than THRESHOLD_PCT (default 25%). Comparisons are
# strictly like-for-like on the "cores" field: when baseline and fresh
# were taken at different core counts the file is SKIPped outright —
# per-op numbers and speedups from different pool widths measure
# different things, and a cross-hardware delta would only mislead.
# Always exits 0: ns/op is hardware-relative and CI runners are noisy,
# so the committed baselines are a perf trajectory to eyeball, not a
# gate. Refresh them with scripts/bench.sh (see its header) when a PR
# legitimately moves the numbers.
set -uo pipefail

base="${1:?usage: bench_compare.sh BASELINE_DIR FRESH_DIR [THRESHOLD_PCT]}"
fresh="${2:?usage: bench_compare.sh BASELINE_DIR FRESH_DIR [THRESHOLD_PCT]}"
thr="${3:-25}"

# fields FILE — emit "key value" for every compared field: *_ns_per_op,
# *_allocs_per_op, the service's p99_latency_ns, the scheduler/cache
# counter snapshots bench.sh splices in (engine_*_total, cache_*_total,
# windowcounter_*_total) — a steal-rate or cache-miss jump warns just
# like a ns/op regression, and explains it — and the streaming
# campaign's memory accounting (measure_* gauges, campaign_peak_rss_kb):
# a retained-unit-peak jump is a pipeline-bound bug, a nonzero
# end-of-run retained count is a leak, and both warn the same way.
fields() {
  sed -n -e 's/.*"\([a-z_]*ns_per_op\)":[[:space:]]*\([0-9][0-9]*\).*/\1 \2/p' \
    -e 's/.*"\([a-z_]*allocs_per_op\)":[[:space:]]*\([0-9][0-9]*\).*/\1 \2/p' \
    -e 's/.*"\(p99_latency_ns\)":[[:space:]]*\([0-9][0-9]*\).*/\1 \2/p' \
    -e 's/.*"\(engine_[a-z_]*_total\)":[[:space:]]*\([0-9][0-9]*\).*/\1 \2/p' \
    -e 's/.*"\(cache_[a-z_]*_total\)":[[:space:]]*\([0-9][0-9]*\).*/\1 \2/p' \
    -e 's/.*"\(windowcounter_[a-z_]*_total\)":[[:space:]]*\([0-9][0-9]*\).*/\1 \2/p' \
    -e 's/.*"\(measure_[a-z_]*\)":[[:space:]]*\([0-9][0-9]*\).*/\1 \2/p' \
    -e 's/.*"\(campaign_peak_rss_kb\)":[[:space:]]*\([0-9][0-9]*\).*/\1 \2/p' "$1"
}

# cores_of FILE — the core count the file's numbers were taken on.
cores_of() {
  sed -n 's/.*"cores":[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$1" | head -n 1
}

warned=0
found=0
for bf in "$base"/BENCH_*.json; do
  [ -e "$bf" ] || continue
  found=1
  name="$(basename "$bf")"
  ff="$fresh/$name"
  if [ ! -f "$ff" ]; then
    echo "WARN: $name present in baseline but missing from fresh results"
    warned=1
    continue
  fi
  # Different core counts mean the per-op numbers (and especially the
  # speedups) were taken against different pool widths — a delta between
  # them is noise, not signal, so the file is skipped entirely rather
  # than compared and hedged.
  bcores="$(cores_of "$bf")"
  fcores="$(cores_of "$ff")"
  if [ -n "$bcores" ] && [ -n "$fcores" ] && [ "$bcores" != "$fcores" ]; then
    echo "SKIP: $name: cores differ (baseline $bcores, fresh $fcores); per-op numbers are only comparable like-for-like on cores"
    continue
  fi
  while read -r key bval; do
    fval="$(fields "$ff" | awk -v k="$key" '$1 == k {print $2; exit}')"
    if [ -z "$fval" ]; then
      echo "WARN: $name: field $key missing from fresh results"
      warned=1
      continue
    fi
    # A zero baseline (common for counter snapshots: no steals) has no
    # meaningful percentage delta; any nonzero fresh value still warns,
    # flagged as "was zero".
    if awk -v b="$bval" -v f="$fval" -v t="$thr" 'BEGIN { exit !(f > b * (1 + t/100)) }'; then
      awk -v b="$bval" -v f="$fval" -v n="$name" -v k="$key" 'BEGIN {
        if (b == 0) printf "WARN: %s %s regressed: baseline 0, fresh %d\n", n, k, f
        else printf "WARN: %s %s regressed: baseline %d, fresh %d (+%.1f%%)\n", n, k, b, f, (f/b - 1) * 100
      }'
      warned=1
    else
      awk -v b="$bval" -v f="$fval" -v n="$name" -v k="$key" 'BEGIN {
        if (b == 0) printf "ok:   %s %s: baseline 0, fresh %d\n", n, k, f
        else printf "ok:   %s %s: baseline %d, fresh %d (%+.1f%%)\n", n, k, b, f, (f/b - 1) * 100
      }'
    fi
  done < <(fields "$bf")
done

if [ "$found" -eq 0 ]; then
  echo "WARN: no BENCH_*.json baselines found in $base"
fi
if [ "$warned" -ne 0 ]; then
  echo "bench_compare: regressions above ${thr}% are warnings only (hardware-relative numbers); refresh baselines via scripts/bench.sh if intended"
fi
exit 0
