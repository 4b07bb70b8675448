#!/usr/bin/env bash
# perf_env.sh — report (and optionally pin) the machine state that makes
# micro-architectural benchmark numbers comparable (DESIGN.md §10).
#
# Usage:
#   scripts/perf_env.sh report   # print the current state; never fails
#   scripts/perf_env.sh tune     # best-effort pinning (needs root for most)
#
# "report" is what CI's bench-smoke runs before --perf_stat benchmarks, so
# every recorded number carries the environment it was taken in. "tune" is for
# local runs on real hardware: it pins the cpufreq governor to `performance`,
# disables turbo, and lowers perf_event_paranoid so the hardware counter tier
# opens. Every step degrades gracefully — a container or VM without the knob
# just reports "n/a".

set -u

mode="${1:-report}"

read_file() {
  if [ -r "$1" ]; then
    tr -d '\n' < "$1"
  else
    printf 'n/a'
  fi
}

write_file() {  # write_file VALUE PATH
  if [ -w "$2" ]; then
    printf '%s' "$1" > "$2" 2>/dev/null && return 0
  fi
  return 1
}

report() {
  echo "== perf environment =="
  echo "kernel:               $(uname -r)"
  echo "nproc:                $(nproc 2>/dev/null || echo n/a)"
  echo "perf_event_paranoid:  $(read_file /proc/sys/kernel/perf_event_paranoid)"
  echo "  (<=2 lets unprivileged perf_event_open count user-space events;"
  echo "   --perf_stat degrades to software/TSC tiers otherwise)"
  echo "thp enabled:          $(read_file /sys/kernel/mm/transparent_hugepage/enabled)"
  echo "  (the BulkLoad slot slab gets huge pages under 'always' or 'madvise')"
  echo "turbo (intel no_turbo): $(read_file /sys/devices/system/cpu/intel_pstate/no_turbo)"
  echo "boost (acpi cpufreq):   $(read_file /sys/devices/system/cpu/cpufreq/boost)"
  gov="/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
  echo "cpu0 governor:        $(read_file "$gov")"
}

tune() {
  ok=0; skipped=0
  # Hardware counters for unprivileged --perf_stat runs.
  if write_file 1 /proc/sys/kernel/perf_event_paranoid; then
    echo "set perf_event_paranoid=1"; ok=$((ok+1))
  else
    echo "skip perf_event_paranoid (need root)"; skipped=$((skipped+1))
  fi
  # Frequency pinning: TSC deltas and cycle counts only compare across runs
  # when the clock does not wander.
  for cpu_gov in /sys/devices/system/cpu/cpu*/cpufreq/scaling_governor; do
    [ -e "$cpu_gov" ] || continue
    write_file performance "$cpu_gov" || true
  done
  if write_file 1 /sys/devices/system/cpu/intel_pstate/no_turbo; then
    echo "disabled turbo (intel_pstate)"; ok=$((ok+1))
  elif write_file 0 /sys/devices/system/cpu/cpufreq/boost; then
    echo "disabled boost (acpi-cpufreq)"; ok=$((ok+1))
  else
    echo "skip turbo/boost (knob absent or need root)"; skipped=$((skipped+1))
  fi
  # Huge pages for the BulkLoad slot slab.
  if write_file madvise /sys/kernel/mm/transparent_hugepage/enabled; then
    echo "set thp=madvise"; ok=$((ok+1))
  else
    echo "skip thp (knob absent or need root)"; skipped=$((skipped+1))
  fi
  echo "tune done: $ok applied, $skipped skipped"
  report
}

case "$mode" in
  report) report ;;
  tune) tune ;;
  *) echo "usage: $0 [report|tune]" >&2; exit 2 ;;
esac
