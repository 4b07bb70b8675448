#!/usr/bin/env bash
# Build and run the test suite under the sanitizer matrix, mirroring the CI
# jobs in .github/workflows/ci.yml (see DESIGN.md "Locking protocol" for what
# each leg is expected to catch).
#
# Usage: scripts/run_sanitizers.sh [asan|ubsan|tsan|lint|all]
#   asan   ASan+UBSan combined, debug checkers on, full ctest  (CI: address-undefined-sanitizer)
#   ubsan  UBSan alone, full ctest                             (CI: undefined-sanitizer)
#   tsan   TSan over the concurrency-heavy binaries            (CI: thread-sanitizer)
#   lint   build tools/alt_lint and run it over src/           (CI: alt-lint)
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"

gen=()
command -v ninja >/dev/null 2>&1 && gen=(-G Ninja)

run_asan() {
  cmake -B build-asan "${gen[@]}" -DCMAKE_BUILD_TYPE=Debug \
    -DALT_SANITIZE="address;undefined" -DALT_DEBUG_CHECKS=ON \
    -DALT_BUILD_BENCHMARKS=OFF -DALT_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
    ctest --test-dir build-asan --output-on-failure -j 4
}

run_ubsan() {
  cmake -B build-ubsan "${gen[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DALT_SANITIZE=undefined \
    -DALT_BUILD_BENCHMARKS=OFF -DALT_BUILD_EXAMPLES=OFF
  cmake --build build-ubsan -j
  ctest --test-dir build-ubsan --output-on-failure -j 4
}

run_tsan() {
  cmake -B build-tsan "${gen[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DALT_SANITIZE=thread \
    -DALT_BUILD_BENCHMARKS=OFF -DALT_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j
  # Focus on the concurrency-heavy binaries; the full suite is slow under TSan.
  # tsan.supp covers only OlcBTree's by-design optimistic reads.
  local t
  for t in art_test art_edge_test alt_index_test retraining_test concurrency_test \
           olc_btree_test lookup_batch_test epoch_test shard_test server_test; do
    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 suppressions=$PWD/tsan.supp" \
      "./build-tsan/tests/$t"
  done
}

run_lint() {
  # Mirrors the alt-lint CI leg: the protocol checker over src/, examples/ and
  # bench/, driven off the exported compilation database so a source file
  # missing from the build is a failure, not a silent skip. The tool is
  # dependency-free, so this is the cheapest mode here by far.
  cmake -B build-lint "${gen[@]}" -DALT_BUILD_LINT=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DALT_BUILD_TESTS=OFF -DALT_BUILD_BENCHMARKS=ON -DALT_BUILD_EXAMPLES=ON
  cmake --build build-lint -j --target alt-lint
  ./build-lint/tools/alt_lint/alt-lint \
    --compdb build-lint/compile_commands.json \
    --src-root src --src-root examples --src-root bench \
    --src-root tools/alt_server --src-root tools/alt_loadgen --verify-compdb
}

case "$mode" in
  asan) run_asan ;;
  ubsan) run_ubsan ;;
  tsan) run_tsan ;;
  lint) run_lint ;;
  all) run_lint; run_asan; run_ubsan; run_tsan ;;
  *) echo "usage: $0 [asan|ubsan|tsan|lint|all]" >&2; exit 2 ;;
esac
