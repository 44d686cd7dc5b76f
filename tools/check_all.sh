#!/bin/sh
# The full local gate: tier-1 tests, the lint label, the forced-
# compaction pass (docs/WIRE_FORMAT.md), the suite again under a
# Release build (so results that depend on the build type show up),
# the receiver tests under AddressSanitizer (raw and forced-compact),
# the concurrency and request/reply tests under ThreadSanitizer, and
# the SKYWAY_ANALYZE build (docs/STATIC_ANALYSIS.md §5), in one
# command.
#
#   tools/check_all.sh [SOURCE_ROOT]
#
# Exits non-zero on the first failing stage. Uses clang++ for the
# analyze tree when available (full thread-safety analysis); falls
# back to the default compiler (-Werror only) otherwise.
set -eu

root=$(cd "${1:-$(dirname "$0")/..}" && pwd)
jobs=$(nproc 2>/dev/null || echo 2)

echo "== [1/8] configure + build (default flags) =="
cmake -B "$root/build" -S "$root"
cmake --build "$root/build" -j "$jobs"

echo "== [2/8] tier-1 test suite =="
ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

echo "== [3/8] lint label =="
ctest --test-dir "$root/build" -L lint --output-on-failure

echo "== [4/8] forced-compaction suite (SKYWAY_WIRE_COMPACT=force) =="
# Every eligible record takes the compact encode/expand path, with the
# SkywaySan wire validator vetting both sides (docs/WIRE_FORMAT.md).
SKYWAY_WIRE_COMPACT=force SKYWAY_WIRE_CHECK=1 \
    ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

echo "== [5/8] tier-1 test suite, Release build (-O3, no debug info) =="
# The default tree is RelWithDebInfo (-O2); timing-sensitive and
# optimizer-sensitive results can differ at -O3.
cmake -B "$root/build-release" -S "$root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$root/build-release" -j "$jobs"
ctest --test-dir "$root/build-release" --output-on-failure -j "$jobs"

echo "== [6/8] receiver tests, AddressSanitizer build =="
# The receiver writes into chunk storage in place (klass words at
# commit, madvise over each reservation, compact expansion), and every
# transport receive probe writes into caller-posted storage: run the
# tests that land streams or fabric messages under ASan (Cluster
# matches the Cluster.* and TcpCluster.* suites), on both encodings
# (docs/SANITIZER.md).
receiver_tests='Skyway|WireCompact|Failure|Sanitize|Transport|Cluster'
cmake -B "$root/build-asan" -S "$root" -DSKYWAY_SANITIZE=address
cmake --build "$root/build-asan" -j "$jobs"
ctest --test-dir "$root/build-asan" -R "$receiver_tests" \
    --output-on-failure -j "$jobs"
SKYWAY_WIRE_COMPACT=force \
    ctest --test-dir "$root/build-asan" -R "$receiver_tests" \
    --output-on-failure -j "$jobs"

echo "== [7/8] concurrency + request/reply tests, ThreadSanitizer build =="
# Request handlers run on the requester's thread, so parallel senders
# looking up cold classes run the registry daemon concurrently; run
# the concurrency label and the registry/parity tests under TSan
# (docs/SANITIZER.md).
cmake -B "$root/build-tsan" -S "$root" -DSKYWAY_SANITIZE=thread
cmake --build "$root/build-tsan" -j "$jobs"
ctest --test-dir "$root/build-tsan" -L concurrency \
    --output-on-failure -j "$jobs"
ctest --test-dir "$root/build-tsan" -R 'TypeReg|TransportParity' \
    --output-on-failure -j "$jobs"

echo "== [8/8] static-analysis build (SKYWAY_ANALYZE=ON) =="
if command -v clang++ >/dev/null 2>&1; then
    CXX=clang++ cmake -B "$root/build-analyze" -S "$root" \
        -DSKYWAY_ANALYZE=ON
else
    echo "clang++ not found: analyze tree degrades to -Werror" \
         "(thread-safety analysis needs clang; see" \
         "docs/STATIC_ANALYSIS.md)"
    cmake -B "$root/build-analyze" -S "$root" -DSKYWAY_ANALYZE=ON
fi
cmake --build "$root/build-analyze" -j "$jobs"

echo "check_all: all gates green"
