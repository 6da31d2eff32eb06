#!/usr/bin/env bash
# CI driver: builds and tests the three supported configurations and runs
# the static checks. Usable locally (tools/ci.sh) and from the GitHub
# workflow; each leg can be run alone (tools/ci.sh asan).
#
#   release    RelWithDebInfo; ctest runs every test and example golden
#              under KVMARM_CHECK=enforce (tests/CMakeLists.txt)
#   asan       AddressSanitizer + UBSan, whole test suite
#   tsan       ThreadSanitizer, fleet executor tests + fleet smoke bench
#   nochecks   KVMARM_INVARIANTS=OFF compile check (hooks compile away)
#   domlint    full-tree domlint + the fixture corpus (must-fire/must-pass)
#   lint       domlint + clang-tidy (or strict-GCC fallback) on changed files
#   threadsafety  clang -Wthread-safety on the annotated locking TUs
#   format     tools/format.sh --check
set -eu

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)

run_suite() { # <build-dir> [env...]
    local dir=$1
    shift
    env "$@" ctest --test-dir "$dir" --output-on-failure
}

leg_release() {
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build build-ci-release -j"$JOBS"
    # The test suite enforces invariants by default, so fleet determinism
    # and clone bit-identity are checked with every machine's invariant
    # engine live.
    run_suite build-ci-release
}

leg_asan() {
    cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DKVMARM_SANITIZE=address,undefined
    cmake --build build-ci-asan -j"$JOBS"
    # ASan and the invariant checker compose: enforce while sanitized.
    run_suite build-ci-asan KVMARM_CHECK=enforce \
        ASAN_OPTIONS=detect_stack_use_after_return=0
}

leg_tsan() {
    # The fleet executor is the one place host threads run concurrently;
    # TSan must see zero races across the worker pool, the mutexed logging
    # writer, the invariant engine, and the annotated fiber switches (the
    # Fiber unit tests exercise those switches directly).
    # ctest selects by the sanitize-thread label tests/CMakeLists derives
    # from KVMARM_SANITIZE.
    cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DKVMARM_SANITIZE=thread
    cmake --build build-ci-tsan -j"$JOBS" \
        --target fleet_tput fleet_clone fleet_ring fleet_pool \
        fleet_test fleet_stress_test sim_test
    TSAN_OPTIONS=halt_on_error=1 \
        ctest --test-dir build-ci-tsan --output-on-failure \
        -L sanitize-thread -R '^(Fleet|Fiber)'
    # The seeded stress schedule under TSan: live submissions, mid-run
    # spawns, ring rendezvous and park/notify all race-checked at up to
    # 8 workers (the suite sweeps 1/2/4/8 internally).
    # Both ctest runs are under KVMARM_CHECK=enforce (the suite default),
    # so the per-machine engines' lock-free checked hot path is
    # race-checked too.
    TSAN_OPTIONS=halt_on_error=1 \
        ctest --test-dir build-ci-tsan --output-on-failure -L stress
    # fleet_tput --smoke sweeps both check modes itself (the *_enforce
    # rows), so one TSan run covers the unchecked and checked hot paths.
    TSAN_OPTIONS=halt_on_error=1 build-ci-tsan/bench/fleet_tput --smoke
    # fleet_clone --smoke under TSan: 8 worker threads concurrently
    # COW-fault private pages out of one shared snapshot image — the race
    # TSan is here to rule out.
    TSAN_OPTIONS=halt_on_error=1 build-ci-tsan/bench/fleet_clone --smoke
    # fleet_ring --smoke under TSan: communicating VMs park/notify through
    # the ring-channel mutex and the fleet work queues while exchanging
    # cycle-stamped messages; the bench's built-in bit-identity gate runs
    # with race detection live.
    TSAN_OPTIONS=halt_on_error=1 build-ci-tsan/bench/fleet_ring --smoke
    # fleet_pool --smoke under TSan: worker threads submit clone jobs into
    # the live channel from inside running jobs while other workers steal
    # them — the scheduler-mutation race TSan is here to rule out.
    TSAN_OPTIONS=halt_on_error=1 build-ci-tsan/bench/fleet_pool --smoke
}

leg_nochecks() {
    cmake -B build-ci-nochecks -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DKVMARM_INVARIANTS=OFF
    cmake --build build-ci-nochecks -j"$JOBS"
    run_suite build-ci-nochecks
}

leg_domlint() {
    # The domain-aware pass must be clean over the whole tree (every
    # finding fixed or carrying a justified suppression), and the fixture
    # corpus proves each rule family still fires and each suppression
    # form still parses.
    tools/domlint
    tests/domlint/run_fixtures.sh
}

leg_lint() {
    tools/lint.sh --changed
}

leg_threadsafety() {
    # Clang thread-safety analysis over the annotated locking surfaces.
    # sim/thread_annotations.hh expands to no-ops under GCC, so this leg
    # is the one that actually checks the GUARDED_BY/ACQUIRE/RELEASE
    # contracts on the invariant-engine facade, the logging writer, and
    # the fleet deques. Skips (successfully) when clang is not installed
    # locally; the GitHub workflow installs clang so CI always runs it.
    local cxx=""
    for c in clang++ clang++-19 clang++-18 clang++-17 clang++-16 \
             clang++-15 clang++-14; do
        if command -v "$c" >/dev/null 2>&1; then
            cxx=$c
            break
        fi
    done
    if [ -z "$cxx" ]; then
        echo "threadsafety: clang++ not found; skipping (CI installs it)"
        return 0
    fi
    local rc=0
    for f in src/check/invariants.cc src/sim/logging.cc src/sim/fleet.cc \
             src/sim/ring_channel.cc; do
        echo "$cxx -Wthread-safety $f"
        "$cxx" -std=c++20 -fsyntax-only -Isrc \
            -Wthread-safety -Werror=thread-safety-analysis "$f" || rc=1
    done
    if [ "$rc" -ne 0 ]; then
        echo "threadsafety: analysis findings above" >&2
        return 1
    fi
    echo "threadsafety: clean"
}

leg_format() {
    tools/format.sh --check
}

legs=${*:-release asan tsan nochecks domlint lint threadsafety format}
for leg in $legs; do
    echo "==== ci leg: $leg ===="
    "leg_$leg"
done
echo "==== ci: all legs passed ===="
