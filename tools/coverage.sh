#!/usr/bin/env bash
# Line coverage of src/ by the tier-1 test suite, per layer and in total.
#
#   tools/coverage.sh [build-dir]      (default: build-coverage)
#
# Builds the tree with --coverage (no optimization, so every source line
# maps to code), runs ctest, then runs gcov over every object of the src/
# libraries. A line counts once however many translation units compile
# it (headers), and is covered if any of them executed it. Uses gcov's
# JSON output only; gcovr and lcov are not needed.
set -eu

cd "$(dirname "$0")/.."
dir=${1:-build-coverage}
jobs=$(nproc 2>/dev/null || echo 4)

cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O0" \
    -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$dir" -j"$jobs" >/dev/null
find "$dir" -name '*.gcda' -delete
if ! ctest --test-dir "$dir" -j"$jobs" >"$dir/coverage-ctest.log" 2>&1; then
    echo "coverage: some tests failed (see $dir/coverage-ctest.log);" \
        "coverage is of the tests that ran" >&2
fi

python3 - "$dir" "$PWD" <<'EOF'
import collections, glob, json, os, subprocess, sys

build, root = os.path.abspath(sys.argv[1]), sys.argv[2]
src = os.path.join(root, "src") + os.sep
lines = collections.defaultdict(dict)  # file -> line -> executed?
gcdas = glob.glob(os.path.join(build, "src", "**", "*.gcda"), recursive=True)
if not gcdas:
    sys.exit("coverage: no .gcda files under %s/src" % build)
for gcda in sorted(gcdas):
    out = subprocess.run(["gcov", "--json-format", "--stdout", gcda],
                         cwd=os.path.dirname(gcda), capture_output=True,
                         text=True, check=True).stdout
    for doc in out.splitlines():
        if not doc.strip():
            continue
        for f in json.loads(doc)["files"]:
            path = os.path.normpath(os.path.join(root, f["file"]))
            if not path.startswith(src):
                continue
            seen = lines[path]
            for ln in f["lines"]:
                n = ln["line_number"]
                seen[n] = seen.get(n, False) or ln["count"] > 0

per_layer = collections.defaultdict(lambda: [0, 0])
for path, seen in lines.items():
    layer = os.path.relpath(path, src).split(os.sep)[0]
    per_layer[layer][0] += sum(seen.values())
    per_layer[layer][1] += len(seen)
print("%-10s %8s %8s %7s" % ("layer", "covered", "lines", "pct"))
hit = tot = 0
for layer in sorted(per_layer):
    h, t = per_layer[layer]
    hit, tot = hit + h, tot + t
    print("%-10s %8d %8d %6.1f%%" % (layer, h, t, 100.0 * h / t))
print("%-10s %8d %8d %6.1f%%" % ("total", hit, tot, 100.0 * hit / tot))
EOF
