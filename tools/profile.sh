#!/usr/bin/env bash
# Host-time profile of one perfbench workload, rolled up by src/ layer.
#
#   tools/profile.sh <paper_suite|ring_fleet|spawn_fleet> [seconds] [seed]
#
# Builds the unmodified perfbench package (Release, plus -g for line
# tables and -fno-omit-frame-pointer for the stack walk) into
# .profile_build/, runs it with tools/profile_sampler.c preloaded, and
# writes PROFILE_<workload>.json:
#   self      share of samples whose PC is in each place: a src/ layer,
#             bench/perfbench, or a shared library such as libc.so.6;
#   layer     share charged to the innermost src/ (or bench) frame on the
#             stack, so time in libc and the kernel lands on its caller;
#   top       the hottest leaf symbols.
# Unlike gprof (-pg), the SIGPROF sampler counts time in libc and behind
# syscalls, and adds no instrumentation calls to small functions.
set -eu

cd "$(dirname "$0")/.."
workload=${1:?usage: tools/profile.sh <workload> [seconds] [seed]}
seconds=${2:-10}
seed=${3:-1}
build=.profile_build

cmake -S perfbench -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer" >/dev/null
cmake --build "$build" --target perfbench -j4 >/dev/null
cc -O2 -shared -fPIC -o "$build/profile_sampler.so" tools/profile_sampler.c

out="$build/out"
rm -rf "$out"
mkdir -p "$out"
(cd "$out" && LD_PRELOAD="$PWD/../profile_sampler.so" ../perfbench \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    --refs ../../perfbench/refs \
    --golden ../../bench/golden/table3_micro.txt --out . >run.log)

python3 - "$workload" "$build/perfbench" "$out" "$PWD" <<'EOF'
import collections, functools, glob, json, os, subprocess, sys

workload, binary, out_dir, root = sys.argv[1:]
binary = os.path.realpath(binary)
samples, maps = [], []
for path in glob.glob(os.path.join(out_dir, "profile-samples.*.txt")):
    for line in open(path):
        if line.startswith("S "):
            samples.append([int(w, 16) for w in line.split()[1:]])
        elif line.startswith("M "):
            f = line.split()
            # Only file-backed mappings can be resolved; pseudo-mappings
            # such as [vdso] (clock_gettime) stay unmapped and count as
            # "other".
            if len(f) >= 7 and "x" in f[2] and f[6].startswith("/"):
                lo, hi = (int(x, 16) for x in f[1].split("-"))
                maps.append((lo, hi, int(f[3], 16), f[6]))
if not samples:
    sys.exit("profile.sh: no samples recorded")

def is_pie(path):
    with open(path, "rb") as f:
        return f.read(18)[16] == 3  # ELF e_type ET_DYN

@functools.lru_cache(maxsize=None)
def locate(addr):
    """(mapped file, address to look up in it), or (None, None)."""
    for lo, hi, off, path in maps:
        if lo <= addr < hi:
            return path, addr - lo + off if is_pie(path) else addr
    return None, None

# Resolve every address once per mapped file; -i lists inline frames
# innermost first, and the first one inside the tree names the layer.
wanted = collections.defaultdict(set)
for s in samples:
    for i, a in enumerate(s):
        a -= i > 0  # a return address resolves to its call
        if locate(a)[0]:
            wanted[locate(a)[0]].add(a)
resolved = {}
for path, addrs in wanted.items():
    addrs = sorted(addrs)
    text = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", path]
        + [hex(locate(a)[1]) for a in addrs],
        capture_output=True, text=True).stdout.splitlines()
    frames, it = [], iter(addrs)
    for line in text + ["0x"]:
        if line.startswith("0x"):
            if frames:
                resolved[next(it)] = frames
            frames = []
        else:
            frames.append(line)

@functools.lru_cache(maxsize=None)
def where(addr):
    """(src/ layer, bench, perfbench or None; symbol) for one address."""
    path = locate(addr)[0]
    pairs = resolved.get(addr, ["??", "??"])
    symbol = pairs[0]
    if path != binary:
        # Stripped libraries resolve only to the nearest exported symbol.
        lib = os.path.basename(path or "?")
        return None, lib if symbol == "??" else "%s (near %s)" % (lib, symbol)
    for loc in pairs[1::2]:
        src = loc.split(":")[0]
        if not src.startswith("/"):
            continue  # "??": no line table for this address
        parts = os.path.relpath(src, root).split(os.sep)
        if parts[0] == "src" and len(parts) > 2:
            return parts[1], symbol
        if parts[0] in ("bench", "perfbench"):
            return parts[0], symbol
    return None, symbol

self_c, layer_c, top_c = (collections.Counter() for _ in range(3))
for s in samples:
    leaf_layer, leaf_sym = where(s[0])
    path = locate(s[0])[0]
    lib = os.path.basename(path) if path and path != binary else None
    self_c[leaf_layer or lib or "other"] += 1
    top_c[leaf_sym] += 1
    owner = leaf_layer
    for ret in s[1:]:
        if owner:
            break
        owner = where(ret - 1)[0]
    layer_c[owner or "unattributed"] += 1

n = len(samples)
share = lambda c: {k: round(v / n, 4) for k, v in c.most_common()}
profile = {"workload": workload, "samples": n,
           "sampler": "SIGPROF on ITIMER_PROF (1 ms, tick-limited), frame-pointer walk",
           "self": share(self_c), "layer": share(layer_c),
           "top": [{"symbol": k, "self": round(v / n, 4)}
                   for k, v in top_c.most_common(25)]}
dest = os.path.join(root, "PROFILE_%s.json" % workload)
with open(dest, "w") as f:
    json.dump(profile, f, indent=1)
    f.write("\n")
print("wrote %s (%d samples)" % (dest, n))
EOF
