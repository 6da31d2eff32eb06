/**
 * @file
 * Fleet clone benchmark: VM spin-up cost from a copy-on-write machine
 * snapshot versus a full cold boot (DESIGN.md §4.9).
 *
 * One golden VM is booted and warmed (Stage-2 populated, caches hot,
 * ~1024 guest pages faulted in), quiesced, and captured with
 * MachineBase::takeSnapshot(). An 8-VM fleet is then spun up twice at each
 * of 1, 2, 4, and 8 host threads: once with every VM cold-booting through
 * the same boot + warmup phases, and once with every VM cloning the shared
 * snapshot (construct the machine skeleton, restoreSnapshot, go). Every VM
 * then runs an index-varied mixed workload.
 *
 * Two gates run on every invocation (exit code 1 on failure):
 *  - Bit-identity: per-VM workload sim_cycles AND full stat dumps must be
 *    identical between a cold-booted VM, a cloned VM, and the origin
 *    machine continuing past its own snapshot — at every thread count and
 *    in every check mode. A clone is indistinguishable from the machine it
 *    was cloned from, and taking a snapshot never perturbs the origin.
 *  - Spin-up (full mode only): the summed 8-VM clone spin-up time must be
 *    at least 3x faster than the summed 8-VM cold-boot time at 8 threads.
 *
 * The whole sweep repeats under KVMARM_CHECK=enforce ("*_enforce" rows):
 * snapshot restore replays Stage-2 and Hyp-page protection history into the
 * clone's private invariant engine, so checked clones must also be
 * bit-identical to checked cold boots.
 *
 * Output: BENCH_fleet_clone.json, following the host_tput baseline
 * discipline: an existing "baseline" section is preserved so speedups track
 * the committed trajectory; --rebaseline replaces it; --smoke shrinks the
 * warmup/workload and never writes unless --out is given.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arm/machine.hh"
#include "check/invariants.hh"
#include "core/kvm.hh"
#include "host/kernel.hh"
#include "sim/fleet.hh"
#include "sim/logging.hh"

namespace {

using namespace kvmarm;
using arm::ArmCpu;
using arm::ArmMachine;

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Warmup / workload sizes (shrunk by --smoke). */
struct Sizes
{
    std::uint64_t warmPages = 1024; //!< guest pages faulted in pre-snapshot
    std::uint64_t warmHvc = 2000;
    std::uint64_t warmMmio = 1000;
    std::uint64_t reads = 20'000; //!< workload base iteration counts
    std::uint64_t hvcs = 2'000;
    std::uint64_t mmios = 1'000;
    std::uint64_t freshPages = 256;

    void
    smoke()
    {
        warmPages = 128;
        warmHvc = 200;
        warmMmio = 100;
        reads = 2'000;
        hvcs = 200;
        mmios = 100;
        freshPages = 32;
    }
};

/** Guest ops one VM's workload performs (for aggregate ops/sec). */
std::uint64_t
workloadOps(const Sizes &sz, unsigned index)
{
    return (sz.reads + sz.reads / 8 * index) +
           (sz.hvcs + sz.hvcs / 8 * index) +
           (sz.mmios + sz.mmios / 8 * index) +
           (sz.freshPages + sz.freshPages / 8 * index);
}

/** What one VM spin-up + workload produced. */
struct VmOutcome
{
    Cycles simCycles = 0;      //!< workload leg only
    std::string statDump;      //!< cpu0 + vcpu stats after the workload
    double spinupSeconds = 0;  //!< boot+warmup (cold) or restore (clone)
    std::uint64_t cowFaults = 0;
};

/**
 * One full-stack cloneable VM, the same two-phase shape the clone
 * determinism test proves correct: a boot/warmup leg that quiesces, then a
 * workload leg. Clones skip the boot leg and adopt the shared snapshot.
 */
class CloneVm
{
  public:
    explicit CloneVm(const Sizes &sz)
        : sz_(sz), machine_(makeConfig()), hostk_(machine_), kvm_(hostk_)
    {
    }

    ArmMachine &machine() { return machine_; }

    void
    coldBoot()
    {
        machine_.cpu(0).setEntry([this] {
            ArmCpu &cpu = machine_.cpu(0);
            hostk_.boot(0);
            if (!kvm_.initCpu(cpu))
                fatal("fleet_clone: KVM init failed");
            buildVmSkeleton();
            vcpu_->run(cpu, [this](ArmCpu &c) { warmup(c); });
        });
        machine_.run();
    }

    void
    cloneFrom(const MachineSnapshot &snap)
    {
        kvm_.primeForRestore();
        buildVmSkeleton();
        machine_.restoreSnapshot(snap);
    }

    void
    runWorkload(unsigned index, VmOutcome &out)
    {
        machine_.cpu(0).setEntry([this, &out, index] {
            ArmCpu &cpu = machine_.cpu(0);
            vcpu_->run(cpu, [this, &out, index](ArmCpu &c) {
                Cycles sim0 = c.now();
                workload(c, index);
                out.simCycles = c.now() - sim0;
            });
        });
        machine_.run();

        std::ostringstream os;
        machine_.cpu(0).stats().dump(os, "cpu0.");
        vcpu_->stats.dump(os, "vcpu.");
        out.statDump = os.str();
        out.cowFaults = machine_.ram().cowFaults();
    }

  private:
    static ArmMachine::Config
    makeConfig()
    {
        ArmMachine::Config mc;
        mc.numCpus = 1;
        mc.ramSize = 128 * kMiB;
        return mc;
    }

    void
    buildVmSkeleton()
    {
        vm_ = kvm_.createVm(64 * kMiB);
        vcpu_ = &vm_->addVcpu(0);
        vm_->addKernelDevice(core::Vm::kKernelTestDevBase, 0x1000,
                             [](bool, Addr, std::uint64_t, unsigned) {
                                 return std::uint64_t{0};
                             });
    }

    /** Populate Stage-2 and warm the trap paths: this is the work a clone
     *  inherits from the snapshot instead of redoing. */
    void
    warmup(ArmCpu &c)
    {
        const Addr base = vm_->ramBase();
        for (std::uint64_t i = 0; i < sz_.warmPages; ++i)
            c.memWrite(base + Addr(i) * kPageSize,
                       0xA0000000u + static_cast<std::uint32_t>(i), 4);
        for (std::uint64_t i = 0; i < sz_.warmHvc; ++i)
            c.hvc(core::hvc::kTestHypercall);
        for (std::uint64_t i = 0; i < sz_.warmMmio; ++i)
            c.memWrite(core::Vm::kKernelTestDevBase,
                       static_cast<std::uint32_t>(i), 4);
    }

    /** Index-varied mixed workload: reads on warm pages, hypercalls, MMIO,
     *  and fresh Stage-2 faults (which COW-fault shared pages in clones). */
    void
    workload(ArmCpu &c, unsigned index)
    {
        const Addr base = vm_->ramBase();
        for (std::uint64_t i = 0; i < sz_.reads + sz_.reads / 8 * index; ++i)
            c.memRead(base + ((i & 127) * 8), 4);
        for (std::uint64_t i = 0; i < sz_.hvcs + sz_.hvcs / 8 * index; ++i)
            c.hvc(core::hvc::kTestHypercall);
        for (std::uint64_t i = 0; i < sz_.mmios + sz_.mmios / 8 * index; ++i)
            c.memWrite(core::Vm::kKernelTestDevBase,
                       static_cast<std::uint32_t>(i), 4);
        const Addr fresh = base + 16 * kMiB;
        const std::uint64_t pages =
            sz_.freshPages + sz_.freshPages / 8 * index;
        for (std::uint64_t i = 0; i < pages; ++i)
            c.memWrite(fresh + Addr(i) * kPageSize,
                       0xB000 + static_cast<std::uint32_t>(i), 4);
    }

    const Sizes &sz_;
    ArmMachine machine_;
    host::HostKernel hostk_;
    core::Kvm kvm_;
    std::unique_ptr<core::Vm> vm_;
    core::VCpu *vcpu_ = nullptr;
};

/** One (spin-up mode, thread count) point of the sweep. */
struct Result
{
    std::string name;   //!< "cold_N" / "clone_N" plus the mode suffix
    std::string suffix; //!< "" (unchecked) or "_enforce"
    bool clone = false;
    unsigned threads = 0;
    std::uint64_t iterations = 0; //!< total guest ops across the fleet
    double wallSeconds = 0;       //!< whole fleet: spin-up + workload
    double spinupSeconds = 0;     //!< summed per-VM spin-up time
    double opsPerSec = 0;
    std::uint64_t simCycles = 0; //!< sum of per-VM workload sim cycles
    std::vector<VmOutcome> vms;
};

Result
runFleetSweep(const Sizes &sz, unsigned vms, unsigned threads, bool clone,
              const MachineSnapshot *snap, const std::string &suffix)
{
    Result res;
    res.clone = clone;
    res.threads = threads;
    res.suffix = suffix;
    res.name = std::string(clone ? "clone_" : "cold_") +
               std::to_string(threads) + suffix;
    res.vms.resize(vms);

    Fleet fleet(threads);
    for (unsigned i = 0; i < vms; ++i) {
        res.iterations += workloadOps(sz, i);
        fleet.submit(res.name + "-vm" + std::to_string(i),
                     [&sz, &res, snap, clone, i] {
                         auto t0 = Clock::now();
                         CloneVm vm(sz);
                         if (clone)
                             vm.cloneFrom(*snap);
                         else
                             vm.coldBoot();
                         res.vms[i].spinupSeconds = seconds(t0, Clock::now());
                         vm.runWorkload(i, res.vms[i]);
                     });
    }

    auto t0 = Clock::now();
    fleet.start();
    std::vector<Fleet::JobResult> jobs = fleet.shutdown();
    res.wallSeconds = seconds(t0, Clock::now());

    for (const Fleet::JobResult &j : jobs) {
        if (!j.ok)
            fatal("fleet_clone: job %s failed: %s", j.name.c_str(),
                  j.error.c_str());
    }
    res.opsPerSec =
        res.wallSeconds > 0 ? double(res.iterations) / res.wallSeconds : 0;
    for (const VmOutcome &o : res.vms) {
        res.simCycles += o.simCycles;
        res.spinupSeconds += o.spinupSeconds;
    }
    return res;
}

/**
 * Run the full sweep in the current check mode: boot + snapshot the golden
 * origin, continue the origin past its snapshot (outcome appended last to
 * @p origin_runs), then cold and clone fleets at each thread count.
 */
void
runSweep(const Sizes &sz, unsigned vms, const std::string &suffix,
         std::vector<Result> &out, std::vector<VmOutcome> &origin_runs,
         double &golden_boot_seconds, std::uint64_t &shared_pages)
{
    auto t0 = Clock::now();
    CloneVm origin(sz);
    origin.coldBoot();
    std::shared_ptr<const MachineSnapshot> snap =
        origin.machine().takeSnapshot();
    golden_boot_seconds = seconds(t0, Clock::now());
    shared_pages = origin.machine().ram().sharedPages();

    // The origin continues past its own snapshot with workload index 0 —
    // the reference every cold_*/clone_* vm0 must match bit-for-bit.
    VmOutcome origin_out;
    origin.runWorkload(0, origin_out);
    origin_runs.push_back(origin_out);

    const unsigned threadCounts[] = {1, 2, 4, 8};
    for (unsigned t : threadCounts)
        out.push_back(runFleetSweep(sz, vms, t, false, nullptr, suffix));
    for (unsigned t : threadCounts)
        out.push_back(runFleetSweep(sz, vms, t, true, snap.get(), suffix));
}

/** Recover the "baseline" section of a previously emitted JSON file (the
 *  exact format emitted below — not a general JSON parser). */
std::map<std::string, Result>
readBaseline(const std::string &path)
{
    std::map<std::string, Result> out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    std::size_t sec = text.find("\"baseline\"");
    if (sec == std::string::npos)
        return out;
    std::size_t open = text.find('{', sec);
    if (open == std::string::npos)
        return out;
    int depth = 0;
    std::size_t close = open;
    for (; close < text.size(); ++close) {
        if (text[close] == '{')
            ++depth;
        else if (text[close] == '}' && --depth == 0)
            break;
    }
    const std::string section = text.substr(open, close - open + 1);

    std::size_t pos = 1;
    while (true) {
        std::size_t q0 = section.find('"', pos);
        if (q0 == std::string::npos)
            break;
        std::size_t q1 = section.find('"', q0 + 1);
        if (q1 == std::string::npos)
            break;
        Result r;
        r.name = section.substr(q0 + 1, q1 - q0 - 1);
        std::size_t obj = section.find('{', q1);
        std::size_t end = section.find('}', obj);
        if (obj == std::string::npos || end == std::string::npos)
            break;
        const std::string fields = section.substr(obj, end - obj);
        auto num = [&](const char *key, double &v) {
            std::size_t k = fields.find(key);
            if (k != std::string::npos)
                v = std::strtod(
                    fields.c_str() + fields.find(':', k) + 1, nullptr);
        };
        double iters = 0, wall = 0, spin = 0, ops = 0, cycles = 0;
        num("\"iterations\"", iters);
        num("\"wall_seconds\"", wall);
        num("\"spinup_seconds\"", spin);
        num("\"ops_per_sec\"", ops);
        num("\"sim_cycles\"", cycles);
        r.iterations = static_cast<std::uint64_t>(iters);
        r.wallSeconds = wall;
        r.spinupSeconds = spin;
        r.opsPerSec = ops;
        r.simCycles = static_cast<std::uint64_t>(cycles);
        out[r.name] = r;
        pos = end + 1;
    }
    return out;
}

void
writeSection(std::FILE *f, const char *name, const std::vector<Result> &rows)
{
    std::fprintf(f, "  \"%s\": {\n", name);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Result &r = rows[i];
        std::fprintf(f,
                     "    \"%s\": { \"iterations\": %llu, "
                     "\"wall_seconds\": %.6f, \"spinup_seconds\": %.6f, "
                     "\"ops_per_sec\": %.1f, \"sim_cycles\": %llu }%s\n",
                     r.name.c_str(),
                     static_cast<unsigned long long>(r.iterations),
                     r.wallSeconds, r.spinupSeconds, r.opsPerSec,
                     static_cast<unsigned long long>(r.simCycles),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
}

const Result *
findRow(const std::vector<Result> &rows, const std::string &name)
{
    for (const Result &r : rows)
        if (r.name == name)
            return &r;
    return nullptr;
}

void
writeJson(const std::string &path, unsigned vms,
          const std::vector<Result> &current,
          const std::vector<Result> &baseline, bool smoke,
          double golden_boot_seconds, std::uint64_t shared_pages)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("fleet_clone: cannot write %s", path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"fleet_clone\",\n");
    std::fprintf(f, "  \"schema_version\": 1,\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
#if KVMARM_INVARIANTS_ENABLED
    std::fprintf(f, "  \"kvmarm_check\": \"off,enforce\",\n");
#else
    std::fprintf(f, "  \"kvmarm_check\": \"disabled\",\n");
#endif
    std::fprintf(f, "  \"fleet_size\": %u,\n", vms);
    std::fprintf(f, "  \"host_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"deterministic\": true,\n");
    std::fprintf(f, "  \"golden_boot_seconds\": %.6f,\n",
                 golden_boot_seconds);
    std::fprintf(f, "  \"snapshot_shared_pages\": %llu,\n",
                 static_cast<unsigned long long>(shared_pages));
    std::fprintf(f, "  \"vm_sim_cycles\": [");
    for (std::size_t i = 0; i < current.front().vms.size(); ++i) {
        std::fprintf(f, "%s%llu", i ? ", " : "",
                     static_cast<unsigned long long>(
                         current.front().vms[i].simCycles));
    }
    std::fprintf(f, "],\n");
    writeSection(f, "baseline", baseline);
    writeSection(f, "current", current);
    // Headline ratios: clone spin-up advantage at each thread count.
    std::fprintf(f, "  \"spinup_speedup\": {\n");
    bool first = true;
    for (const Result &r : current) {
        if (!r.clone)
            continue;
        const Result *cold = findRow(
            current, "cold_" + std::to_string(r.threads) + r.suffix);
        double sp = (cold && r.spinupSeconds > 0)
                        ? cold->spinupSeconds / r.spinupSeconds
                        : 0;
        std::fprintf(f, "%s    \"%s\": %.2f", first ? "" : ",\n",
                     r.name.c_str(), sp);
        first = false;
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
}

/**
 * The bit-identity gate: per-VM workload sim_cycles and stat dumps must
 * match between every row (cold and clone, every thread count) within one
 * check-mode suffix, and vm0 must also match the continuing origin.
 */
bool
checkBitIdentity(const std::vector<Result> &current,
                 const std::vector<VmOutcome> &origin_runs,
                 const std::vector<std::string> &suffixes)
{
    bool ok = true;
    for (std::size_t s = 0; s < suffixes.size(); ++s) {
        const Result *ref = findRow(current, "cold_1" + suffixes[s]);
        if (!ref)
            continue;
        for (const Result &r : current) {
            if (r.suffix != suffixes[s])
                continue;
            for (std::size_t v = 0; v < r.vms.size(); ++v) {
                if (r.vms[v].simCycles != ref->vms[v].simCycles) {
                    std::fprintf(stderr,
                                 "fleet_clone: DETERMINISM VIOLATION: vm%zu "
                                 "sim_cycles %llu at %s vs %llu at %s\n",
                                 v,
                                 static_cast<unsigned long long>(
                                     r.vms[v].simCycles),
                                 r.name.c_str(),
                                 static_cast<unsigned long long>(
                                     ref->vms[v].simCycles),
                                 ref->name.c_str());
                    ok = false;
                }
                if (r.vms[v].statDump != ref->vms[v].statDump) {
                    std::fprintf(stderr,
                                 "fleet_clone: STAT DIVERGENCE: vm%zu stat "
                                 "dump at %s differs from %s\n",
                                 v, r.name.c_str(), ref->name.c_str());
                    ok = false;
                }
            }
        }
        // The origin that the snapshot was taken FROM, continuing with the
        // same index-0 workload, must match too: taking a snapshot does
        // not perturb the machine.
        const VmOutcome &og = origin_runs[s];
        if (og.simCycles != ref->vms[0].simCycles ||
            og.statDump != ref->vms[0].statDump) {
            std::fprintf(stderr,
                         "fleet_clone: ORIGIN DIVERGENCE%s: continuing "
                         "origin (sim_cycles %llu) differs from cold-booted "
                         "vm0 (%llu)\n",
                         suffixes[s].c_str(),
                         static_cast<unsigned long long>(og.simCycles),
                         static_cast<unsigned long long>(
                             ref->vms[0].simCycles));
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool rebaseline = false;
    unsigned vms = 8;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--rebaseline") == 0) {
            rebaseline = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(argv[i], "--fleet") == 0 && i + 1 < argc) {
            vms = static_cast<unsigned>(std::atoi(argv[++i]));
        } else {
            std::fprintf(stderr,
                         "usage: fleet_clone [--smoke] [--rebaseline] "
                         "[--fleet N] [--out file.json]\n");
            return 2;
        }
    }
    if (out.empty() && !smoke)
        out = "BENCH_fleet_clone.json";
    if (vms == 0)
        vms = 1;

    setInformEnabled(false);
    Sizes sz;
    if (smoke)
        sz.smoke();

    std::vector<Result> current;
    std::vector<VmOutcome> origin_runs;
    std::vector<std::string> suffixes{""};
    double golden_boot_seconds = 0;
    std::uint64_t shared_pages = 0;
    runSweep(sz, vms, "", current, origin_runs, golden_boot_seconds,
             shared_pages);

#if KVMARM_INVARIANTS_ENABLED
    {
        // Same sweep, every machine's private engine in enforce mode. The
        // scope wraps snapshot creation too: the golden image and every
        // clone restore replay their protection history into checked
        // engines.
        check::ScopedCheckMode enforce(check::CheckMode::Enforce);
        double boot_enf = 0;
        std::uint64_t pages_enf = 0;
        runSweep(sz, vms, "_enforce", current, origin_runs, boot_enf,
                 pages_enf);
        suffixes.push_back("_enforce");
    }
#endif

    std::printf("\n=== Fleet clone spin-up (%u VMs, host_cpus=%u, golden "
                "boot %.3fs, %llu shared pages) ===\n",
                vms, std::thread::hardware_concurrency(),
                golden_boot_seconds,
                static_cast<unsigned long long>(shared_pages));
    std::printf("%-18s %10s %12s %14s %12s\n", "sweep point", "wall[s]",
                "spinup[s]", "agg ops/sec", "spinup gain");
    for (const Result &r : current) {
        double gain = 0;
        if (r.clone) {
            const Result *cold = findRow(
                current, "cold_" + std::to_string(r.threads) + r.suffix);
            if (cold && r.spinupSeconds > 0)
                gain = cold->spinupSeconds / r.spinupSeconds;
        }
        std::printf("%-18s %10.3f %12.4f %14.0f %11.2fx\n", r.name.c_str(),
                    r.wallSeconds, r.spinupSeconds, r.opsPerSec, gain);
    }

    if (!checkBitIdentity(current, origin_runs, suffixes))
        return 1;
    std::printf("per-VM sim_cycles and stat dumps bit-identical: cold boot "
                "== clone == continuing origin, all thread counts and "
                "check modes\n");

    // Spin-up gate (full runs only; smoke warmups are too small to be a
    // meaningful boot-cost proxy): 8 clones must spin up >= 3x faster
    // than 8 cold boots.
    if (!smoke) {
        const Result *cold8 = findRow(current, "cold_8");
        const Result *clone8 = findRow(current, "clone_8");
        if (cold8 && clone8 && clone8->spinupSeconds > 0) {
            double gain = cold8->spinupSeconds / clone8->spinupSeconds;
            if (gain < 3.0) {
                std::fprintf(stderr,
                             "fleet_clone: SPIN-UP GATE FAILED: clone "
                             "spin-up only %.2fx faster than cold boot "
                             "(need >= 3x)\n",
                             gain);
                return 1;
            }
            std::printf("spin-up gate: 8-clone spin-up %.1fx faster than 8 "
                        "cold boots\n", gain);
        }
    }

    if (!out.empty()) {
        std::map<std::string, Result> prior = readBaseline(out);
        std::vector<Result> baseline;
        for (const Result &r : current) {
            auto itb = prior.find(r.name);
            baseline.push_back(
                (!rebaseline && itb != prior.end()) ? itb->second : r);
        }
        writeJson(out, vms, current, baseline, smoke, golden_boot_seconds,
                  shared_pages);
        std::printf("\nwrote %s\n", out.c_str());
    }
    return 0;
}
