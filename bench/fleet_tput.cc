/**
 * @file
 * Fleet throughput benchmark: aggregate simulator speed when many VMs run
 * concurrently on a host thread pool (DESIGN.md §4.7).
 *
 * An 8-VM mixed-workload fleet — compute-bound, world-switch storm, MMIO
 * storm, and Stage-2 fault storm VMs, with the second half of the fleet
 * doing twice the work so finishing times are deliberately uneven — is run
 * to completion at 1, 2, 4, and 8 host threads. Each VM is one Fleet job:
 * a fully private machine + host kernel + KVM stack, so per-VM simulated
 * cycle counts must be bit-identical at every thread count. The bench
 * enforces that itself (exit code 1 on any divergence) in addition to the
 * ctest determinism test.
 *
 * The whole sweep then repeats under KVMARM_CHECK=enforce ("threads_N_
 * enforce" rows): every VM job's machine builds its own private invariant
 * engine, so the checked hot path takes no locks and enforce-mode scaling
 * can be compared row-for-row against the unchecked sweep. The determinism
 * gate covers the checked rows too — per-VM simulated cycles must be
 * bit-identical across thread counts AND across off vs enforce, because
 * the engine observes and never charges.
 *
 * Reported per thread count: fleet wall seconds, aggregate guest-ops/sec,
 * speedup vs the 1-thread run of the same sweep and mode, and scaling
 * efficiency (speedup / threads). host_cpus is recorded because efficiency
 * is bounded by the cores actually available, not the thread count
 * requested.
 *
 * Output: BENCH_fleet.json, following the host_tput baseline discipline:
 * an existing "baseline" section is preserved so speedups track the
 * committed trajectory; --rebaseline replaces it; --smoke shrinks the
 * iteration counts and never writes unless --out is given.
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

/** The four VM workload flavors; vm index i runs flavor i % 4. */
enum class Flavor
{
    Compute,     //!< straight-line guest loads (micro-TLB resident)
    WorldSwitch, //!< back-to-back null hypercalls
    Mmio,        //!< stores to an in-kernel emulated device
    Stage2,      //!< every access touches a fresh page
};

const char *
flavorName(Flavor f)
{
    switch (f) {
      case Flavor::Compute: return "compute";
      case Flavor::WorldSwitch: return "wswitch";
      case Flavor::Mmio: return "mmio";
      case Flavor::Stage2: return "stage2";
    }
    return "?";
}

/** Per-flavor full-run iteration counts (scaled per VM, see vmIters). */
struct Iters
{
    std::uint64_t compute = 600'000;
    std::uint64_t worldSwitch = 60'000;
    std::uint64_t mmio = 60'000;
    /** Every iteration touches a fresh page; the doubled back-half walk
     *  (2 × 6144 pages = 48 MiB, starting 4 MiB in) must stay inside the
     *  64 MiB of VM RAM. */
    std::uint64_t stage2 = 6'144;

    void
    smoke()
    {
        compute = 6'000;
        worldSwitch = 600;
        mmio = 600;
        stage2 = 256;
    }
};

struct VmSpec
{
    unsigned index = 0;
    Flavor flavor = Flavor::Compute;
    std::uint64_t iters = 0;
};

/** Mixed fleet: flavors cycle; the back half does double work so the
 *  per-worker load is uneven and job stealing actually engages. */
std::vector<VmSpec>
fleetSpec(unsigned vms, const Iters &it)
{
    std::vector<VmSpec> spec;
    for (unsigned i = 0; i < vms; ++i) {
        VmSpec s;
        s.index = i;
        s.flavor = static_cast<Flavor>(i % 4);
        std::uint64_t base = 0;
        switch (s.flavor) {
          case Flavor::Compute: base = it.compute; break;
          case Flavor::WorldSwitch: base = it.worldSwitch; break;
          case Flavor::Mmio: base = it.mmio; break;
          case Flavor::Stage2: base = it.stage2; break;
        }
        s.iters = base * (1 + i / 4);
        spec.push_back(s);
    }
    return spec;
}

/** What one VM run produced (written by its Fleet job). */
struct VmOutcome
{
    Cycles simCycles = 0;
};

/**
 * One whole-VM job: a private machine + host + KVM stack + 1-VCPU guest
 * running the flavor's storm. Identical to host_tput's per-scenario stack
 * so fleet numbers compose with the single-VM baseline.
 */
void
runVm(const VmSpec &spec, VmOutcome &out)
{
    ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 128 * kMiB;
    ArmMachine machine(mc);
    host::HostKernel hostk(machine);
    core::Kvm kvm(hostk, core::KvmConfig{});

    machine.cpu(0).setEntry([&] {
        ArmCpu &cpu = machine.cpu(0);
        hostk.boot(0);
        if (!kvm.initCpu(cpu))
            fatal("fleet_tput: KVM init failed");
        std::unique_ptr<core::Vm> vm = kvm.createVm(64 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);

        vm->addKernelDevice(core::Vm::kKernelTestDevBase, 0x1000,
                            [](bool, Addr, std::uint64_t, unsigned) {
                                return std::uint64_t{0};
                            });

        vcpu.run(cpu, [&](ArmCpu &c) {
            const std::uint64_t n = spec.iters;
            Cycles sim0 = c.now();
            switch (spec.flavor) {
              case Flavor::Compute: {
                  const Addr page = vm->ramBase() + 0x10000;
                  c.memRead(page, 4); // warm: fault + map + TLB fill
                  for (std::uint64_t i = 0; i < n; ++i)
                      c.memRead(page + ((i & 127) * 8), 4);
                  break;
              }
              case Flavor::WorldSwitch: {
                  c.hvc(core::hvc::kTestHypercall); // warm lazy state
                  for (std::uint64_t i = 0; i < n; ++i)
                      c.hvc(core::hvc::kTestHypercall);
                  break;
              }
              case Flavor::Mmio: {
                  c.memWrite(core::Vm::kKernelTestDevBase, 0, 4); // warm
                  for (std::uint64_t i = 0; i < n; ++i)
                      c.memWrite(core::Vm::kKernelTestDevBase,
                                 static_cast<std::uint32_t>(i), 4);
                  break;
              }
              case Flavor::Stage2: {
                  const Addr base = vm->ramBase() + 0x400000;
                  for (std::uint64_t i = 0; i < n; ++i)
                      c.memRead(base + Addr(i) * kPageSize, 4);
                  break;
              }
            }
            out.simCycles = c.now() - sim0;
        });
    });
    machine.run();
}

/** One thread-count point of the sweep. */
struct Result
{
    std::string name;   //!< "threads_N" plus the mode suffix
    std::string suffix; //!< "" (unchecked) or "_enforce"
    unsigned threads = 0;
    std::uint64_t iterations = 0; //!< total guest ops across the fleet
    double wallSeconds = 0;
    double opsPerSec = 0;
    std::uint64_t simCycles = 0; //!< sum of per-VM sim cycles
    std::uint64_t jobsStolen = 0;
    std::vector<Cycles> vmCycles; //!< per-VM, for the determinism check
};

Result
runFleet(const std::vector<VmSpec> &spec, unsigned threads,
         const std::string &suffix = "")
{
    Result res;
    res.threads = threads;
    res.suffix = suffix;
    res.name = "threads_" + std::to_string(threads) + suffix;

    Fleet fleet(threads);
    std::vector<VmOutcome> outcomes(spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const VmSpec &s = spec[i];
        res.iterations += s.iters;
        fleet.submit(std::string("vm") + std::to_string(s.index) + "-" +
                         flavorName(s.flavor),
                     [&s, &outcomes, i] { runVm(s, outcomes[i]); });
    }

    auto t0 = std::chrono::steady_clock::now();
    fleet.start();
    std::vector<Fleet::JobResult> jobs = fleet.shutdown();
    auto t1 = std::chrono::steady_clock::now();

    for (const Fleet::JobResult &j : jobs) {
        if (!j.ok)
            fatal("fleet_tput: job %s failed: %s", j.name.c_str(),
                  j.error.c_str());
    }
    res.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    res.opsPerSec =
        res.wallSeconds > 0 ? double(res.iterations) / res.wallSeconds : 0;
    res.jobsStolen = fleet.stats().jobsStolen;
    for (const VmOutcome &o : outcomes) {
        res.vmCycles.push_back(o.simCycles);
        res.simCycles += o.simCycles;
    }
    return res;
}

/** The 1-thread ops/sec of the sweep with the same mode suffix. */
double
opsAtOneThread(const std::vector<Result> &rows, const std::string &suffix)
{
    for (const Result &r : rows)
        if (r.threads == 1 && r.suffix == suffix)
            return r.opsPerSec;
    return 0;
}

/**
 * Recover the "baseline" section of a previously emitted JSON file. Only
 * parses the exact format emitted below — not a general JSON parser.
 */
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
        double iters = 0, wall = 0, ops = 0, cycles = 0;
        num("\"iterations\"", iters);
        num("\"wall_seconds\"", wall);
        num("\"ops_per_sec\"", ops);
        num("\"sim_cycles\"", cycles);
        r.iterations = static_cast<std::uint64_t>(iters);
        r.wallSeconds = wall;
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
                     "\"wall_seconds\": %.6f, \"ops_per_sec\": %.1f, "
                     "\"sim_cycles\": %llu }%s\n",
                     r.name.c_str(),
                     static_cast<unsigned long long>(r.iterations),
                     r.wallSeconds, r.opsPerSec,
                     static_cast<unsigned long long>(r.simCycles),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
}

void
writeJson(const std::string &path, unsigned vms,
          const std::vector<Result> &current,
          const std::vector<Result> &baseline, bool smoke)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("fleet_tput: cannot write %s", path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"fleet_tput\",\n");
    std::fprintf(f, "  \"schema_version\": 1,\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
#if KVMARM_INVARIANTS_ENABLED
    // Check modes swept: unsuffixed rows run unchecked, *_enforce rows
    // run the same fleet with every machine's engine in enforce mode.
    std::fprintf(f, "  \"kvmarm_check\": \"off,enforce\",\n");
#else
    std::fprintf(f, "  \"kvmarm_check\": \"disabled\",\n");
#endif
    std::fprintf(f, "  \"fleet_size\": %u,\n", vms);
    std::fprintf(f, "  \"host_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"deterministic\": true,\n");
    std::fprintf(f, "  \"vm_sim_cycles\": [");
    for (std::size_t i = 0; i < current.front().vmCycles.size(); ++i) {
        std::fprintf(f, "%s%llu", i ? ", " : "",
                     static_cast<unsigned long long>(
                         current.front().vmCycles[i]));
    }
    std::fprintf(f, "],\n");
    writeSection(f, "baseline", baseline);
    writeSection(f, "current", current);
    std::fprintf(f, "  \"speedup\": {\n");
    for (std::size_t i = 0; i < current.size(); ++i) {
        double base_ops = 0;
        for (const Result &b : baseline)
            if (b.name == current[i].name)
                base_ops = b.opsPerSec;
        double s = base_ops > 0 ? current[i].opsPerSec / base_ops : 1.0;
        std::fprintf(f, "    \"%s\": %.2f%s\n", current[i].name.c_str(), s,
                     i + 1 < current.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"scaling\": {\n");
    for (std::size_t i = 0; i < current.size(); ++i) {
        const double ops1 = opsAtOneThread(current, current[i].suffix);
        double sp = ops1 > 0 ? current[i].opsPerSec / ops1 : 0;
        std::fprintf(f,
                     "    \"%s\": { \"speedup_vs_1t\": %.2f, "
                     "\"efficiency\": %.2f }%s\n",
                     current[i].name.c_str(), sp,
                     sp / current[i].threads,
                     i + 1 < current.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
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
                         "usage: fleet_tput [--smoke] [--rebaseline] "
                         "[--fleet N] [--out file.json]\n");
            return 2;
        }
    }
    if (out.empty() && !smoke)
        out = "BENCH_fleet.json";
    if (vms == 0)
        vms = 1;

    setInformEnabled(false);
    Iters it;
    if (smoke)
        it.smoke();
    const std::vector<VmSpec> spec = fleetSpec(vms, it);
    const unsigned threadCounts[] = {1, 2, 4, 8};

    std::vector<Result> current;
    for (unsigned t : threadCounts)
        current.push_back(runFleet(spec, t));

#if KVMARM_INVARIANTS_ENABLED
    {
        // Same fleet, every machine's private engine in enforce mode. The
        // scope is opened around the whole sweep: machine engines inherit
        // the facade's mode when each VM job constructs its machine.
        check::ScopedCheckMode enforce(check::CheckMode::Enforce);
        for (unsigned t : threadCounts)
            current.push_back(runFleet(spec, t, "_enforce"));
    }
#endif

    std::printf("\n=== Fleet throughput (%u VMs, host_cpus=%u) ===\n", vms,
                std::thread::hardware_concurrency());
    std::printf("%-20s %12s %10s %14s %10s %10s %8s\n", "sweep point",
                "total ops", "wall[s]", "agg ops/sec", "speedup", "effic",
                "stolen");
    for (const Result &r : current) {
        const double ops1 = opsAtOneThread(current, r.suffix);
        double sp = ops1 > 0 ? r.opsPerSec / ops1 : 0;
        std::printf("%-20s %12llu %10.3f %14.0f %9.2fx %9.1f%% %8llu\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.iterations),
                    r.wallSeconds, r.opsPerSec, sp,
                    100.0 * sp / r.threads,
                    static_cast<unsigned long long>(r.jobsStolen));
    }

    // Determinism gate: every VM's simulated cycle count must be identical
    // at every thread count AND in every check mode — the fleet may only
    // change wall-clock time, and the invariant engine may only observe.
    bool deterministic = true;
    for (const Result &r : current) {
        for (std::size_t v = 0; v < r.vmCycles.size(); ++v) {
            if (r.vmCycles[v] != current.front().vmCycles[v]) {
                std::fprintf(stderr,
                             "fleet_tput: DETERMINISM VIOLATION: vm%zu "
                             "sim_cycles %llu at %s vs %llu at %s\n",
                             v,
                             static_cast<unsigned long long>(r.vmCycles[v]),
                             r.name.c_str(),
                             static_cast<unsigned long long>(
                                 current.front().vmCycles[v]),
                             current.front().name.c_str());
                deterministic = false;
            }
        }
    }
    if (!deterministic)
        return 1;
    std::printf("per-VM sim_cycles bit-identical across all thread counts "
                "and check modes\n");

    if (!out.empty()) {
        std::map<std::string, Result> prior = readBaseline(out);
        std::vector<Result> baseline;
        for (const Result &r : current) {
            auto itb = prior.find(r.name);
            baseline.push_back(
                (!rebaseline && itb != prior.end()) ? itb->second : r);
        }
        writeJson(out, vms, current, baseline, smoke);
        std::printf("\nwrote %s\n", out.c_str());
    }
    return 0;
}
