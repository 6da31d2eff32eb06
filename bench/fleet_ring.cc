/**
 * @file
 * Inter-VM ring throughput benchmark: communicating VM pairs on the fleet
 * executor (DESIGN.md §4.10).
 *
 * Each pair of VMs shares one RingChannel; the guests ping-pong tagged
 * messages through the vring device, so every message walks the full
 * doorbell-MMIO trap → Stage-2 → user-space emulation → vGIC injection
 * path on both machines. A serial round-robin reference run establishes
 * the ground truth, then the same fleet runs at 1, 2, 4 and 8 host
 * threads — each VM a resumable Fleet job paced by the conservative
 * window protocol — and the whole sweep repeats under
 * KVMARM_CHECK=enforce.
 *
 * The determinism gate runs on every invocation (including --smoke):
 * per-VM simulated cycles, the device's message-log digest (every
 * (cycle, seq, payload) sent and delivered) and the guest's payload
 * checksum must be bit-identical to the serial reference at every thread
 * count and in both check modes. Exit code 1 on any divergence.
 *
 * Output: BENCH_fleet_ring.json with the host_tput baseline discipline:
 * an existing "baseline" section is preserved so speedups track the
 * committed trajectory; --rebaseline replaces it; --smoke never writes
 * unless --out is given. host_cpus is recorded because scaling is
 * bounded by the cores actually available.
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
#include "sim/ring_channel.hh"
#include "vdev/vring.hh"
#include "workload/ring_driver.hh"

namespace {

using namespace kvmarm;
using arm::ArmCpu;
using arm::ArmMachine;

struct BenchConfig
{
    unsigned pairs = 4;            //!< communicating VM pairs (2 VMs each)
    unsigned rounds = 1'500;       //!< ping-pong round trips per pair
    std::uint32_t payload = 64;    //!< message payload bytes
    Cycles latency = 20'000;       //!< ring delivery latency (lookahead)

    void
    smoke()
    {
        rounds = 48;
    }
};

/** What one VM run produced (written by its Fleet job). */
struct VmOutcome
{
    Cycles simCycles = 0;       //!< guest cycles over the ping-pong body
    std::uint64_t digest = 0;   //!< device message-log digest
    std::uint64_t checksum = 0; //!< guest-side consumed-payload checksum
    std::uint64_t msgs = 0;     //!< messages this VM sent
};

/**
 * One communicating VM: a private machine + host kernel + KVM stack with
 * a vring endpoint, driven window-by-window by a RingPacer so it can run
 * as a resumable Fleet job.
 */
class RingVm
{
  public:
    RingVm(unsigned index, RingChannel::Endpoint &ep, bool initiator,
           unsigned rounds, std::uint32_t payload)
    {
        ArmMachine::Config mc;
        mc.numCpus = 1;
        mc.ramSize = 128 * kMiB;
        machine_ = std::make_unique<ArmMachine>(mc);
        hostk_ = std::make_unique<host::HostKernel>(*machine_);
        kvm_ = std::make_unique<core::Kvm>(*hostk_, core::KvmConfig{});
        pacer_ = std::make_unique<RingPacer>(
            *machine_, "vm" + std::to_string(index));
        pacer_->attach(ep);

        machine_->cpu(0).setEntry([this, &ep, initiator, rounds, payload] {
            ArmCpu &cpu = machine_->cpu(0);
            hostk_->boot(0);
            if (!kvm_->initCpu(cpu))
                fatal("fleet_ring: KVM init failed");
            vm_ = kvm_->createVm(64 * kMiB);
            core::VCpu &vcpu = vm_->addVcpu(0);
            guest_ = std::make_unique<wl::RingGuestOs>();
            vcpu.setGuestOs(guest_.get());
            dev_ = std::make_unique<vdev::VringDevice>(*kvm_, *vm_, ep);

            vcpu.run(cpu, [this, initiator, rounds, payload](ArmCpu &c) {
                guest_->init(c);
                Cycles sim0 = c.now();
                guest_->pingPong(c, rounds, initiator, payload);
                out_.simCycles = c.now() - sim0;
            });
            out_.digest = dev_->digest();
            out_.checksum = guest_->checksum();
            out_.msgs = dev_->txCount();
        });
    }

    Fleet::StepOutcome
    step()
    {
        return pacer_->step() == RingPacer::Step::Done
                   ? Fleet::StepOutcome::Done
                   : Fleet::StepOutcome::Blocked;
    }

    RingPacer &pacer() { return *pacer_; }
    const VmOutcome &outcome() const { return out_; }

  private:
    // Declaration order is destruction-safety: the device and pacer
    // deregister their snapshot blockers from the machine, so the
    // machine must outlive both.
    std::unique_ptr<ArmMachine> machine_;
    std::unique_ptr<host::HostKernel> hostk_;
    std::unique_ptr<core::Kvm> kvm_;
    std::unique_ptr<RingPacer> pacer_;
    std::unique_ptr<wl::RingGuestOs> guest_;
    std::unique_ptr<core::Vm> vm_;
    std::unique_ptr<vdev::VringDevice> dev_;
    VmOutcome out_;
};

/** Build the fleet's channels and VMs: VM 2p / 2p+1 share channel p. */
void
buildFleet(const BenchConfig &cfg,
           std::vector<std::unique_ptr<RingChannel>> &channels,
           std::vector<std::unique_ptr<RingVm>> &vms)
{
    for (unsigned p = 0; p < cfg.pairs; ++p) {
        channels.push_back(std::make_unique<RingChannel>(
            "ring" + std::to_string(p), cfg.latency));
        RingChannel &ch = *channels.back();
        vms.push_back(std::make_unique<RingVm>(
            2 * p, ch.end(0), true, cfg.rounds, cfg.payload));
        vms.push_back(std::make_unique<RingVm>(
            2 * p + 1, ch.end(1), false, cfg.rounds, cfg.payload));
    }
}

/** Serial ground truth: round-robin every pacer on this thread. */
std::vector<VmOutcome>
runSerial(const BenchConfig &cfg)
{
    std::vector<std::unique_ptr<RingChannel>> channels;
    std::vector<std::unique_ptr<RingVm>> vms;
    buildFleet(cfg, channels, vms);

    std::vector<bool> done(vms.size(), false);
    while (true) {
        bool all_done = true;
        bool progress = false;
        for (std::size_t i = 0; i < vms.size(); ++i) {
            if (done[i])
                continue;
            std::uint64_t w0 = vms[i]->pacer().windowsRun();
            if (vms[i]->step() == Fleet::StepOutcome::Done) {
                done[i] = true;
                progress = true;
            } else {
                all_done = false;
                if (vms[i]->pacer().windowsRun() != w0)
                    progress = true;
            }
        }
        if (all_done)
            break;
        if (!progress)
            fatal("fleet_ring: serial reference made no progress — "
                  "rendezvous protocol wedged");
    }

    std::vector<VmOutcome> out;
    for (const auto &vm : vms)
        out.push_back(vm->outcome());
    return out;
}

/** One sweep point. */
struct Result
{
    std::string name;   //!< "serial" / "threads_N" plus the mode suffix
    std::string suffix; //!< "" (unchecked) or "_enforce"
    unsigned threads = 0;
    std::uint64_t iterations = 0; //!< messages across the fleet
    double wallSeconds = 0;
    double opsPerSec = 0;         //!< messages per wall second
    std::uint64_t simCycles = 0;  //!< sum of per-VM sim cycles
    std::uint64_t jobsStolen = 0;
    std::uint64_t jobsParked = 0;
    std::vector<VmOutcome> vms;   //!< per-VM, for the determinism gate
};

Result
finishResult(Result res, double wall)
{
    res.wallSeconds = wall;
    for (const VmOutcome &o : res.vms) {
        res.iterations += o.msgs;
        res.simCycles += o.simCycles;
    }
    res.opsPerSec = wall > 0 ? double(res.iterations) / wall : 0;
    return res;
}

Result
runSerialPoint(const BenchConfig &cfg, const std::string &suffix)
{
    Result res;
    res.suffix = suffix;
    res.name = "serial" + suffix;
    res.threads = 1;
    auto t0 = std::chrono::steady_clock::now();
    res.vms = runSerial(cfg);
    auto t1 = std::chrono::steady_clock::now();
    return finishResult(std::move(res),
                        std::chrono::duration<double>(t1 - t0).count());
}

Result
runFleetPoint(const BenchConfig &cfg, unsigned threads,
              const std::string &suffix)
{
    Result res;
    res.suffix = suffix;
    res.name = "threads_" + std::to_string(threads) + suffix;
    res.threads = threads;

    std::vector<std::unique_ptr<RingChannel>> channels;
    // The fleet is declared before the VMs: RingPacer destructors fire
    // channel wake hooks (which call fleet.notify), so the fleet must
    // outlive the VMs.
    Fleet fleet(threads);
    std::vector<std::unique_ptr<RingVm>> vms;
    buildFleet(cfg, channels, vms);

    for (std::size_t i = 0; i < vms.size(); ++i) {
        RingVm *vm = vms[i].get();
        std::size_t idx = fleet.submitResumable(
            "vm" + std::to_string(i), [vm] { return vm->step(); });
        vm->pacer().setWakeHook([&fleet, idx] { fleet.notify(idx); });
    }

    auto t0 = std::chrono::steady_clock::now();
    fleet.start();
    std::vector<Fleet::JobResult> jobs = fleet.shutdown();
    auto t1 = std::chrono::steady_clock::now();
    for (const Fleet::JobResult &j : jobs) {
        if (!j.ok)
            fatal("fleet_ring: job %s failed: %s", j.name.c_str(),
                  j.error.c_str());
    }

    for (const auto &vm : vms)
        res.vms.push_back(vm->outcome());
    res.jobsStolen = fleet.stats().jobsStolen;
    res.jobsParked = fleet.stats().jobsParked;
    return finishResult(std::move(res),
                        std::chrono::duration<double>(t1 - t0).count());
}

/** The 1-thread ops/sec of the sweep with the same mode suffix. */
double
opsAtOneThread(const std::vector<Result> &rows, const std::string &suffix)
{
    for (const Result &r : rows)
        if (r.threads == 1 && r.name.rfind("threads_", 0) == 0 &&
            r.suffix == suffix)
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
writeJson(const std::string &path, const BenchConfig &cfg,
          const std::vector<Result> &current,
          const std::vector<Result> &baseline, bool smoke)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("fleet_ring: cannot write %s", path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"fleet_ring\",\n");
    std::fprintf(f, "  \"schema_version\": 1,\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
#if KVMARM_INVARIANTS_ENABLED
    std::fprintf(f, "  \"kvmarm_check\": \"off,enforce\",\n");
#else
    std::fprintf(f, "  \"kvmarm_check\": \"disabled\",\n");
#endif
    std::fprintf(f, "  \"pairs\": %u,\n", cfg.pairs);
    std::fprintf(f, "  \"fleet_size\": %u,\n", 2 * cfg.pairs);
    std::fprintf(f, "  \"rounds\": %u,\n", cfg.rounds);
    std::fprintf(f, "  \"payload_bytes\": %u,\n", cfg.payload);
    std::fprintf(f, "  \"ring_latency\": %llu,\n",
                 static_cast<unsigned long long>(cfg.latency));
    std::fprintf(f, "  \"host_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"deterministic\": true,\n");
    std::fprintf(f, "  \"vm_sim_cycles\": [");
    for (std::size_t i = 0; i < current.front().vms.size(); ++i) {
        std::fprintf(f, "%s%llu", i ? ", " : "",
                     static_cast<unsigned long long>(
                         current.front().vms[i].simCycles));
    }
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"vm_digests\": [");
    for (std::size_t i = 0; i < current.front().vms.size(); ++i) {
        std::fprintf(f, "%s\"%016llx\"", i ? ", " : "",
                     static_cast<unsigned long long>(
                         current.front().vms[i].digest));
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
                     current[i].threads ? sp / current[i].threads : 0,
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
    BenchConfig cfg;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--rebaseline") == 0) {
            rebaseline = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(argv[i], "--pairs") == 0 && i + 1 < argc) {
            cfg.pairs = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
            cfg.rounds = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--latency") == 0 && i + 1 < argc) {
            cfg.latency = static_cast<Cycles>(std::atoll(argv[++i]));
        } else {
            std::fprintf(stderr,
                         "usage: fleet_ring [--smoke] [--rebaseline] "
                         "[--pairs N] [--rounds N] [--latency C] "
                         "[--out file.json]\n");
            return 2;
        }
    }
    if (out.empty() && !smoke)
        out = "BENCH_fleet_ring.json";
    if (cfg.pairs == 0)
        cfg.pairs = 1;
    if (smoke)
        cfg.smoke();

    setInformEnabled(false);
    const unsigned threadCounts[] = {1, 2, 4, 8};

    std::vector<Result> current;
    current.push_back(runSerialPoint(cfg, ""));
    for (unsigned t : threadCounts)
        current.push_back(runFleetPoint(cfg, t, ""));

#if KVMARM_INVARIANTS_ENABLED
    {
        // Same fleet, every machine's private engine in enforce mode —
        // including the ring hooks fired on every doorbell and delivery.
        check::ScopedCheckMode enforce(check::CheckMode::Enforce);
        current.push_back(runSerialPoint(cfg, "_enforce"));
        for (unsigned t : threadCounts)
            current.push_back(runFleetPoint(cfg, t, "_enforce"));
    }
#endif

    std::printf("\n=== Inter-VM ring throughput (%u pairs, %u rounds, "
                "latency %llu, host_cpus=%u) ===\n",
                cfg.pairs, cfg.rounds,
                static_cast<unsigned long long>(cfg.latency),
                std::thread::hardware_concurrency());
    std::printf("%-20s %10s %10s %12s %9s %8s %8s\n", "sweep point", "msgs",
                "wall[s]", "msgs/sec", "speedup", "parked", "stolen");
    for (const Result &r : current) {
        const double ops1 = opsAtOneThread(current, r.suffix);
        double sp = ops1 > 0 ? r.opsPerSec / ops1 : 0;
        std::printf("%-20s %10llu %10.3f %12.0f %8.2fx %8llu %8llu\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.iterations),
                    r.wallSeconds, r.opsPerSec, sp,
                    static_cast<unsigned long long>(r.jobsParked),
                    static_cast<unsigned long long>(r.jobsStolen));
    }

    // Determinism gate, run on EVERY invocation: per-VM simulated cycles,
    // device message-log digests and guest payload checksums must match
    // the serial reference at every thread count and in both check modes
    // — the fleet may only change wall-clock time, and the invariant
    // engine may only observe.
    const Result &ref = current.front();
    bool deterministic = true;
    for (const Result &r : current) {
        for (std::size_t v = 0; v < r.vms.size(); ++v) {
            const VmOutcome &a = r.vms[v];
            const VmOutcome &b = ref.vms[v];
            if (a.simCycles != b.simCycles || a.digest != b.digest ||
                a.checksum != b.checksum) {
                std::fprintf(
                    stderr,
                    "fleet_ring: DETERMINISM VIOLATION: vm%zu at %s: "
                    "sim_cycles %llu digest %016llx checksum %016llx vs "
                    "serial %llu / %016llx / %016llx\n",
                    v, r.name.c_str(),
                    static_cast<unsigned long long>(a.simCycles),
                    static_cast<unsigned long long>(a.digest),
                    static_cast<unsigned long long>(a.checksum),
                    static_cast<unsigned long long>(b.simCycles),
                    static_cast<unsigned long long>(b.digest),
                    static_cast<unsigned long long>(b.checksum));
                deterministic = false;
            }
        }
    }
    if (!deterministic)
        return 1;
    std::printf("per-VM sim_cycles, message digests and guest checksums "
                "bit-identical across all thread counts and check modes\n");

    if (!out.empty()) {
        std::map<std::string, Result> prior = readBaseline(out);
        std::vector<Result> baseline;
        for (const Result &r : current) {
            auto itb = prior.find(r.name);
            baseline.push_back(
                (!rebaseline && itb != prior.end()) ? itb->second : r);
        }
        writeJson(out, cfg, current, baseline, smoke);
        std::printf("\nwrote %s\n", out.c_str());
    }
    return 0;
}
