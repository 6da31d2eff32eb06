/**
 * @file
 * paper_suite: every experiment of the paper — Table 1, Table 3, Figures
 * 3-7 and the four ablations, on all four platforms — run one after the
 * other on one thread with checking off. The experiment list is shuffled
 * by the seed for every pass; passes repeat until the run is long. One
 * operation is one experiment run; each is checked against the reference
 * values in refs/paper_suite.ref, and the last pass's Table 3 is printed
 * through the repo's table printer and compared with
 * bench/golden/table3_micro.txt.
 */

#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "baremetal/baremetal_hv.hh"
#include "bench_util.hh"
#include "common.hh"
#include "fig_lmbench_common.hh"
#include "power/energy.hh"
#include "sim/random.hh"
#include "workload/apps.hh"
#include "workload/microbench.hh"
#include "workload/microbench_x86.hh"

namespace perfbench {

using namespace kvmarm;

namespace {

/** Accumulated over one pass (or one timed phase). */
struct PaperCounters
{
    Cycles simCycles = 0;
    std::vector<double> spawnMs;
};

/** One experiment of the suite. */
struct PaperOp
{
    std::string key;
    bool smp = false;
    /** Runs the experiment; returns its checked values. */
    std::function<std::vector<double>(std::uint64_t span,
                                      PaperCounters &counters)>
        run;
};

/** @p name with spaces turned into underscores (reference keys are
 *  single words). */
std::string
keyword(std::string name)
{
    std::replace(name.begin(), name.end(), ' ', '_');
    return name;
}

bool
isArm(wl::Platform p)
{
    return p == wl::Platform::ArmVgic || p == wl::Platform::ArmNoVgic;
}

const char *
platformKey(wl::Platform p)
{
    switch (p) {
      case wl::Platform::ArmVgic: return "arm";
      case wl::Platform::ArmNoVgic: return "arm_novgic";
      case wl::Platform::X86Laptop: return "x86_laptop";
      case wl::Platform::X86Server: return "x86_server";
    }
    return "?";
}

/** Native and virtualized runs of one experiment, each timed as the
 *  stack it exercises. */
std::pair<wl::RunMetrics, wl::RunMetrics>
runBoth(const wl::Experiment &exp, std::uint64_t span)
{
    const bool arm = isArm(exp.platform);
    wl::RunMetrics native, virt;
    {
        ScopedSpan s(arm ? "workload.arm_native" : "workload.x86_native",
                     "workload", span);
        native = wl::runNative(exp);
    }
    {
        ScopedSpan s(arm ? "workload.arm_kvm" : "workload.x86_kvm",
                     "workload", span);
        virt = wl::runVirt(exp);
    }
    return {native, virt};
}

std::vector<double>
microValues(const wl::MicroResults &r)
{
    return {double(r.hypercall), double(r.trap),   double(r.ioKernel),
            double(r.ioUser),    double(r.ipi),    double(r.eoiAck)};
}

Cycles
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return Cycles(s);
}

wl::MicroResults
timedArmMicro(bool vgic, std::uint64_t span)
{
    ScopedSpan s("workload.micro", "workload", span);
    return wl::runArmMicrobench({vgic, vgic, 64});
}

/** The guest OS of the IPI ablation: acknowledges and completes IRQs. */
class AckOs : public NullOs
{
  public:
    void
    irq(arm::ArmCpu &cpu) override
    {
        auto iar = static_cast<std::uint32_t>(
            cpu.memRead(arm::ArmMachine::kGiccBase + arm::gicc::IAR, 4));
        cpu.memWrite(arm::ArmMachine::kGiccBase + arm::gicc::EOIR, iar);
    }
};

arm::ArmMachine::Config
ablationMachine(bool vgic, Addr ram)
{
    arm::ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = ram;
    mc.hwVgic = vgic;
    return mc;
}

/** Average cycles of @p iters runs of @p op in guest context. */
template <typename Op>
Cycles
perIter(arm::ArmCpu &c, unsigned iters, Op op)
{
    Cycles t0 = c.now();
    for (unsigned i = 0; i < iters; ++i)
        op(i);
    return (c.now() - t0) / iters;
}

std::vector<PaperOp>
buildOps()
{
    std::vector<PaperOp> ops;

    // Table 1: the derived register inventory plus one measured
    // world-switch round trip.
    ops.push_back({"table1", false, [](std::uint64_t span,
                                       PaperCounters &pc) {
        std::string text;
        for (const auto &row : arm::stateInventory())
            text += row.action + "|" + row.count + "|" + row.what + "\n";
        Cycles hypercall = 0;
        auto mc = ablationMachine(true, 128 * kMiB);
        runArmGuest(
            mc, {}, 32 * kMiB,
            [&](arm::ArmCpu &c, core::Vm &) {
                Cycles t0 = c.now();
                c.hvc(core::hvc::kTestHypercall);
                hypercall = c.now() - t0;
            },
            nullptr, span);
        pc.simCycles += hypercall;
        return std::vector<double>{
            double(fnv1a(text) >> 12), double(hypercall)};
    }});

    // Table 3: one op per column.
    ops.push_back({"table3.arm", false, [](std::uint64_t span,
                                           PaperCounters &pc) {
        auto v = microValues(timedArmMicro(true, span));
        pc.simCycles += sum(v);
        return v;
    }});
    ops.push_back({"table3.arm_novgic", false, [](std::uint64_t span,
                                                  PaperCounters &pc) {
        auto v = microValues(timedArmMicro(false, span));
        pc.simCycles += sum(v);
        return v;
    }});
    for (x86::X86Platform xp :
         {x86::X86Platform::Laptop, x86::X86Platform::Server}) {
        std::string key = xp == x86::X86Platform::Laptop
                              ? "table3.x86_laptop"
                              : "table3.x86_server";
        ops.push_back({key, false, [xp](std::uint64_t span,
                                        PaperCounters &pc) {
            ScopedSpan s("workload.micro", "workload", span);
            auto v = microValues(wl::runX86Microbench({xp, 64}));
            pc.simCycles += sum(v);
            return v;
        }});
    }

    // Figures 3 and 4: lmbench, UP and SMP.
    for (bool smp : {false, true}) {
        for (wl::LmWorkload w : wl::allLmWorkloads()) {
            for (wl::Platform p : benchfig::platforms()) {
                std::string key = std::string(smp ? "fig4." : "fig3.") +
                                  keyword(wl::lmWorkloadName(w)) + "." +
                                  platformKey(p);
                ops.push_back({key, smp, [p, w, smp](std::uint64_t span,
                                                     PaperCounters &pc) {
                    auto [native, virt] = runBoth(
                        benchfig::lmbenchExperiment(p, w, smp), span);
                    pc.simCycles += native.elapsed + virt.elapsed;
                    double overhead =
                        native.elapsed ? double(virt.elapsed) /
                                             double(native.elapsed)
                                       : 0.0;
                    return std::vector<double>{double(native.elapsed),
                                               double(virt.elapsed),
                                               overhead};
                }});
            }
        }
    }

    // Figures 5, 6 and 7: applications, UP and SMP (Figure 7's energy
    // comes from the SMP runs, as in the paper).
    for (bool smp : {false, true}) {
        for (wl::App app : wl::allApps()) {
            for (wl::Platform p : benchfig::platforms()) {
                std::string key = std::string(smp ? "fig6_7." : "fig5.") +
                                  keyword(wl::appName(app)) + "." +
                                  platformKey(p);
                ops.push_back({key, smp, [p, app, smp](std::uint64_t span,
                                                       PaperCounters &pc) {
                    auto [native, virt] =
                        runBoth(wl::makeAppExperiment(app, p, smp), span);
                    pc.simCycles += native.elapsed + virt.elapsed;
                    double overhead =
                        native.elapsed ? double(virt.elapsed) /
                                             double(native.elapsed)
                                       : 0.0;
                    ScopedSpan s("power.energy", "power", span);
                    power::PowerProfile prof =
                        isArm(p) ? power::arndaleProfile()
                                 : power::x86LaptopProfile();
                    double en = power::energyJoules(prof, native.seconds,
                                                    native.cpuUtil);
                    double ev = power::energyJoules(prof, virt.seconds,
                                                    virt.cpuUtil);
                    return std::vector<double>{
                        double(native.elapsed), double(virt.elapsed),
                        overhead, en > 0 ? ev / en : 0};
                }});
            }
        }
    }

    // Ablation: split-mode KVM/ARM against a Hyp-resident hypervisor.
    ops.push_back({"ablation.split_mode", false, [](std::uint64_t span,
                                                    PaperCounters &pc) {
        wl::MicroResults kvm = timedArmMicro(true, span);
        Cycles bmHvc = 0, bmIo = 0;
        {
            ScopedSpan s("baremetal.run", "baremetal", span);
            arm::ArmMachine machine(ablationMachine(true, 256 * kMiB));
            baremetal::BareMetalHv hv(machine);
            NullOs os;
            machine.cpu(0).setEntry([&] {
                arm::ArmCpu &cpu = machine.cpu(0);
                hv.boot(cpu);
                hv.createGuest(16 * kMiB);
                hv.runGuest(
                    cpu,
                    [&](arm::ArmCpu &c) {
                        c.hvc(baremetal::bmhvc::kTestHypercall);
                        bmHvc = perIter(c, 64, [&](unsigned) {
                            c.hvc(baremetal::bmhvc::kTestHypercall);
                        });
                        bmIo = perIter(c, 64, [&](unsigned i) {
                            c.memWrite(baremetal::BareMetalHv::kHypDevBase,
                                       i, 4);
                        });
                    },
                    &os);
            });
            machine.run();
        }
        pc.simCycles += kvm.hypercall + bmHvc + bmIo;
        return std::vector<double>{double(kvm.hypercall), double(kvm.trap),
                                   double(kvm.ioKernel), double(bmHvc),
                                   double(bmIo)};
    }});

    // Ablation: VGIC save/restore policy (full, lazy, none).
    ops.push_back({"ablation.vgic", false, [](std::uint64_t span,
                                              PaperCounters &pc) {
        std::vector<double> v;
        for (auto [useVgic, lazy] :
             {std::pair{true, false}, {true, true}, {false, false}}) {
            core::KvmConfig kc;
            kc.useVgic = useVgic;
            kc.lazyVgic = lazy;
            Cycles cost = 0;
            runArmGuest(
                ablationMachine(useVgic, 256 * kMiB), kc, 32 * kMiB,
                [&](arm::ArmCpu &c, core::Vm &) {
                    c.hvc(core::hvc::kTestHypercall);
                    cost = perIter(c, 64, [&](unsigned) {
                        c.hvc(core::hvc::kTestHypercall);
                    });
                },
                nullptr, span);
            pc.simCycles += cost;
            v.push_back(double(cost));
        }
        return v;
    }});

    // Ablation: trapped virtual IPI sends.
    ops.push_back({"ablation.ipi", false, [](std::uint64_t span,
                                             PaperCounters &pc) {
        wl::MicroResults micro = timedArmMicro(true, span);
        Cycles sendTrap = 0;
        AckOs os;
        runArmGuest(
            ablationMachine(true, 256 * kMiB), {}, 32 * kMiB,
            [&](arm::ArmCpu &c, core::Vm &) {
                c.memWrite(arm::ArmMachine::kGicdBase + arm::gicd::CTLR, 1);
                sendTrap = perIter(c, 64, [&](unsigned) {
                    c.memWrite(arm::ArmMachine::kGicdBase + arm::gicd::SGIR,
                               0);
                });
            },
            &os, span);
        pc.simCycles += micro.ipi + sendTrap;
        return std::vector<double>{double(micro.ipi), double(sendTrap),
                                   double(micro.eoiAck)};
    }});

    // Ablation: lazy versus eager VFP switching, with and without FP use.
    ops.push_back({"ablation.lazy_fpu", false, [](std::uint64_t span,
                                                  PaperCounters &pc) {
        std::vector<double> v;
        for (auto [lazy, fpPeriod] :
             {std::pair{true, 0u}, {false, 0u}, {true, 8u}, {false, 8u}}) {
            core::KvmConfig kc;
            kc.lazyFpu = lazy;
            Cycles cost = 0;
            runArmGuest(
                ablationMachine(true, 256 * kMiB), kc, 32 * kMiB,
                [&](arm::ArmCpu &c, core::Vm &) {
                    cost = perIter(c, 128, [&](unsigned i) {
                        c.hvc(core::hvc::kTestHypercall);
                        if (fpPeriod && i % fpPeriod == 0)
                            c.fpOp(400);
                        else
                            c.compute(400);
                    });
                },
                nullptr, span);
            pc.simCycles += cost;
            v.push_back(double(cost));
        }
        return v;
    }});
    return ops;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return "";
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Print Table 3 through the repo's printer into @p path (stdout is
 *  redirected for the call), then return the printed text. */
std::string
printedTable3(const std::vector<double> &t3, const std::string &path)
{
    using bench::Row;
    auto row = [&](const char *name, std::size_t r) {
        const std::vector<double> &paper = table3Paper();
        return Row{name,
                   {t3[4 * r], t3[4 * r + 1], t3[4 * r + 2], t3[4 * r + 3]},
                   {paper[4 * r], paper[4 * r + 1], paper[4 * r + 2],
                    paper[4 * r + 3]}};
    };
    std::vector<Row> rows = {row("Hypercall", 0),  row("Trap", 1),
                             row("I/O Kernel", 2), row("I/O User", 3),
                             row("IPI", 4),        row("EOI+ACK", 5)};

    std::fflush(stdout);
    const int saved = dup(STDOUT_FILENO);
    const int fd = open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (saved >= 0 && fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        bench::printTable(
            "Table 3: Micro-Architectural Cycle Counts",
            {"ARM", "ARM-noVGIC", "x86-laptop", "x86-server"}, rows,
            "Shapes reproduced: VGIC state >50% of the ARM hypercall; ARM "
            "trap ~25x cheaper than x86;\nARM IPI cheaper than x86 despite "
            "costlier world switches; trap-free EOI+ACK with the VGIC.");
        std::fflush(stdout);
        dup2(saved, STDOUT_FILENO);
    }
    if (saved >= 0)
        close(saved);
    if (fd < 0)
        return "";
    close(fd);

    // The golden holds the table section only (from the "===" title on).
    const std::string text = readFile(path);
    const std::size_t start = text.find("===");
    return start == std::string::npos ? "" : text.substr(start);
}

/** The 24 Table 3 values in table3Paper() layout, from per-column ops. */
std::vector<double>
table3FromOps(const std::map<std::string, std::vector<double>> &last)
{
    std::vector<double> t3(24, 0);
    const char *cols[4] = {"table3.arm", "table3.arm_novgic",
                           "table3.x86_laptop", "table3.x86_server"};
    for (std::size_t c = 0; c < 4; ++c) {
        auto it = last.find(cols[c]);
        if (it == last.end())
            continue;
        for (std::size_t r = 0; r < 6; ++r)
            t3[4 * r + c] = it->second[r];
    }
    return t3;
}

/** What one timed phase measured. */
struct Phase
{
    std::vector<double> passSeconds;
    std::vector<std::vector<double>> opSamples; //!< seconds, by op index
    double smpSeconds = 0;
    double opSeconds = 0;
    PaperCounters counters;
    Cycles passSimCycles = 0; //!< simulated cycles of the first pass
};

/**
 * Moves the (single) benchmark thread to the next allowed host CPU on
 * every call, then restores the original affinity on destruction. The
 * host CPUs of a shared machine run at different speeds that change over
 * minutes; rotating makes every experiment sample all of them instead of
 * whichever one the scheduler happened to keep the thread on.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &original_))
                    cpus_.push_back(c);
        }
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof original_, &original_);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

Phase
runPhase(const std::vector<PaperOp> &ops, const RefMap &refs, Rng &rng,
         double seconds, Result &res,
         std::map<std::string, std::vector<double>> &last,
         SetUpSampler *setUp)
{
    Phase ph;
    ph.opSamples.resize(ops.size());
    std::vector<std::size_t> order(ops.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    CpuRotation rotation;
    const Clock::time_point start = Clock::now();
    do {
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.range(i)]);
        PaperCounters pass;
        const Clock::time_point p0 = Clock::now();
        for (std::size_t idx : order) {
            const PaperOp &op = ops[idx];
            rotation.next();
            ScopedSpan span("bench.experiment", "bench", 0, idx + 1);
            const Clock::time_point o0 = Clock::now();
            std::vector<double> values;
            try {
                values = op.run(span.id(), pass);
            } catch (const std::exception &e) {
                res.fail(1, op.key + " threw: " + e.what());
                continue;
            }
            const double dt = secondsBetween(o0, Clock::now());
            ph.opSeconds += dt;
            ph.opSamples[idx].push_back(dt);
            if (op.smp)
                ph.smpSeconds += dt;
            auto ref = refs.find(op.key);
            if (ref == refs.end() || ref->second != formatValues(values))
                res.fail(1, op.key + " differs from the reference");
            last[op.key] = std::move(values);

            // Spawn probe, outside the experiment's time: one cold VM
            // bring-up between experiments, so the spawn percentiles
            // sample the whole run on one machine shape.
            pass.spawnMs.push_back(runArmGuest(
                smallMachine(), {}, 32 * kMiB, [](arm::ArmCpu &c, core::Vm &) {
                    c.hvc(core::hvc::kTestHypercall);
                }));
        }
        ph.passSeconds.push_back(secondsBetween(p0, Clock::now()));
        res.attempted += ops.size();
        if (ph.passSeconds.size() == 1)
            ph.passSimCycles = pass.simCycles;
        ph.counters.spawnMs.insert(ph.counters.spawnMs.end(),
                                   pass.spawnMs.begin(), pass.spawnMs.end());
        if (setUp)
            setUp->maybeSample();
    } while (secondsBetween(start, Clock::now()) < seconds);
    return ph;
}

/** Experiments per second of a typical pass: the pass is costed as the
 *  sum of each experiment's median time, so a burst of host noise that
 *  hits one experiment in one pass does not move the figure. */
double
opsPerSecond(const Phase &ph)
{
    double seconds = 0;
    for (const std::vector<double> &samples : ph.opSamples)
        seconds += median(samples);
    return double(ph.opSamples.size()) / seconds;
}

double
spanSecondsPerPass(const char *name, std::size_t passes)
{
    double ms = 0;
    for (double v : Tracer::spanMs(name))
        ms += v;
    return ms / 1e3 / double(passes);
}

} // namespace

void
runPaperSuite(const Options &opt, Result &res)
{
    const std::vector<PaperOp> ops = buildOps();
    const std::string refPath = opt.refsDir + "/paper_suite.ref";

    if (opt.writeRefs) {
        RefMap refs;
        PaperCounters pc;
        for (const PaperOp &op : ops)
            refs[op.key] = formatValues(op.run(0, pc));
        if (!writeRefs(refPath, refs,
                       "paper_suite reference values: one experiment per "
                       "line (perfbench --write-refs)"))
            res.fail(1, "cannot write " + refPath);
        return;
    }
    const RefMap refs = loadRefs(refPath);
    if (refs.size() != ops.size())
        res.fail(1, "reference file " + refPath + " missing or stale");

    // Set-up: bring up the ARM KVM stacks the experiments use — with and
    // without VGIC, on one and two CPUs (construction, host boot, KVM
    // init, VM creation, first guest op).
    SetUpSampler setUp([] {
        for (bool vgic : {true, false}) {
            for (unsigned cpus : {1u, 2u}) {
                arm::ArmMachine::Config mc;
                mc.numCpus = cpus;
                mc.hwVgic = vgic;
                core::KvmConfig kc;
                kc.useVgic = vgic;
                kc.useVtimers = vgic;
                runArmGuest(mc, kc, 64 * kMiB,
                            [](arm::ArmCpu &c, core::Vm &) {
                                c.hvc(core::hvc::kTestHypercall);
                            });
            }
        }
    });

    setUp.sample();

    Rng rng(opt.seed);
    std::map<std::string, std::vector<double>> last;
    const double phaseSeconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    Phase plain = runPhase(ops, refs, rng, phaseSeconds, res, last, &setUp);

    // The last pass's Table 3 must print exactly as the committed golden.
    const std::vector<double> t3 = table3FromOps(last);
    const std::string golden = readFile(opt.goldenPath);
    if (golden.empty() ||
        printedTable3(t3, opt.outDir + "/table3_micro.out") != golden)
        res.fail(1, "printed Table 3 differs from " + opt.goldenPath);

    if (!opt.trace) {
        res.e2e("ops_per_s", opsPerSecond(plain), "1/s");
        res.e2e("setup_s", setUp.medianSeconds(), "s");
        res.e2e("peak_rss_mb", peakRssMb(), "MB");
        res.e2e("spawn_ms_p50", percentile(plain.counters.spawnMs, 0.5),
                "ms");
        res.e2e("spawn_ms_p95", percentile(plain.counters.spawnMs, 0.95),
                "ms");
        res.e2e("table3_err_pct", table3ErrorPct(t3), "%");
        return;
    }

    Tracer::setOn(true);
    Phase traced =
        runPhase(ops, refs, rng, phaseSeconds, res, last, nullptr);
    Tracer::setOn(false);
    const std::size_t passes = traced.passSeconds.size();
    res.layer("workload.arm_kvm_s",
              spanSecondsPerPass("workload.arm_kvm", passes), "s");
    res.layer("workload.arm_native_s",
              spanSecondsPerPass("workload.arm_native", passes), "s");
    res.layer("workload.x86_kvm_s",
              spanSecondsPerPass("workload.x86_kvm", passes), "s");
    res.layer("workload.x86_native_s",
              spanSecondsPerPass("workload.x86_native", passes), "s");
    res.layer("workload.micro_s",
              spanSecondsPerPass("workload.micro", passes), "s");
    res.layer("workload.smp_share",
              traced.opSeconds > 0 ? traced.smpSeconds / traced.opSeconds : 0,
              "ratio");
    res.layer("host.boot_ms", median(Tracer::spanMs("host.boot")), "ms");
    res.layer("core.create_vm_ms", median(Tracer::spanMs("core.create_vm")),
              "ms");
    res.layer("sim.fleet.scaling_ceiling", 1, "ratio");
    res.layer("sim.sim_cycles", double(plain.passSimCycles), "cycles");
    res.layer("trace.ops_per_s_untraced", opsPerSecond(plain),
              "1/s");
    res.layer("trace.ops_per_s_traced", opsPerSecond(traced),
              "1/s");
}

} // namespace perfbench
