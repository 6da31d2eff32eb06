/**
 * @file
 * spawn_fleet: VM churn on the trap path, under KVMARM_CHECK=enforce, on
 * a 4-worker long-lived fleet.
 *
 * Set-up cold-boots and warms two golden VMs and snapshots them. Each
 * epoch then submits one clone job per guest program (eight, more than
 * the workers) through Fleet::submit; the seed picks each clone's golden,
 * whether it snapshots itself half-way and spawns a child clone from
 * inside its own job, and the child's program. A program is a fixed
 * sequence of guest-operation batches: TLB-resident loads, writes to
 * pages shared copy-on-write with the snapshot, fresh-page Stage-2
 * faults, hypercalls, kernel MMIO, user-space MMIO and GICD reads. Epochs
 * repeat until the run is long. One operation is one guest operation.
 * Each clone's sim_cycles and stat-dump digest are checked against
 * refs/spawn_fleet.ref, produced by running every (golden, program,
 * spawn, child program) combination inline without a fleet.
 */

#include <cstdio>
#include <sstream>

#include "check/invariants.hh"
#include "common.hh"
#include "sim/fleet.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace perfbench {

using namespace kvmarm;

namespace {

constexpr unsigned kWorkers = 4;
constexpr unsigned kGoldens = 2;
constexpr unsigned kPrograms = 8;
constexpr unsigned kSegments = 12;
constexpr unsigned kSplit = 6; //!< segments before the optional snapshot

/** Guest operation classes, each timed as the layer it exercises. */
enum OpClass : unsigned
{
    Load,       //!< TLB-resident load
    CowWrite,   //!< first write to a page shared with the snapshot
    FreshPage,  //!< write to an untouched page: Stage-2 fault
    Hvc,        //!< hypercall
    KernelMmio, //!< in-kernel emulated device
    UserMmio,   //!< user-space (QEMU) emulated device
    GicdRead,   //!< trapped virtual distributor read
    kNumClasses
};

const char *const kSpanName[kNumClasses] = {
    "arm.load_hit", "mem.cow_write", "core.stage2_fault", "core.hvc",
    "core.mmio_kernel", "vdev.mmio_user", "core.vgic_mmio"};
const char *const kSpanLayer[kNumClasses] = {"arm",  "mem",  "core", "core",
                                             "core", "vdev", "core"};

struct GoldenSpec
{
    unsigned warmPages, warmHvc, warmMmio;
};
constexpr GoldenSpec kGoldenSpecs[kGoldens] = {{384, 600, 300},
                                               {256, 1000, 500}};

struct Segment
{
    OpClass cls;
    unsigned count;
};
using Program = std::vector<Segment>;

/** Program @p p: a fixed function of its index, never of the run seed.
 *  The first seven segments cover every class once. */
Program
makeProgram(unsigned p)
{
    Rng rng(0x70726f67ull + p);
    std::vector<unsigned> classes;
    for (unsigned c = 0; c < kNumClasses; ++c)
        classes.push_back(c);
    for (std::size_t i = classes.size(); i > 1; --i)
        std::swap(classes[i - 1], classes[rng.range(i)]);
    while (classes.size() < kSegments)
        classes.push_back(unsigned(rng.range(kNumClasses)));

    Program prog;
    for (unsigned c : classes) {
        auto between = [&](unsigned lo, unsigned hi) {
            return lo + unsigned(rng.range(hi - lo + 1));
        };
        unsigned n = 0;
        switch (OpClass(c)) {
          case Load: n = between(1500, 4000); break;
          case CowWrite: n = between(8, 24); break;
          case FreshPage: n = between(8, 24); break;
          case Hvc: n = between(60, 200); break;
          case KernelMmio: n = between(60, 200); break;
          case UserMmio: n = between(30, 100); break;
          case GicdRead: n = between(30, 100); break;
          default: break;
        }
        prog.push_back({OpClass(c), n});
    }
    return prog;
}

std::uint64_t
programOps(const Program &prog)
{
    std::uint64_t n = 0;
    for (const Segment &s : prog)
        n += s.count;
    return n;
}

/** Per-job host measurements (summed into the epoch under a mutex). */
struct JobStats
{
    double classNs[kNumClasses] = {};
    std::uint64_t classOps[kNumClasses] = {};
    std::uint64_t tlbHits = 0, tlbMisses = 0, exits = 0;
    std::uint64_t checkEvents = 0, violations = 0;
    std::uint64_t cowFaults = 0, privatePages = 0;
    double spawnMs = 0;
};

/** A clone's result: what the references pin. */
struct Outcome
{
    Cycles simCycles = 0;
    std::uint64_t statDigest = 0;

    std::vector<double>
    checked() const
    {
        return {double(simCycles), double(statDigest >> 12)};
    }
};

/** One full-stack VM: boots as a golden or restores as a clone, then runs
 *  program segments in guest context. */
class SpawnVm
{
  public:
    SpawnVm() : machine_(smallMachine()), hostk_(machine_), kvm_(hostk_) {}

    arm::ArmMachine &machine() { return machine_; }

    /** Cold boot and warm-up; returns the HostKernel::boot time (ms). */
    double
    coldBoot(const GoldenSpec &g)
    {
        double bootMs = 0;
        machine_.cpu(0).setEntry([this, &g, &bootMs] {
            arm::ArmCpu &cpu = machine_.cpu(0);
            const Clock::time_point t0 = Clock::now();
            hostk_.boot(0);
            bootMs = secondsBetween(t0, Clock::now()) * 1e3;
            if (!kvm_.initCpu(cpu))
                fatal("perfbench: KVM init failed");
            buildVmSkeleton(0, 0);
            vcpu_->run(cpu, [this, &g](arm::ArmCpu &c) {
                const Addr base = vm_->ramBase();
                for (unsigned i = 0; i < g.warmPages; ++i)
                    c.memWrite(base + Addr(i) * kPageSize, 0xA0000000u + i,
                               4);
                for (unsigned i = 0; i < g.warmHvc; ++i)
                    c.hvc(core::hvc::kTestHypercall);
                for (unsigned i = 0; i < g.warmMmio; ++i)
                    c.memWrite(core::Vm::kKernelTestDevBase, i, 4);
            });
        });
        machine_.run();
        return bootMs;
    }

    void
    cloneFrom(const MachineSnapshot &snap, std::uint64_t span,
              std::uint64_t job)
    {
        kvm_.primeForRestore();
        buildVmSkeleton(span, job);
        ScopedSpan s("sim.snapshot.restore", "sim", span, job);
        machine_.restoreSnapshot(snap);
        cowBase_ = machine_.ram().cowFaults();
    }

    /** Run segments [from, to) of @p prog; @p freshBase is the IPA offset
     *  of this clone's fresh-page region. */
    void
    runSegments(const Program &prog, unsigned from, unsigned to,
                Addr freshBase, Clock::time_point entry, Outcome &out,
                JobStats &js, std::uint64_t span, std::uint64_t job)
    {
        machine_.cpu(0).setEntry([&, this] {
            arm::ArmCpu &cpu = machine_.cpu(0);
            vcpu_->run(cpu, [&, this](arm::ArmCpu &c) {
                if (from == 0)
                    js.spawnMs = secondsBetween(entry, Clock::now()) * 1e3;
                const std::uint64_t hits0 = c.mmu().tlb().hits();
                const std::uint64_t miss0 = c.mmu().tlb().misses();
                const std::uint64_t exits0 =
                    counterSum(vcpu_->stats, "exit.");
                const Cycles sim0 = c.now();
                for (unsigned s = from; s < to; ++s)
                    runSegment(c, prog[s], freshBase, js, span, job);
                out.simCycles += c.now() - sim0;
                js.tlbHits += c.mmu().tlb().hits() - hits0;
                js.tlbMisses += c.mmu().tlb().misses() - miss0;
                js.exits += counterSum(vcpu_->stats, "exit.") - exits0;
            });
        });
        machine_.run();
    }

    /** Digest of the CPU and VCPU stat dumps, plus the end-of-job
     *  memory and check counters. */
    void
    finish(Outcome &out, JobStats &js)
    {
        std::ostringstream os;
        machine_.cpu(0).stats().dump(os, "cpu0.");
        vcpu_->stats.dump(os, "vcpu.");
        out.statDigest = fnv1a(os.str());
        js.cowFaults = machine_.ram().cowFaults() - cowBase_;
        js.privatePages = machine_.ram().privatePages();
        if (const check::InvariantEngine *eng = machine_.checkEngine()) {
            js.checkEvents = eng->eventCount();
            js.violations = eng->violationCount();
        }
    }

  private:
    void
    buildVmSkeleton(std::uint64_t span, std::uint64_t job)
    {
        ScopedSpan s("core.create_vm", "core", span, job);
        vm_ = kvm_.createVm(64 * kMiB);
        vcpu_ = &vm_->addVcpu(0);
        vm_->addKernelDevice(core::Vm::kKernelTestDevBase, 0x1000,
                             [](bool, Addr, std::uint64_t, unsigned) {
                                 return std::uint64_t{0};
                             });
        vm_->setUserMmioHandler(
            [](arm::ArmCpu &c, core::VCpu &, core::MmioExit &exit) {
                c.compute(800); // device model work in user space
                exit.handled = true;
                exit.data = 0;
            });
    }

    void
    runSegment(arm::ArmCpu &c, const Segment &seg, Addr freshBase,
               JobStats &js, std::uint64_t span, std::uint64_t job)
    {
        const bool timed = Tracer::on();
        ScopedSpan s(kSpanName[seg.cls], kSpanLayer[seg.cls], span, job);
        const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
        const Addr base = vm_->ramBase();
        for (unsigned i = 0; i < seg.count; ++i) {
            switch (seg.cls) {
              case Load:
                c.memRead(base + Addr(i & 511) * 8, 4);
                break;
              case CowWrite:
                c.memWrite(base + Addr(cowCursor_++ % 256) * kPageSize,
                           0xC0000000u + i, 4);
                break;
              case FreshPage:
                c.memWrite(base + freshBase + Addr(freshCursor_++) * kPageSize,
                           0xB000u + i, 4);
                break;
              case Hvc:
                c.hvc(core::hvc::kTestHypercall);
                break;
              case KernelMmio:
                c.memWrite(core::Vm::kKernelTestDevBase, i, 4);
                break;
              case UserMmio:
                c.memWrite(arm::ArmMachine::kUartBase, 'x', 4);
                break;
              case GicdRead:
                c.memRead(arm::ArmMachine::kGicdBase + arm::gicd::TYPER, 4);
                break;
              default:
                break;
            }
        }
        if (timed) {
            js.classNs[seg.cls] +=
                secondsBetween(t0, Clock::now()) * 1e9;
            js.classOps[seg.cls] += seg.count;
        }
    }

    arm::ArmMachine machine_;
    host::HostKernel hostk_;
    core::Kvm kvm_;
    std::unique_ptr<core::Vm> vm_;
    core::VCpu *vcpu_ = nullptr;
    std::uint64_t cowBase_ = 0;
    unsigned cowCursor_ = 0;
    unsigned freshCursor_ = 0;
};

using Snapshot = std::shared_ptr<const MachineSnapshot>;

/** One clone to run: a root (from a golden) or a child (from a parent's
 *  mid-run snapshot). */
struct CloneSpec
{
    unsigned golden = 0;
    unsigned program = 0;
    bool spawn = false;    //!< roots: snapshot half-way, spawn a child
    unsigned child = 0;    //!< the child's program when spawning
    bool isChild = false;
    unsigned parentProgram = 0; //!< children: the parent's program

    std::string
    key() const
    {
        std::string g = "g" + std::to_string(golden);
        if (isChild)
            return "child." + g + ".p" + std::to_string(parentProgram) +
                   ".q" + std::to_string(program);
        return "root." + g + ".p" + std::to_string(program) + ".s" +
               (spawn ? "1" : "0");
    }
};

Addr
freshRegion(const CloneSpec &spec)
{
    return (spec.isChild ? 32 * kMiB : 16 * kMiB) + Addr(spec.program) * kMiB;
}

/** Everything a phase of epochs measured. */
struct Phase
{
    std::mutex mutex;
    std::vector<double> epochOpsPerSec;
    std::vector<double> spawnMs;
    std::vector<double> queueWaitMs;
    std::vector<double> snapshotBytes;
    JobStats sum;
    std::uint64_t ops = 0;
    std::uint64_t jobs = 0;
    double jobSeconds = 0;
    std::uint64_t jobSteps = 0; //!< worker pickups (one per clone job)
    double workerSeconds = 0;
    double firstSum = 0, firstMax = 0; //!< first epoch's sim cycles
    std::vector<double> epochSim;      //!< current epoch's per-job cycles
};

/** Shared by every job of a phase. */
struct Context
{
    const std::vector<Program> &programs;
    const std::vector<Snapshot> &goldens;
    const RefMap &refs;
    Fleet &fleet;
    Phase &ph;
    Result &res;
    std::mutex &resMutex;
    std::map<std::string, std::uint64_t> &expectedOps; //!< by job name
};

void submitClone(Context &ctx, CloneSpec spec, Snapshot from);

/** The body of one clone job. */
void
runClone(Context &ctx, const CloneSpec &spec, const Snapshot &from,
         Clock::time_point submitted, std::uint64_t job)
{
    const Clock::time_point entry = Clock::now();
    ScopedSpan jobSpan("bench.clone_job", "bench", 0, job);
    const std::uint64_t span = jobSpan.id();
    const Program &prog = ctx.programs[spec.program];
    const Addr fresh = freshRegion(spec);
    Outcome out;
    JobStats js;

    SpawnVm vm;
    vm.cloneFrom(*from, span, job);
    vm.runSegments(prog, 0, kSplit, fresh, entry, out, js, span, job);
    if (spec.spawn) {
        Snapshot snap;
        {
            ScopedSpan s("sim.snapshot.take", "sim", span, job);
            snap = vm.machine().takeSnapshot();
        }
        {
            std::lock_guard<std::mutex> lock(ctx.ph.mutex);
            ctx.ph.snapshotBytes.push_back(double(snap->totalBytes()));
        }
        CloneSpec child;
        child.golden = spec.golden;
        child.program = spec.child;
        child.isChild = true;
        child.parentProgram = spec.program;
        submitClone(ctx, child, snap);
    }
    vm.runSegments(prog, kSplit, kSegments, fresh, entry, out, js, span,
                   job);
    vm.finish(out, js);

    const std::string key = spec.key();
    auto ref = ctx.refs.find(key);
    if (ref == ctx.refs.end() || ref->second != formatValues(out.checked())) {
        std::lock_guard<std::mutex> lock(ctx.resMutex);
        ctx.res.fail(programOps(prog), key + " differs from the reference");
    }

    std::lock_guard<std::mutex> lock(ctx.ph.mutex);
    Phase &ph = ctx.ph;
    ph.spawnMs.push_back(js.spawnMs);
    ph.queueWaitMs.push_back(secondsBetween(submitted, entry) * 1e3);
    for (unsigned c = 0; c < kNumClasses; ++c) {
        ph.sum.classNs[c] += js.classNs[c];
        ph.sum.classOps[c] += js.classOps[c];
    }
    ph.sum.tlbHits += js.tlbHits;
    ph.sum.tlbMisses += js.tlbMisses;
    ph.sum.exits += js.exits;
    ph.sum.checkEvents += js.checkEvents;
    ph.sum.violations += js.violations;
    ph.sum.cowFaults += js.cowFaults;
    ph.sum.privatePages += js.privatePages;
    ph.ops += programOps(prog);
    ph.jobs += 1;
    ph.epochSim.push_back(double(out.simCycles));
}

void
submitClone(Context &ctx, CloneSpec spec, Snapshot from)
{
    static std::atomic<std::uint64_t> nextJob{0};
    const std::uint64_t job = ++nextJob;
    const std::string name = spec.key() + "#" + std::to_string(job);
    {
        std::lock_guard<std::mutex> lock(ctx.resMutex);
        ctx.expectedOps[name] = programOps(ctx.programs[spec.program]);
    }
    const Clock::time_point submitted = Clock::now();
    ctx.fleet.submit(name, [&ctx, spec, from, submitted, job] {
        runClone(ctx, spec, from, submitted, job);
    });
}

/** One epoch's roots: every program once, seeded golden, spawn decision,
 *  child program and submission order. A @p canonical epoch fixes all
 *  but the order, so its simulated cycles do not depend on the seed. */
std::vector<CloneSpec>
makeEpoch(Rng &rng, bool canonical)
{
    std::vector<CloneSpec> roots;
    for (unsigned p = 0; p < kPrograms; ++p) {
        CloneSpec s;
        s.program = p;
        if (canonical) {
            s.golden = p % kGoldens;
            s.spawn = p % 2 == 0;
            s.child = s.spawn ? (p + 1) % kPrograms : 0;
        } else {
            s.golden = unsigned(rng.range(kGoldens));
            s.spawn = rng.chance(0.5);
            s.child = unsigned(rng.range(kPrograms));
            if (!s.spawn)
                s.child = 0;
        }
        roots.push_back(s);
    }
    for (std::size_t i = roots.size(); i > 1; --i)
        std::swap(roots[i - 1], roots[rng.range(i)]);
    return roots;
}

void
runPhase(Phase &ph, Rng &rng, double seconds,
         const std::vector<Program> &programs,
         const std::vector<Snapshot> &goldens, const RefMap &refs,
         Result &res, Fleet::Stats &fleetStats, SetUpSampler *setUp)
{
    Fleet fleet(kWorkers);
    std::mutex resMutex;
    std::map<std::string, std::uint64_t> expectedOps;
    Context ctx{programs, goldens, refs, fleet, ph, res, resMutex,
                expectedOps};
    fleet.start();
    const Clock::time_point start = Clock::now();
    do {
        const std::uint64_t ops0 = ph.ops;
        const Clock::time_point t0 = Clock::now();
        for (const CloneSpec &root :
             makeEpoch(rng, ph.epochOpsPerSec.empty()))
            submitClone(ctx, root, goldens[root.golden]);
        std::vector<Fleet::JobResult> jobs = fleet.drain();
        const double wall = secondsBetween(t0, Clock::now());

        std::lock_guard<std::mutex> lock(resMutex);
        for (const Fleet::JobResult &j : jobs) {
            const std::uint64_t expected = expectedOps[j.name];
            res.attempted += expected;
            if (!j.ok)
                res.fail(expected, j.name + " failed: " + j.error);
            ph.jobSeconds += j.wallSeconds;
            ph.jobSteps += j.steps;
        }
        expectedOps.clear();
        ph.workerSeconds += wall * kWorkers;
        ph.epochOpsPerSec.push_back(double(ph.ops - ops0) / wall);
        if (ph.epochOpsPerSec.size() == 1) {
            for (double c : ph.epochSim) {
                ph.firstSum += c;
                ph.firstMax = std::max(ph.firstMax, c);
            }
        }
        ph.epochSim.clear();
        if (setUp)
            setUp->maybeSample();
    } while (secondsBetween(start, Clock::now()) < seconds);
    fleet.shutdown();
    fleetStats = fleet.stats();
}

/** Cold-boot, warm and snapshot every golden; returns the boot times. */
std::vector<double>
bootGoldens(std::vector<Snapshot> &goldens)
{
    std::vector<double> bootMs;
    goldens.clear();
    for (const GoldenSpec &g : kGoldenSpecs) {
        SpawnVm vm;
        bootMs.push_back(vm.coldBoot(g));
        goldens.push_back(vm.machine().takeSnapshot());
    }
    return bootMs;
}

/** Inline reference run of one root (and, when it spawns, every child
 *  program from its half-way snapshot). */
void
referenceRoot(const std::vector<Program> &programs,
              const std::vector<Snapshot> &goldens, CloneSpec spec,
              RefMap &refs)
{
    const Program &prog = programs[spec.program];
    Outcome out;
    JobStats js;
    SpawnVm vm;
    vm.cloneFrom(*goldens[spec.golden], 0, 0);
    vm.runSegments(prog, 0, kSplit, freshRegion(spec), Clock::now(), out,
                   js, 0, 0);
    if (spec.spawn) {
        Snapshot snap = vm.machine().takeSnapshot();
        for (unsigned q = 0; q < kPrograms; ++q) {
            CloneSpec child;
            child.golden = spec.golden;
            child.program = q;
            child.isChild = true;
            child.parentProgram = spec.program;
            Outcome cout;
            SpawnVm cvm;
            cvm.cloneFrom(*snap, 0, 0);
            // Same two legs as a fleet job, without the snapshot.
            cvm.runSegments(programs[q], 0, kSplit, freshRegion(child),
                            Clock::now(), cout, js, 0, 0);
            cvm.runSegments(programs[q], kSplit, kSegments,
                            freshRegion(child), Clock::now(), cout, js, 0,
                            0);
            cvm.finish(cout, js);
            refs[child.key()] = formatValues(cout.checked());
        }
    }
    vm.runSegments(prog, kSplit, kSegments, freshRegion(spec), Clock::now(),
                   out, js, 0, 0);
    vm.finish(out, js);
    refs[spec.key()] = formatValues(out.checked());
}

double
perOp(double ns, std::uint64_t ops)
{
    return ops ? ns / double(ops) : 0;
}

} // namespace

void
runSpawnFleet(const Options &opt, Result &res)
{
    std::vector<Program> programs;
    for (unsigned p = 0; p < kPrograms; ++p)
        programs.push_back(makeProgram(p));
    const std::string refPath = opt.refsDir + "/spawn_fleet.ref";

    if (opt.writeRefs) {
        std::vector<Snapshot> goldens;
        bootGoldens(goldens);
        RefMap refs;
        for (unsigned g = 0; g < kGoldens; ++g) {
            for (unsigned p = 0; p < kPrograms; ++p) {
                for (bool spawn : {false, true}) {
                    CloneSpec s;
                    s.golden = g;
                    s.program = p;
                    s.spawn = spawn;
                    referenceRoot(programs, goldens, s, refs);
                }
            }
        }
        if (!writeRefs(refPath, refs,
                       "spawn_fleet reference per clone: sim_cycles, "
                       "stat-dump digest>>12 (perfbench --write-refs)"))
            res.fail(1, "cannot write " + refPath);
        return;
    }
    const RefMap refs = loadRefs(refPath);
    if (refs.size() != kGoldens * kPrograms * (2 + kPrograms))
        res.fail(1, "reference file " + refPath + " missing or stale");

    // Set-up: cold-boot, warm and snapshot the goldens. The first set is
    // the one the clones use; later samples boot a throw-away set.
    std::vector<Snapshot> goldens;
    std::vector<double> bootMs;
    SetUpSampler setUp([&] {
        std::vector<Snapshot> set;
        std::vector<double> b = bootGoldens(set);
        bootMs.insert(bootMs.end(), b.begin(), b.end());
        if (goldens.empty())
            goldens = std::move(set);
    });
    setUp.sample();

    Rng rng(opt.seed);
    const double phaseSeconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    Phase plain;
    Fleet::Stats plainStats;
    runPhase(plain, rng, phaseSeconds, programs, goldens, refs, res,
             plainStats, &setUp);

    if (!opt.trace) {
        res.e2e("ops_per_s", median(plain.epochOpsPerSec), "1/s");
        res.e2e("setup_s", setUp.medianSeconds(), "s");
        res.e2e("peak_rss_mb", peakRssMb(), "MB");
        res.e2e("spawn_ms_p50", percentile(plain.spawnMs, 0.5), "ms");
        res.e2e("spawn_ms_p95", percentile(plain.spawnMs, 0.95), "ms");
        res.e2e("table3_err_pct", table3ErrorPct(runTable3()), "%");
        return;
    }

    Tracer::setOn(true);
    Phase traced;
    Fleet::Stats stats;
    runPhase(traced, rng, phaseSeconds, programs, goldens, refs, res, stats,
             nullptr);
    Tracer::setOn(false);
    const JobStats &s = traced.sum;
    const double ops = double(std::max<std::uint64_t>(traced.ops, 1));
    const double jobs = double(std::max<std::uint64_t>(traced.jobs, 1));
    res.layer("core.hvc_ns", perOp(s.classNs[Hvc], s.classOps[Hvc]), "ns");
    res.layer("core.mmio_kernel_ns",
              perOp(s.classNs[KernelMmio], s.classOps[KernelMmio]), "ns");
    res.layer("vdev.mmio_user_ns",
              perOp(s.classNs[UserMmio], s.classOps[UserMmio]), "ns");
    res.layer("core.vgic_mmio_ns",
              perOp(s.classNs[GicdRead], s.classOps[GicdRead]), "ns");
    res.layer("core.stage2_fault_ns",
              perOp(s.classNs[FreshPage], s.classOps[FreshPage]), "ns");
    res.layer("arm.load_hit_ns", perOp(s.classNs[Load], s.classOps[Load]),
              "ns");
    res.layer("mem.cow_write_ns",
              perOp(s.classNs[CowWrite], s.classOps[CowWrite]), "ns");
    res.layer("arm.tlb.hit_ratio",
              double(s.tlbHits) / double(s.tlbHits + s.tlbMisses), "ratio");
    res.layer("core.exits_per_op", double(s.exits) / ops, "count");
    res.layer("check.events_per_op", double(s.checkEvents) / ops, "count");
    res.layer("check.violations", double(s.violations), "count");
    res.layer("sim.snapshot.take_ms",
              median(Tracer::spanMs("sim.snapshot.take")), "ms");
    res.layer("sim.snapshot.restore_ms",
              median(Tracer::spanMs("sim.snapshot.restore")), "ms");
    res.layer("sim.snapshot.bytes", median(traced.snapshotBytes), "bytes");
    res.layer("mem.phys_mem.cow_faults_per_clone",
              double(s.cowFaults) / jobs, "count");
    res.layer("mem.phys_mem.private_pages_per_clone",
              double(s.privatePages) / jobs, "count");
    res.layer("host.boot_ms", median(bootMs), "ms");
    res.layer("core.create_vm_ms", median(Tracer::spanMs("core.create_vm")),
              "ms");
    res.layer("sim.fleet.queue_wait_ms_p50",
              percentile(traced.queueWaitMs, 0.5), "ms");
    res.layer("sim.fleet.busy_ratio",
              traced.jobSeconds / traced.workerSeconds, "ratio");
    res.layer("sim.fleet.steal_ratio",
              double(stats.jobsStolen) / double(traced.jobSteps), "ratio");
    res.layer("sim.fleet.scaling_ceiling", plain.firstSum / plain.firstMax,
              "ratio");
    res.layer("sim.sim_cycles", plain.firstSum, "cycles");
    res.layer("trace.ops_per_s_untraced", median(plain.epochOpsPerSec),
              "1/s");
    res.layer("trace.ops_per_s_traced", median(traced.epochOpsPerSec),
              "1/s");
}

} // namespace perfbench
