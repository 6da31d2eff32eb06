/**
 * @file
 * ring_fleet: communicating VM pairs on a 4-worker fleet, checks off.
 *
 * Each batch holds one pair per (ring latency, payload size) combination
 * — nine pairs, eighteen VMs, more than the workers — and the seed picks
 * each pair's round count and the submission order. Every VM is a
 * resumable fleet job paced by the ring's conservative window protocol,
 * and its guest ping-pongs tagged messages through the vring device
 * (doorbell MMIO trap, user-space emulation, SPI injection, WFI). Batches
 * repeat until the run is long. One operation is one delivered message.
 * Per-VM sim_cycles, the device message-log digest and the guest payload
 * checksum are checked against refs/ring_fleet.ref, produced by a serial
 * round-robin run of each pair.
 */

#include <atomic>
#include <cstdio>

#include "common.hh"
#include "sim/fleet.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/ring_channel.hh"
#include "vdev/vring.hh"
#include "workload/ring_driver.hh"

namespace perfbench {

using namespace kvmarm;

namespace {

constexpr unsigned kWorkers = 4;
constexpr Cycles kLatencies[] = {5'000, 20'000, 80'000};
constexpr std::uint32_t kPayloads[] = {16, 64, 256};
constexpr unsigned kRounds[] = {60, 100, 140};

/** One communicating pair's inputs. */
struct PairSpec
{
    Cycles latency = 0;
    std::uint32_t payload = 0;
    unsigned rounds = 0;
};

std::string
vmKey(const PairSpec &p, bool initiator)
{
    return "l" + std::to_string(p.latency) + ".p" +
           std::to_string(p.payload) + ".r" + std::to_string(p.rounds) +
           (initiator ? ".init" : ".resp");
}

/** What one VM run produced. */
struct VmOutcome
{
    Cycles simCycles = 0;
    std::uint64_t digest = 0;
    std::uint64_t checksum = 0;
    std::uint64_t msgs = 0;
    std::uint64_t virqs = 0;   //!< virtual IRQs the guest took
    std::uint64_t windows = 0; //!< pacer windows run
    double bringUpMs = 0;      //!< boot + KVM init + VM and device creation
    double bootMs = 0;
    double createVmMs = 0;
    double stepSeconds = 0;    //!< host time inside RingPacer::step()
    std::uint64_t steps = 0;

    std::vector<double>
    checked() const
    {
        return {double(simCycles), double(digest >> 12),
                double(checksum >> 12), double(msgs)};
    }
};

/** One VM of a pair: machine, host kernel, KVM, vring device and guest,
 *  driven window by window by a RingPacer. */
class RingVm
{
  public:
    RingVm(std::uint64_t job, RingChannel::Endpoint &ep, bool initiator,
           const PairSpec &spec)
        : job_(job)
    {
        machine_ = std::make_unique<arm::ArmMachine>(smallMachine());
        hostk_ = std::make_unique<host::HostKernel>(*machine_);
        kvm_ = std::make_unique<core::Kvm>(*hostk_, core::KvmConfig{});
        pacer_ = std::make_unique<RingPacer>(*machine_,
                                             "vm" + std::to_string(job));
        pacer_->attach(ep);

        machine_->cpu(0).setEntry([this, &ep, initiator, spec] {
            arm::ArmCpu &cpu = machine_->cpu(0);
            Clock::time_point t0 = Clock::now();
            {
                ScopedSpan s("host.boot", "host", stepSpan_, job_);
                hostk_->boot(0);
            }
            Clock::time_point t1 = Clock::now();
            {
                ScopedSpan s("core.init_cpu", "core", stepSpan_, job_);
                if (!kvm_->initCpu(cpu))
                    fatal("perfbench: KVM init failed");
            }
            Clock::time_point t2 = Clock::now();
            core::VCpu *vcpu;
            {
                ScopedSpan s("core.create_vm", "core", stepSpan_, job_);
                vm_ = kvm_->createVm(64 * kMiB);
                vcpu = &vm_->addVcpu(0);
            }
            Clock::time_point t3 = Clock::now();
            {
                ScopedSpan s("vdev.vring_create", "vdev", stepSpan_, job_);
                guest_ = std::make_unique<wl::RingGuestOs>();
                vcpu->setGuestOs(guest_.get());
                dev_ = std::make_unique<vdev::VringDevice>(*kvm_, *vm_, ep);
            }
            Clock::time_point t4 = Clock::now();
            out_.bootMs = secondsBetween(t0, t1) * 1e3;
            out_.createVmMs = secondsBetween(t2, t3) * 1e3;
            out_.bringUpMs = secondsBetween(t0, t4) * 1e3;

            vcpu->run(cpu, [this, initiator, spec](arm::ArmCpu &c) {
                guest_->init(c);
                Cycles sim0 = c.now();
                guest_->pingPong(c, spec.rounds, initiator, spec.payload);
                out_.simCycles = c.now() - sim0;
            });
            out_.digest = dev_->digest();
            out_.checksum = guest_->checksum();
            out_.msgs = dev_->txCount();
            out_.virqs = counterSum(machine_->cpu(0).stats(), "irq.virtual");
        });
    }

    Fleet::StepOutcome
    step()
    {
        ScopedSpan s("sim.ring_channel.step", "sim", 0, job_);
        stepSpan_ = s.id(); // the bring-up spans nest under the first step
        const Clock::time_point t0 = Clock::now();
        RingPacer::Step st = pacer_->step();
        out_.stepSeconds += secondsBetween(t0, Clock::now());
        ++out_.steps;
        out_.windows = pacer_->windowsRun();
        return st == RingPacer::Step::Done ? Fleet::StepOutcome::Done
                                           : Fleet::StepOutcome::Blocked;
    }

    RingPacer &pacer() { return *pacer_; }
    const VmOutcome &outcome() const { return out_; }

  private:
    std::uint64_t job_;
    std::uint64_t stepSpan_ = 0;
    // The device and pacer deregister snapshot blockers from the machine,
    // so the machine is declared (and outlives them) first.
    std::unique_ptr<arm::ArmMachine> machine_;
    std::unique_ptr<host::HostKernel> hostk_;
    std::unique_ptr<core::Kvm> kvm_;
    std::unique_ptr<RingPacer> pacer_;
    std::unique_ptr<wl::RingGuestOs> guest_;
    std::unique_ptr<core::Vm> vm_;
    std::unique_ptr<vdev::VringDevice> dev_;
    VmOutcome out_;
};

/** One batch's pairs: every (latency, payload) once, seeded rounds and
 *  order. A @p canonical batch uses the middle round count for every
 *  pair, so its simulated cycles do not depend on the seed. */
std::vector<PairSpec>
makeBatch(Rng &rng, bool canonical)
{
    std::vector<PairSpec> pairs;
    for (Cycles lat : kLatencies)
        for (std::uint32_t pay : kPayloads)
            pairs.push_back(
                {lat, pay, kRounds[canonical ? 1 : rng.range(3)]});
    for (std::size_t i = pairs.size(); i > 1; --i)
        std::swap(pairs[i - 1], pairs[rng.range(i)]);
    return pairs;
}

/** Everything a phase of batches measured. */
struct Phase
{
    std::vector<double> batchOpsPerSec;
    std::uint64_t msgs = 0;
    std::vector<double> bringUpMs;
    std::vector<double> bootMs;
    std::vector<double> createVmMs;
    double jobSeconds = 0;
    double workerSeconds = 0;
    std::uint64_t jobSteps = 0, jobsStolen = 0, jobsParked = 0;
    std::uint64_t virqs = 0, windows = 0, steps = 0;
    double stepSeconds = 0;
    double firstSum = 0, firstMax = 0; //!< canonical first batch's cycles
};

void
runBatch(Fleet &fleet, const std::vector<PairSpec> &pairs,
         const RefMap &refs, std::uint64_t &nextJob, Phase &ph, Result &res)
{
    const Clock::time_point t0 = Clock::now();
    std::vector<std::unique_ptr<RingChannel>> channels;
    std::vector<std::unique_ptr<RingVm>> vms;
    std::vector<std::pair<const PairSpec *, bool>> roles;
    for (const PairSpec &p : pairs) {
        channels.push_back(std::make_unique<RingChannel>(
            "ring" + std::to_string(channels.size()), p.latency));
        for (unsigned side : {0u, 1u}) {
            vms.push_back(std::make_unique<RingVm>(
                ++nextJob, channels.back()->end(side), side == 0, p));
            roles.push_back({&p, side == 0});
        }
    }
    // The pool is live, so a job may be stepped before its peer's wake
    // hook exists. Jobs therefore start disarmed (a disarmed step parks
    // at once); once every hook is wired they are armed and woken.
    auto armed = std::make_shared<std::atomic<bool>>(false);
    std::vector<std::size_t> handles;
    for (std::size_t i = 0; i < vms.size(); ++i) {
        RingVm *vm = vms[i].get();
        handles.push_back(fleet.submitResumable(
            "vm" + std::to_string(i), [vm, armed] {
                if (!armed->load())
                    return Fleet::StepOutcome::Blocked;
                return vm->step();
            }));
        vm->pacer().setWakeHook(
            [&fleet, idx = handles.back()] { fleet.notify(idx); });
    }
    armed->store(true);
    for (std::size_t idx : handles)
        fleet.notify(idx);
    std::vector<Fleet::JobResult> jobs = fleet.drain();
    const double wall = secondsBetween(t0, Clock::now());

    std::uint64_t batchMsgs = 0;
    double sum = 0, max = 0;
    for (std::size_t i = 0; i < vms.size(); ++i) {
        const VmOutcome &o = vms[i]->outcome();
        const PairSpec &spec = *roles[i].first;
        const std::string key = vmKey(spec, roles[i].second);
        res.attempted += spec.rounds;
        if (i >= jobs.size() || !jobs[i].ok) {
            res.fail(spec.rounds,
                     key + " failed: " +
                         (i < jobs.size() ? jobs[i].error : "no result"));
            continue;
        }
        auto ref = refs.find(key);
        if (ref == refs.end() || ref->second != formatValues(o.checked()))
            res.fail(spec.rounds, key + " differs from the reference");
        batchMsgs += o.msgs;
        ph.bringUpMs.push_back(o.bringUpMs);
        ph.bootMs.push_back(o.bootMs);
        ph.createVmMs.push_back(o.createVmMs);
        ph.virqs += o.virqs;
        ph.windows += o.windows;
        ph.steps += o.steps;
        ph.stepSeconds += o.stepSeconds;
        ph.jobSeconds += jobs[i].wallSeconds;
        ph.jobSteps += jobs[i].steps;
        sum += double(o.simCycles);
        max = std::max(max, double(o.simCycles));
    }
    if (ph.batchOpsPerSec.empty()) {
        ph.firstSum = sum;
        ph.firstMax = max;
    }
    ph.msgs += batchMsgs;
    ph.batchOpsPerSec.push_back(double(batchMsgs) / wall);
    ph.workerSeconds += wall * kWorkers;
}

Phase
runPhase(Rng &rng, double seconds, const RefMap &refs,
         std::uint64_t &nextJob, Result &res, SetUpSampler *setUp)
{
    Phase ph;
    Fleet fleet(kWorkers);
    fleet.start();
    const Clock::time_point start = Clock::now();
    do {
        runBatch(fleet, makeBatch(rng, ph.batchOpsPerSec.empty()), refs,
                 nextJob, ph, res);
        if (setUp)
            setUp->maybeSample();
    } while (secondsBetween(start, Clock::now()) < seconds);
    fleet.shutdown();
    ph.jobsStolen = fleet.stats().jobsStolen;
    ph.jobsParked = fleet.stats().jobsParked;
    return ph;
}

/** Serial reference for one pair: round-robin both pacers on this
 *  thread, no fleet. */
void
referencePair(const PairSpec &p, RefMap &refs)
{
    RingChannel ch("ref", p.latency);
    RingVm a(1, ch.end(0), true, p);
    RingVm b(2, ch.end(1), false, p);
    bool doneA = false, doneB = false;
    while (!doneA || !doneB) {
        if (!doneA)
            doneA = a.step() == Fleet::StepOutcome::Done;
        if (!doneB)
            doneB = b.step() == Fleet::StepOutcome::Done;
    }
    refs[vmKey(p, true)] = formatValues(a.outcome().checked());
    refs[vmKey(p, false)] = formatValues(b.outcome().checked());
}

} // namespace

void
runRingFleet(const Options &opt, Result &res)
{
    const std::string refPath = opt.refsDir + "/ring_fleet.ref";
    if (opt.writeRefs) {
        RefMap refs;
        for (Cycles lat : kLatencies)
            for (std::uint32_t pay : kPayloads)
                for (unsigned rounds : kRounds)
                    referencePair({lat, pay, rounds}, refs);
        if (!writeRefs(refPath, refs,
                       "ring_fleet reference per VM: sim_cycles, "
                       "digest>>12, checksum>>12, messages sent "
                       "(perfbench --write-refs)"))
            res.fail(1, "cannot write " + refPath);
        return;
    }
    const RefMap refs = loadRefs(refPath);
    if (refs.size() != 2 * std::size(kLatencies) * std::size(kPayloads) *
                           std::size(kRounds))
        res.fail(1, "reference file " + refPath + " missing or stale");

    // Set-up: bring up one batch's worth of VM stacks (construction, host
    // boot, KVM init, VM creation).
    SetUpSampler setUp([] {
        for (std::size_t v = 0;
             v < 2 * std::size(kLatencies) * std::size(kPayloads); ++v)
            runArmGuest(smallMachine(), {}, 64 * kMiB,
                        [](arm::ArmCpu &, core::Vm &) {});
    });

    Rng rng(opt.seed);
    std::uint64_t nextJob = 0;
    const double phaseSeconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    Phase plain = runPhase(rng, phaseSeconds, refs, nextJob, res, &setUp);

    if (!opt.trace) {
        res.e2e("ops_per_s", median(plain.batchOpsPerSec), "1/s");
        res.e2e("setup_s", setUp.medianSeconds(), "s");
        res.e2e("peak_rss_mb", peakRssMb(), "MB");
        res.e2e("spawn_ms_p50", percentile(plain.bringUpMs, 0.5), "ms");
        res.e2e("spawn_ms_p95", percentile(plain.bringUpMs, 0.95), "ms");
        res.e2e("table3_err_pct", table3ErrorPct(runTable3()), "%");
        return;
    }

    Tracer::setOn(true);
    Phase traced = runPhase(rng, phaseSeconds, refs, nextJob, res, nullptr);
    Tracer::setOn(false);
    const double msgs = double(std::max<std::uint64_t>(traced.msgs, 1));
    res.layer("host.boot_ms", median(traced.bootMs), "ms");
    res.layer("core.create_vm_ms", median(traced.createVmMs), "ms");
    res.layer("sim.fleet.busy_ratio",
              traced.jobSeconds / traced.workerSeconds, "ratio");
    res.layer("sim.fleet.steal_ratio",
              double(traced.jobsStolen) / double(traced.jobSteps), "ratio");
    res.layer("sim.fleet.scaling_ceiling", plain.firstSum / plain.firstMax,
              "ratio");
    res.layer("sim.ring_channel.step_us",
              1e6 * traced.stepSeconds / double(traced.steps), "us");
    res.layer("sim.ring_channel.msgs_per_window",
              msgs / double(traced.windows), "count");
    res.layer("sim.fleet.parks_per_msg", double(traced.jobsParked) / msgs,
              "count");
    res.layer("core.irq_injected_per_msg", double(traced.virqs) / msgs,
              "count");
    res.layer("sim.sim_cycles", plain.firstSum, "cycles");
    res.layer("trace.ops_per_s_untraced", median(plain.batchOpsPerSec),
              "1/s");
    res.layer("trace.ops_per_s_traced", median(traced.batchOpsPerSec),
              "1/s");
}

} // namespace perfbench
