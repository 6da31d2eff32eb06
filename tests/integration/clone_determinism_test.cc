/**
 * @file
 * Snapshot/clone determinism: a clone restored from a quiesced machine
 * snapshot must replay its workload with per-VM sim_cycles and stat dumps
 * bit-identical to (a) the origin machine continuing past the snapshot and
 * (b) an independent cold-booted machine running the same phases — across
 * invariant check modes, with COW isolation between sibling clones, with
 * pending events in flight at the snapshot point, and through clone-of-
 * clone chains (ISSUE 8 acceptance; DESIGN.md §4.9).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arm/machine.hh"
#include "check/invariants.hh"
#include "core/kvm.hh"
#include "host/kernel.hh"
#include "sim/fleet.hh"
#include "sim/logging.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;

constexpr Addr kGuestRam = 32 * kMiB;

/** Everything observable a VM workload leg produced. */
struct VmRun
{
    Cycles simCycles = 0;
    std::string statDump;
};

/**
 * One full-stack cloneable VM: machine + host kernel + KVM + 1-VCPU guest.
 * Two-phase lifecycle: a boot/warmup leg that quiesces (so a snapshot can
 * be taken), then a workload leg. A clone skips the boot leg entirely —
 * it rebuilds the VM skeleton and adopts all state from a snapshot.
 */
class CloneableVm
{
  public:
    CloneableVm()
        : machine_(makeConfig()), hostk_(machine_), kvm_(hostk_)
    {
    }

    ArmMachine &machine() { return machine_; }
    core::Vm &vm() { return *vm_; }

    /** Boot/warmup leg: boot host + KVM, create the VM, fault in guest
     *  pages and exercise hypercalls/MMIO, then quiesce. */
    void coldBoot()
    {
        machine_.cpu(0).setEntry([this] {
            ArmCpu &cpu = machine_.cpu(0);
            hostk_.boot(0);
            ASSERT_TRUE(kvm_.initCpu(cpu));
            buildVmSkeleton();
            vcpu_->run(cpu, [this](ArmCpu &c) { warmup(c); });
        });
        machine_.run();
    }

    /** Clone path: rebuild the VM skeleton (same calls, same order as the
     *  origin's boot leg) and adopt the snapshot. Never boots. */
    void cloneFrom(const MachineSnapshot &snap)
    {
        kvm_.primeForRestore();
        buildVmSkeleton();
        machine_.restoreSnapshot(snap);
    }

    /** Workload leg, from a quiesced machine (booted or cloned). */
    VmRun runWorkload(unsigned index)
    {
        VmRun run;
        machine_.cpu(0).setEntry([this, &run, index] {
            ArmCpu &cpu = machine_.cpu(0);
            vcpu_->run(cpu, [this, &run, index](ArmCpu &c) {
                Cycles sim0 = c.now();
                workload(c, index);
                run.simCycles = c.now() - sim0;
            });
        });
        machine_.run();

        std::ostringstream os;
        machine_.cpu(0).stats().dump(os, "cpu0.");
        vcpu_->stats.dump(os, "vcpu.");
        run.statDump = os.str();
        return run;
    }

    /** Run a tiny guest body (for targeted read/write probes). */
    void runGuest(const std::function<void(ArmCpu &)> &body)
    {
        machine_.cpu(0).setEntry([this, &body] {
            vcpu_->run(machine_.cpu(0), body);
        });
        machine_.run();
    }

  private:
    static ArmMachine::Config makeConfig()
    {
        ArmMachine::Config mc;
        mc.numCpus = 1;
        mc.ramSize = 64 * kMiB;
        return mc;
    }

    void buildVmSkeleton()
    {
        vm_ = kvm_.createVm(kGuestRam);
        vcpu_ = &vm_->addVcpu(0);
        vm_->addKernelDevice(core::Vm::kKernelTestDevBase, 0x1000,
                             [](bool, Addr, std::uint64_t, unsigned) {
                                 return std::uint64_t{0};
                             });
    }

    /** Fault in a spread of guest pages and touch the trap paths, so the
     *  snapshot carries a populated Stage-2 and warm caches. */
    void warmup(ArmCpu &c)
    {
        const Addr base = vm_->ramBase();
        for (unsigned i = 0; i < 192; ++i)
            c.memWrite(base + Addr(i) * kPageSize, 0xA0000000u + i, 4);
        for (unsigned i = 0; i < 40; ++i)
            c.hvc(core::hvc::kTestHypercall);
        for (unsigned i = 0; i < 10; ++i)
            c.memWrite(core::Vm::kKernelTestDevBase, i, 4);
    }

    /** Index-varied mixed workload (as in the fleet determinism test). */
    void workload(ArmCpu &c, unsigned index)
    {
        const Addr base = vm_->ramBase();
        for (std::uint64_t i = 0; i < 1000 + 250 * index; ++i)
            c.memRead(base + ((i & 63) * 8), 4);
        for (std::uint64_t i = 0; i < 60 + 15 * index; ++i)
            c.hvc(core::hvc::kTestHypercall);
        for (std::uint64_t i = 0; i < 30 + 6 * index; ++i)
            c.memWrite(core::Vm::kKernelTestDevBase,
                       static_cast<std::uint32_t>(i), 4);
        // Fresh pages: Stage-2 faults after the snapshot point, which in a
        // clone also COW-fault the shared RAM image.
        const Addr fresh = base + 0x1000000;
        for (std::uint64_t i = 0; i < 24 + 4 * index; ++i)
            c.memWrite(fresh + Addr(i) * kPageSize, 0xB000 + i, 4);
    }

    ArmMachine machine_;
    host::HostKernel hostk_;
    core::Kvm kvm_;
    std::unique_ptr<core::Vm> vm_;
    core::VCpu *vcpu_ = nullptr;
};

/** Snapshot an origin and return (snapshot, origin) ready for workloads. */
std::shared_ptr<const MachineSnapshot>
bootAndSnapshot(CloneableVm &origin)
{
    origin.coldBoot();
    return origin.machine().takeSnapshot();
}

TEST(FleetCloneDeterminism, CloneMatchesColdBootAndContinuingOrigin)
{
    CloneableVm origin;
    auto snap = bootAndSnapshot(origin);

    // Reference 1: an independent machine cold-booting through the same
    // phases. Reference 2: the origin itself continuing past the snapshot.
    CloneableVm cold;
    cold.coldBoot();

    CloneableVm clone;
    clone.cloneFrom(*snap);

    VmRun cold_run = cold.runWorkload(2);
    VmRun origin_run = origin.runWorkload(2);
    VmRun clone_run = clone.runWorkload(2);

    EXPECT_GT(cold_run.simCycles, 0u);
    EXPECT_EQ(origin_run.simCycles, cold_run.simCycles)
        << "taking a snapshot perturbed the origin's simulation";
    EXPECT_EQ(clone_run.simCycles, cold_run.simCycles)
        << "clone's workload diverged from cold boot";
    EXPECT_FALSE(cold_run.statDump.empty());
    EXPECT_EQ(origin_run.statDump, cold_run.statDump);
    EXPECT_EQ(clone_run.statDump, cold_run.statDump);

    // The clone really did share RAM: it faulted private copies only for
    // the pages its workload wrote.
    EXPECT_GT(clone.machine().ram().cowFaults(), 0u);
    EXPECT_GT(clone.machine().ram().sharedPages(), 0u);
}

TEST(FleetCloneDeterminism, BitIdenticalAcrossCheckModes)
{
    // The full boot -> snapshot -> clone -> workload cycle runs inside
    // each mode scope (machine engines inherit the facade mode at
    // construction); simulated results must not depend on the mode.
    const check::CheckMode modes[] = {check::CheckMode::Off,
                                      check::CheckMode::Log,
                                      check::CheckMode::Enforce};
    std::vector<VmRun> clone_runs;
    std::vector<VmRun> cold_runs;
    for (check::CheckMode mode : modes) {
        check::ScopedCheckMode scope(mode);
        CloneableVm origin;
        auto snap = bootAndSnapshot(origin);
        CloneableVm clone;
        clone.cloneFrom(*snap);
        clone_runs.push_back(clone.runWorkload(1));
        cold_runs.push_back(origin.runWorkload(1));
    }
    for (std::size_t m = 0; m < clone_runs.size(); ++m) {
        SCOPED_TRACE("mode " + std::to_string(m));
        EXPECT_EQ(clone_runs[m].simCycles, cold_runs[m].simCycles);
        EXPECT_EQ(clone_runs[m].statDump, cold_runs[m].statDump);
        EXPECT_EQ(clone_runs[m].simCycles, clone_runs[0].simCycles);
        EXPECT_EQ(clone_runs[m].statDump, clone_runs[0].statDump);
    }
}

TEST(FleetCloneIsolation, SiblingClonesDoNotSeeEachOthersWrites)
{
    CloneableVm origin;
    auto snap = bootAndSnapshot(origin);

    // The warmup wrote 0xA0000000 to the first guest page; both clones
    // inherit that page via the shared image.
    CloneableVm clone_a;
    clone_a.cloneFrom(*snap);
    CloneableVm clone_b;
    clone_b.cloneFrom(*snap);

    std::uint64_t a_before = 0, a_after = 0, b_sees = 0, origin_sees = 0;

    clone_a.runGuest([&](ArmCpu &c) {
        Addr pa = clone_a.vm().ramBase();
        a_before = c.memRead(pa, 4);
        c.memWrite(pa, 0xDEAD0001u, 4);
        a_after = c.memRead(pa, 4);
    });
    clone_b.runGuest([&](ArmCpu &c) {
        b_sees = c.memRead(clone_b.vm().ramBase(), 4);
    });
    origin.runGuest([&](ArmCpu &c) {
        origin_sees = c.memRead(origin.vm().ramBase(), 4);
    });

    EXPECT_EQ(a_before, 0xA0000000u);
    EXPECT_EQ(a_after, 0xDEAD0001u);
    EXPECT_EQ(b_sees, 0xA0000000u) << "clone B saw clone A's write";
    EXPECT_EQ(origin_sees, 0xA0000000u) << "origin saw clone A's write";
    EXPECT_GE(clone_a.machine().ram().cowFaults(), 1u);
}

TEST(FleetCloneEdge, PendingTimerEventSurvivesSnapshot)
{
    // Machine + host kernel only: arm the per-CPU virtual timer so a
    // compare-fire event is pending in the queue at the snapshot point,
    // then check the clone delivers it at the same simulated cycle.
    auto run_leg2 = [](ArmMachine &m) {
        m.cpu(0).setEntry([&m] { m.cpu(0).compute(200000); });
        m.run();
        std::ostringstream os;
        m.cpu(0).stats().dump(os, "cpu0.");
        return os.str();
    };

    ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 16 * kMiB;

    ArmMachine origin(mc);
    host::HostKernel origin_host(origin);
    origin.cpu(0).setEntry([&] {
        origin_host.boot(0);
        arm::TimerRegs t;
        t.enable = true;
        t.cval = origin.cpu(0).now() + 100000; // fires during leg 2
        origin.timer().setVirt(0, t);
    });
    origin.run();
    ASSERT_GT(origin.cpu(0).events().size(), 0u)
        << "timer event should be pending at the snapshot point";
    auto snap = origin.takeSnapshot();

    ArmMachine clone(mc);
    host::HostKernel clone_host(clone);
    clone.restoreSnapshot(*snap);

    std::string origin_dump = run_leg2(origin);
    std::string clone_dump = run_leg2(clone);
    EXPECT_EQ(origin.cpu(0).now(), clone.cpu(0).now());
    EXPECT_EQ(origin_dump, clone_dump);
    // The PPI really fired (host has no handler for it -> counted).
    EXPECT_NE(origin_dump.find("host.irq.unhandled"), std::string::npos);
}

TEST(FleetCloneEdge, CloneOfCloneMatchesFirstClone)
{
    CloneableVm origin;
    auto snap = bootAndSnapshot(origin);

    CloneableVm clone1;
    clone1.cloneFrom(*snap);
    // Re-snapshot the clone immediately: the grandchild restores through
    // a flattened image chain (clone1's private pages overlaid on the
    // origin image).
    auto snap2 = clone1.machine().takeSnapshot();

    CloneableVm clone2;
    clone2.cloneFrom(*snap2);

    VmRun run1 = clone1.runWorkload(3);
    VmRun run2 = clone2.runWorkload(3);
    VmRun run0 = origin.runWorkload(3);

    EXPECT_EQ(run1.simCycles, run0.simCycles);
    EXPECT_EQ(run2.simCycles, run0.simCycles);
    EXPECT_EQ(run1.statDump, run0.statDump);
    EXPECT_EQ(run2.statDump, run0.statDump);
}

TEST(FleetCloneFleet, EightClonesFromOneSnapshotMatchSoloClones)
{
    CloneableVm origin;
    auto snap = bootAndSnapshot(origin);

    // Reference: one clone per workload index, run serially.
    std::vector<VmRun> solo(4);
    for (unsigned i = 0; i < 4; ++i) {
        CloneableVm c;
        c.cloneFrom(*snap);
        solo[i] = c.runWorkload(i);
    }

    // 8 clones (2 per index) spun up from the same shared snapshot on a
    // 4-thread fleet; every clone must match its solo reference.
    std::vector<VmRun> fleet_runs(8);
    Fleet fleet(4);
    for (unsigned i = 0; i < 8; ++i) {
        fleet.submit("clone" + std::to_string(i), [i, &snap, &fleet_runs] {
            CloneableVm c;
            c.cloneFrom(*snap);
            fleet_runs[i] = c.runWorkload(i % 4);
        });
    }
    fleet.start();
    for (const Fleet::JobResult &r : fleet.shutdown())
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;

    for (unsigned i = 0; i < 8; ++i) {
        SCOPED_TRACE("clone" + std::to_string(i));
        EXPECT_EQ(fleet_runs[i].simCycles, solo[i % 4].simCycles);
        EXPECT_EQ(fleet_runs[i].statDump, solo[i % 4].statDump);
    }
}

} // namespace
} // namespace kvmarm
