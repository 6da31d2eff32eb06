/**
 * @file
 * Fleet determinism: a VM's simulated execution is bit-identical whether
 * it runs solo on the calling thread, in a 4-VM fleet on 1 worker thread,
 * or in the same fleet on 8 worker threads. Both the cycle clock and the
 * full stat-dump text must match — the fleet executor may change only
 * wall-clock time, never simulated behavior (ISSUE 4 acceptance; DESIGN.md
 * §4.7).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "arm/machine.hh"
#include "core/kvm.hh"
#include "host/kernel.hh"
#include "sim/fleet.hh"
#include "sim/logging.hh"

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;

/** Everything observable a VM run produced. */
struct VmRun
{
    Cycles simCycles = 0;
    std::string statDump;
};

/**
 * One full-stack VM: private machine + host kernel + KVM + 1-VCPU guest
 * running a mixed workload whose proportions depend on @p index, so the
 * four fleet members genuinely differ from each other.
 */
VmRun
runOneVm(unsigned index)
{
    VmRun run;
    ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 64 * kMiB;
    ArmMachine machine(mc);
    host::HostKernel hostk(machine);
    core::Kvm kvm(hostk, core::KvmConfig{});

    machine.cpu(0).setEntry([&] {
        ArmCpu &cpu = machine.cpu(0);
        hostk.boot(0);
        ASSERT_TRUE(kvm.initCpu(cpu));
        std::unique_ptr<core::Vm> vm = kvm.createVm(32 * kMiB);
        core::VCpu &vcpu = vm->addVcpu(0);
        vm->addKernelDevice(core::Vm::kKernelTestDevBase, 0x1000,
                            [](bool, Addr, std::uint64_t, unsigned) {
                                return std::uint64_t{0};
                            });

        vcpu.run(cpu, [&](ArmCpu &c) {
            Cycles sim0 = c.now();
            // Mixed per-index workload: compute, world switches, MMIO,
            // and Stage-2 faults in index-dependent proportions.
            const Addr page = vm->ramBase() + 0x10000;
            for (std::uint64_t i = 0; i < 2000 + 500 * index; ++i)
                c.memRead(page + ((i & 63) * 8), 4);
            for (std::uint64_t i = 0; i < 100 + 25 * index; ++i)
                c.hvc(core::hvc::kTestHypercall);
            for (std::uint64_t i = 0; i < 50 + 10 * index; ++i)
                c.memWrite(core::Vm::kKernelTestDevBase,
                           static_cast<std::uint32_t>(i), 4);
            const Addr fresh = vm->ramBase() + 0x800000;
            for (std::uint64_t i = 0; i < 32 + 8 * index; ++i)
                c.memRead(fresh + Addr(i) * kPageSize, 4);
            run.simCycles = c.now() - sim0;
        });
    });
    machine.run();

    std::ostringstream os;
    machine.cpu(0).stats().dump(os, "cpu0.");
    run.statDump = os.str();
    return run;
}

/** Run the whole 4-VM fleet at @p threads worker threads. */
std::vector<VmRun>
runFleet(unsigned threads)
{
    constexpr unsigned kVms = 4;
    std::vector<VmRun> runs(kVms);
    Fleet fleet(threads);
    for (unsigned i = 0; i < kVms; ++i) {
        fleet.submit("vm" + std::to_string(i),
                     [i, &runs] { runs[i] = runOneVm(i); });
    }
    fleet.start();
    for (const Fleet::JobResult &r : fleet.shutdown())
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    return runs;
}

TEST(FleetDeterminism, SoloAndFleetRunsAreBitIdentical)
{
    // Reference: each VM config run solo, no fleet involved.
    std::vector<VmRun> solo;
    for (unsigned i = 0; i < 4; ++i)
        solo.push_back(runOneVm(i));

    // The workloads really are distinct per VM.
    for (unsigned i = 1; i < 4; ++i)
        ASSERT_NE(solo[i].simCycles, solo[0].simCycles);

    std::vector<VmRun> fleet1 = runFleet(1);
    std::vector<VmRun> fleet8 = runFleet(8);

    for (unsigned i = 0; i < 4; ++i) {
        SCOPED_TRACE("vm" + std::to_string(i));
        EXPECT_GT(solo[i].simCycles, 0u);
        EXPECT_EQ(fleet1[i].simCycles, solo[i].simCycles);
        EXPECT_EQ(fleet8[i].simCycles, solo[i].simCycles);
        EXPECT_FALSE(solo[i].statDump.empty());
        EXPECT_EQ(fleet1[i].statDump, solo[i].statDump);
        EXPECT_EQ(fleet8[i].statDump, solo[i].statDump);
    }
}

TEST(FleetDeterminism, RepeatedFleetRunsAreBitIdentical)
{
    // Same thread count twice: wall time may differ, simulation may not.
    std::vector<VmRun> a = runFleet(8);
    std::vector<VmRun> b = runFleet(8);
    for (unsigned i = 0; i < 4; ++i) {
        SCOPED_TRACE("vm" + std::to_string(i));
        EXPECT_EQ(a[i].simCycles, b[i].simCycles);
        EXPECT_EQ(a[i].statDump, b[i].statDump);
    }
}

} // namespace
} // namespace kvmarm
