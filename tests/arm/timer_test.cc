/** @file Generic timer tests: counters, CNTVOFF, firing, CNTHCTL gate. */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "arm/machine.hh"

namespace kvmarm::arm {
namespace {

class TimerTest : public ::testing::Test
{
  protected:
    TimerTest()
    {
        ArmMachine::Config mc;
        mc.numCpus = 1;
        mc.ramSize = 32 * kMiB;
        machine = std::make_unique<ArmMachine>(mc);
        // Enable the distributor and the timer PPIs so pending state is
        // observable through bestPending().
        machine->gicd().write(0, gicd::CTLR, 1, 4);
        machine->gicd().write(0, gicd::ISENABLER,
                              (1u << kVirtTimerPpi) | (1u << kPhysTimerPpi),
                              4);
    }

    ArmCpu &cpu() { return machine->cpu(0); }
    GenericTimer &timer() { return machine->timer(); }

    std::unique_ptr<ArmMachine> machine;
};

TEST_F(TimerTest, CountersTrackCpuClock)
{
    machine->cpu(0).setEntry([&] {
        cpu().compute(1000);
        std::uint64_t p = timer().physCount(0);
        EXPECT_GE(p, 1000u);
        cpu().hyp().cntvoff = 300;
        EXPECT_EQ(timer().virtCount(0), p - 300);
    });
    machine->run();
}

TEST_F(TimerTest, VirtTimerFiresPpi)
{
    machine->cpu(0).setEntry([&] {
        TimerRegs t;
        t.enable = true;
        t.cval = cpu().now() + 5000;
        timer().setVirt(0, t);
        EXPECT_FALSE(timer().virtIstatus(0));
        cpu().compute(6000);
        EXPECT_TRUE(timer().virtIstatus(0));
        EXPECT_EQ(machine->gicd().bestPending(0).irq, kVirtTimerPpi);
    });
    machine->run();
}

TEST_F(TimerTest, PhysTimerFiresItsOwnPpi)
{
    machine->cpu(0).setEntry([&] {
        TimerRegs t;
        t.enable = true;
        t.cval = cpu().now() + 2000;
        timer().setPhys(0, t);
        cpu().compute(3000);
        EXPECT_EQ(machine->gicd().bestPending(0).irq, kPhysTimerPpi);
    });
    machine->run();
}

TEST_F(TimerTest, MaskedTimerDoesNotFire)
{
    machine->cpu(0).setEntry([&] {
        TimerRegs t;
        t.enable = true;
        t.imask = true;
        t.cval = cpu().now() + 100;
        timer().setVirt(0, t);
        cpu().compute(500);
        EXPECT_EQ(machine->gicd().bestPending(0).irq, kSpuriousIrq);
        EXPECT_TRUE(timer().virtIstatus(0)); // condition holds, irq masked
    });
    machine->run();
}

TEST_F(TimerTest, ReprogramCancelsOldDeadline)
{
    machine->cpu(0).setEntry([&] {
        TimerRegs t;
        t.enable = true;
        t.cval = cpu().now() + 1000;
        timer().setVirt(0, t);
        t.cval = cpu().now() + 50000; // push out
        timer().setVirt(0, t);
        cpu().compute(2000);
        EXPECT_EQ(machine->gicd().bestPending(0).irq, kSpuriousIrq);
        cpu().compute(60000);
        EXPECT_EQ(machine->gicd().bestPending(0).irq, kVirtTimerPpi);
    });
    machine->run();
}

TEST_F(TimerTest, CntvoffShiftsVirtDeadline)
{
    machine->cpu(0).setEntry([&] {
        // CNTVCT = CNTPCT - CNTVOFF; advance past the offset first so the
        // virtual counter is well defined.
        cpu().compute(20000);
        cpu().setMode(Mode::Hyp);
        cpu().writeCntvoff(5000);
        cpu().setMode(Mode::Svc);
        TimerRegs t;
        t.enable = true;
        t.cval = timer().virtCount(0) + 1000; // virtual deadline
        timer().setVirt(0, t);
        cpu().compute(1500);
        EXPECT_EQ(machine->gicd().bestPending(0).irq, kVirtTimerPpi);
    });
    machine->run();
}

TEST_F(TimerTest, Cnthctl0GatesPl1PhysAccess)
{
    // With PL1 physical-timer access revoked (as KVM configures while a
    // VM runs), physical counter reads from kernel mode trap to Hyp.
    class CountingHyp : public HypVectors
    {
      public:
        void
        hypTrap(ArmCpu &cpu, const Hsr &hsr) override
        {
            ++traps;
            EXPECT_EQ(hsr.ec, ExcClass::TimerTrap);
            cpu.setTrappedReadValue(0x1234);
        }
        const char *name() const override { return "counting-hyp"; }
        int traps = 0;
    } hyp;

    machine->cpu(0).setEntry([&] {
        cpu().setHypVectors(&hyp);
        cpu().hyp().pl1PhysTimerAccess = false;
        EXPECT_EQ(cpu().readCntpct(), 0x1234u);
        EXPECT_EQ(hyp.traps, 1);
        // The virtual counter is always accessible (paper §2).
        (void)cpu().readCntvct();
        EXPECT_EQ(hyp.traps, 1);
    });
    machine->run();
}

/** The bytes of @p machine's "timer" snapshot record. */
std::vector<std::uint8_t>
timerRecord(ArmMachine &machine)
{
    std::shared_ptr<const MachineSnapshot> snap = machine.takeSnapshot();
    for (const SnapshotRecord &rec : snap->records) {
        if (rec.key == "timer")
            return rec.bytes;
    }
    ADD_FAILURE() << "no timer record";
    return {};
}

TEST_F(TimerTest, SnapshotRecordIsAFunctionOfFieldValues)
{
    // Registers built in storage that held 0xFF bytes: every byte of the
    // record must still come from a field, or two runs of one workload
    // would snapshot differently.
    alignas(TimerRegs) unsigned char storage[sizeof(TimerRegs)];
    std::memset(storage, 0xFF, sizeof(storage));
    TimerRegs *dirty = new (storage) TimerRegs;
    dirty->enable = true;
    dirty->imask = true;
    dirty->cval = 0x1234;
    timer().setVirt(0, *dirty);

    ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 32 * kMiB;
    ArmMachine other(mc);
    TimerRegs clean;
    clean.enable = true;
    clean.imask = true;
    clean.cval = 0x1234;
    other.timer().setVirt(0, clean);

    EXPECT_EQ(timerRecord(*machine), timerRecord(other));
}

} // namespace
} // namespace kvmarm::arm
