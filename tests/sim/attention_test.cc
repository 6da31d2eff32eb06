/**
 * @file
 * Attention-cycle tests for the architecture-neutral clock: CpuBase drains
 * its event queue and services interrupts only once the clock reaches the
 * attention cycle. Events must still run at the first charge that crosses
 * their time, a cancelled head must not hide the event behind it, and the
 * x86 CPU must take an APIC vector at the same cycle as when every charge
 * polled. The expected cycles were recorded from that polling
 * implementation.
 */

#include <cstdint>
#include <functional>

#include <gtest/gtest.h>

#include "arm/machine.hh"
#include "x86/machine.hh"

namespace kvmarm {
namespace {

TEST(Attention, CancelledHeadEventDoesNotHideTheNext)
{
    arm::ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 32 * kMiB;
    arm::ArmMachine machine(mc);
    arm::ArmCpu &cpu = machine.cpu(0);
    bool firstRan = false;
    Cycles secondAt = 0;
    cpu.setEntry([&] {
        cpu.compute(10);
        std::uint64_t first =
            cpu.events().schedule(1000, [&] { firstRan = true; });
        cpu.events().schedule(2000, [&] { secondAt = cpu.now(); });
        cpu.compute(13); // drains once; the attention cycle is now 1000
        EXPECT_TRUE(cpu.events().cancel(first));
        while (cpu.now() < 3000)
            cpu.compute(13);
    });
    machine.run();
    EXPECT_FALSE(firstRan);
    EXPECT_EQ(secondAt, 2012u);
}

TEST(Attention, EventScheduledAfterDrainRunsOnTime)
{
    arm::ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 32 * kMiB;
    arm::ArmMachine machine(mc);
    arm::ArmCpu &cpu = machine.cpu(0);
    Cycles lateAt = 0;
    Cycles earlyAt = 0;
    cpu.setEntry([&] {
        cpu.events().schedule(5000, [&] { lateAt = cpu.now(); });
        cpu.compute(13); // the attention cycle is now 5000
        // An earlier event must pull the attention cycle in.
        cpu.events().schedule(777, [&] { earlyAt = cpu.now(); });
        while (cpu.now() < 6000)
            cpu.compute(13);
    });
    machine.run();
    EXPECT_EQ(earlyAt, 780u);
    EXPECT_EQ(lateAt, 5005u);
}

/** x86 kernel vectors that record the first interrupt taken. */
class RecordingX86Os : public x86::X86OsVectors
{
  public:
    void
    interrupt(x86::X86Cpu &cpu, std::uint8_t vector) override
    {
        if (!taken) {
            takenAt = cpu.now();
            takenVector = vector;
        }
        taken = true;
        cpu.memWrite(x86::kApicBase + x86::apic::EOI, 0, 4);
    }
    void syscall(x86::X86Cpu &, std::uint32_t) override {}
    const char *name() const override { return "attention-x86-os"; }

    bool taken = false;
    Cycles takenAt = 0;
    std::uint8_t takenVector = 0;
};

class X86Attention : public ::testing::Test
{
  protected:
    X86Attention()
    {
        x86::X86Machine::Config mc;
        mc.numCpus = 2;
        mc.ramSize = 64 * kMiB;
        machine = std::make_unique<x86::X86Machine>(mc);
    }

    x86::X86Cpu &cpu(CpuId c) { return machine->cpu(c); }

    void
    spin(x86::X86Cpu &c, Cycles limit)
    {
        Cycles end = c.now() + limit;
        while (!os.taken && c.now() < end)
            c.compute(7);
    }

    std::unique_ptr<x86::X86Machine> machine;
    RecordingX86Os os;
};

TEST_F(X86Attention, IpiVectorWithIfSet)
{
    cpu(0).setEntry([&] {
        cpu(0).setOsVectors(&os);
        cpu(0).setIf(true);
        spin(cpu(0), 20000);
    });
    cpu(1).setEntry([&] {
        cpu(1).compute(1501);
        // Fixed-destination IPI, vector 0x41, to CPU0.
        cpu(1).memWrite(x86::kApicBase + x86::apic::ICR_HI,
                        std::uint64_t(0) << 56, 4);
        cpu(1).memWrite(x86::kApicBase + x86::apic::ICR_LO, 0x41, 4);
        cpu(1).compute(3000);
    });
    machine->run();
    ASSERT_TRUE(os.taken);
    EXPECT_EQ(os.takenVector, 0x41);
    EXPECT_EQ(os.takenAt, 3515u);
}

TEST_F(X86Attention, PendingVectorTakenWhenIfSet)
{
    cpu(0).setEntry([&] {
        cpu(0).setOsVectors(&os); // IF stays clear
        machine->apic().postVector(0, 0x42, cpu(0).now() + 100);
        spin(cpu(0), 500);
        EXPECT_FALSE(os.taken);
        cpu(0).setIf(true);
        spin(cpu(0), 1000);
    });
    machine->run();
    ASSERT_TRUE(os.taken);
    EXPECT_EQ(os.takenVector, 0x42);
    EXPECT_EQ(os.takenAt, 631u);
}

} // namespace
} // namespace kvmarm
