/**
 * @file
 * Unit tests for the Stage-2 table manager (get_user_pages integration,
 * device mappings, refcounted teardown) and the Hyp memory manager
 * (Hyp-format tables, same-VA mapping, walkability from the Hyp regime).
 */

#include <gtest/gtest.h>

#include "arm/machine.hh"
#include "core/hyp_mem.hh"
#include "core/stage2_mmu.hh"
#include "host/mm.hh"

namespace kvmarm {
namespace {

using arm::ArmMachine;

class Stage2Test : public ::testing::Test
{
  protected:
    Stage2Test()
        : machine(ArmMachine::Config{.numCpus = 1,
                                     .ramSize = 64 * kMiB,
                                     .hwVgic = true,
                                     .hwVtimers = true,
                                     .clockHz = 1.7e9,
                                     .cost = {}}),
          mm(machine.ram(), machine.checkEngine())
    {
    }

    ArmMachine machine;
    host::Mm mm;
};

TEST_F(Stage2Test, RamFaultAllocatesAndMaps)
{
    core::Stage2Mmu s2(mm, 5, ArmMachine::kRamBase, 16 * kMiB);
    Addr ipa = ArmMachine::kRamBase + 0x3000;
    EXPECT_FALSE(s2.ipaToPa(ipa).has_value());
    EXPECT_TRUE(s2.handleRamFault(ipa));
    auto pa = s2.ipaToPa(ipa + 0x24);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa & 0xFFF, 0x24u);
    EXPECT_EQ(mm.refcount(*pa), 1u);
    EXPECT_EQ(s2.mappedRamPages(), 1u);
    // Idempotent on a racing second fault.
    EXPECT_TRUE(s2.handleRamFault(ipa));
    EXPECT_EQ(s2.mappedRamPages(), 1u);
}

TEST_F(Stage2Test, NonRamIpaIsMmio)
{
    core::Stage2Mmu s2(mm, 5, ArmMachine::kRamBase, 16 * kMiB);
    EXPECT_FALSE(s2.handleRamFault(ArmMachine::kGicdBase));
    EXPECT_FALSE(
        s2.handleRamFault(ArmMachine::kRamBase + 16 * kMiB)); // past end
    EXPECT_TRUE(s2.isGuestRam(ArmMachine::kRamBase));
    EXPECT_FALSE(s2.isGuestRam(ArmMachine::kRamBase + 16 * kMiB));
}

TEST_F(Stage2Test, VttbrEncodesVmid)
{
    core::Stage2Mmu s2(mm, 7, ArmMachine::kRamBase, kMiB);
    EXPECT_EQ((s2.vttbr() >> 48) & 0xFF, 7u);
    EXPECT_NE(s2.vttbr() & arm::desc::kAddrMask, 0u);
}

TEST_F(Stage2Test, UnmapReleasesBacking)
{
    core::Stage2Mmu s2(mm, 5, ArmMachine::kRamBase, kMiB);
    Addr ipa = ArmMachine::kRamBase;
    s2.handleRamFault(ipa);
    Addr pa = pageAlignDown(*s2.ipaToPa(ipa));
    EXPECT_TRUE(s2.unmapPage(ipa));
    EXPECT_EQ(mm.refcount(pa), 0u);
    EXPECT_FALSE(s2.ipaToPa(ipa).has_value());
    EXPECT_FALSE(s2.unmapPage(ipa));
}

TEST_F(Stage2Test, ReleaseAllReturnsTables)
{
    std::size_t free_before = mm.freePages();
    {
        core::Stage2Mmu s2(mm, 5, ArmMachine::kRamBase, kMiB);
        for (Addr off = 0; off < 16 * kPageSize; off += kPageSize)
            s2.handleRamFault(ArmMachine::kRamBase + off);
        EXPECT_LT(mm.freePages(), free_before - 16); // + table pages
    }
    EXPECT_EQ(mm.freePages(), free_before);
}

TEST_F(Stage2Test, HypMemMapsAtSameAddresses)
{
    core::HypMem hyp(machine, mm);
    hyp.build();
    hyp.build(); // idempotent
    arm::ArmCpu &cpu = machine.cpu(0);
    // Per-CPU Hyp enablement touches HTTBR/HSCTLR, so it runs in Hyp mode
    // (the real path gets there via the kInitCpu hypercall).
    cpu.setMode(arm::Mode::Hyp);
    hyp.enableOnCpu(cpu);
    cpu.setMode(arm::Mode::Svc);
    EXPECT_TRUE(cpu.hyp().hsctlrM);

    // Hyp VAs == kernel VAs for shared data (paper §3.1): a RAM address
    // translates to itself in the Hyp regime.
    machine.cpu(0).setEntry([&] {
        auto r = cpu.mmu().translate(ArmMachine::kRamBase + 0x123,
                                     arm::Access::Read, arm::Mode::Hyp);
        ASSERT_TRUE(r.ok);
        EXPECT_EQ(r.pa, ArmMachine::kRamBase + 0x123);
        // And the GICH interface the world switch programs is reachable.
        auto g = cpu.mmu().translate(ArmMachine::kGichBase,
                                     arm::Access::Write, arm::Mode::Hyp);
        ASSERT_TRUE(g.ok);
        EXPECT_TRUE(g.device);
    });
    machine.run();
}

} // namespace
} // namespace kvmarm
