/**
 * @file
 * Host-target invalidation tests for the CPU's data access cache: a load
 * or store that hits is served straight from host memory (or the device),
 * so every event that can move a page's host location or its translation
 * must stop the cached target from being used. Each test checks the bytes
 * the CPU reads and PhysMem's COW fault count.
 */

#include <gtest/gtest.h>

#include <memory>

#include "arm/machine.hh"

namespace kvmarm::arm {
namespace {

constexpr Addr kRam = ArmMachine::kRamBase;

std::unique_ptr<ArmMachine>
makeMachine()
{
    ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 64 * kMiB;
    return std::make_unique<ArmMachine>(mc);
}

class AccessCacheTest : public ::testing::Test
{
  protected:
    AccessCacheTest() : machine(makeMachine()) {}

    ArmCpu &cpu() { return machine->cpu(0); }
    PhysMem &ram() { return machine->ram(); }

    Addr
    allocPage()
    {
        next -= kPageSize;
        ram().zeroPage(next);
        return next;
    }

    PageTableEditor
    editor(PtFormat fmt)
    {
        return PageTableEditor(
            fmt, [this](Addr pa) { return ram().read(pa, 8); },
            [this](Addr pa, std::uint64_t v) { ram().write(pa, v, 8); },
            [this] { return allocPage(); });
    }

    /** Stage-1 on, TTBR0 = @p root, ASID @p asid. */
    void
    enableS1(Addr root, std::uint32_t asid = 1)
    {
        cpu().regs().write64(CtrlReg::TTBR0Lo, CtrlReg::TTBR0Hi, root);
        cpu().regs()[CtrlReg::TTBCR] = 0;
        cpu().regs()[CtrlReg::CONTEXTIDR] = asid;
        cpu().regs()[CtrlReg::SCTLR] |= 1;
    }

    /** Stage-2 on with @p root under VMID @p vmid. */
    void
    enableS2(Addr root, std::uint8_t vmid)
    {
        cpu().hyp().vttbr = root | (std::uint64_t{vmid} << 48);
        cpu().hyp().hcr.vm = true;
    }

    std::unique_ptr<ArmMachine> machine;
    Addr next = kRam + 48 * kMiB;
};

TEST_F(AccessCacheTest, StoreToReadCachedImagePageTakesCowFault)
{
    ram().write(kRam + 0x1000, 0x11111111u, 4);
    auto snap = machine->takeSnapshot();
    auto twin = makeMachine();
    twin->restoreSnapshot(*snap);

    // Two loads: the second is served from the shared image page.
    EXPECT_EQ(cpu().memRead(kRam + 0x1000), 0x11111111u);
    EXPECT_EQ(cpu().memRead(kRam + 0x1000), 0x11111111u);
    EXPECT_EQ(ram().cowFaults(), 0u);

    cpu().memWrite(kRam + 0x1000, 0x22222222u);
    EXPECT_EQ(ram().cowFaults(), 1u);
    EXPECT_EQ(cpu().memRead(kRam + 0x1000), 0x22222222u);
    cpu().memWrite(kRam + 0x1004, 0x33333333u); // now private: no fault
    EXPECT_EQ(ram().cowFaults(), 1u);
    EXPECT_EQ(cpu().memRead(kRam + 0x1004), 0x33333333u);

    // The image itself was never written through a cached pointer.
    EXPECT_EQ(twin->cpu(0).memRead(kRam + 0x1000), 0x11111111u);
    EXPECT_EQ(twin->ram().read(kRam + 0x1004, 4), 0u);
    EXPECT_EQ(twin->ram().cowFaults(), 0u);
}

TEST_F(AccessCacheTest, HostWriteToReadCachedPagesIsSeen)
{
    ram().write(kRam + 0x2000, 0xAAAAu, 4);
    auto snap = machine->takeSnapshot();

    // One page read-cached from the image, one never written (zeros).
    EXPECT_EQ(cpu().memRead(kRam + 0x2000), 0xAAAAu);
    EXPECT_EQ(cpu().memRead(kRam + 0x2000), 0xAAAAu);
    EXPECT_EQ(cpu().memRead(kRam + 0x3000), 0u);
    EXPECT_EQ(cpu().memRead(kRam + 0x3000), 0u);

    // Host-side stores, as a vring completion or QEMU makes them.
    ram().write(kRam + 0x2000, 0xBBBBu, 4);
    EXPECT_EQ(ram().cowFaults(), 1u);
    ram().write(kRam + 0x3000, 0xCCCCu, 4);
    EXPECT_EQ(ram().cowFaults(), 1u); // zero page: materialized, no copy

    EXPECT_EQ(cpu().memRead(kRam + 0x2000), 0xBBBBu);
    EXPECT_EQ(cpu().memRead(kRam + 0x3000), 0xCCCCu);
    EXPECT_EQ(ram().cowFaults(), 1u);
}

TEST_F(AccessCacheTest, FlushVaDropsTarget)
{
    const Addr va = 0x00400000;
    ram().write(kRam + 0x4000, 0x4444u, 4);
    ram().write(kRam + 0x5000, 0x5555u, 4);
    auto ed = editor(PtFormat::KernelLpae);
    Addr root = ed.newRoot();
    Perms p;
    ed.map(root, va, kRam + 0x4000, p);
    enableS1(root);

    EXPECT_EQ(cpu().memRead(va), 0x4444u);
    EXPECT_EQ(cpu().memRead(va), 0x4444u);
    ed.map(root, va, kRam + 0x5000, p);
    cpu().tlbiVa(va);
    EXPECT_EQ(cpu().memRead(va), 0x5555u);
    cpu().memWrite(va + 4, 0x5656u);
    EXPECT_EQ(ram().read(kRam + 0x5004, 4), 0x5656u);
    EXPECT_EQ(ram().read(kRam + 0x4004, 4), 0u);
    EXPECT_EQ(ram().cowFaults(), 0u);
}

TEST_F(AccessCacheTest, FlushVmidDropsTarget)
{
    const Addr ipa = kRam + 0x10000;
    ram().write(kRam + 0x6000, 0x6666u, 4);
    ram().write(kRam + 0x7000, 0x7777u, 4);
    auto s2 = editor(PtFormat::Stage2);
    Addr root = s2.newRoot();
    Perms p;
    s2.map(root, ipa, kRam + 0x6000, p);
    enableS2(root, 5);

    EXPECT_EQ(cpu().memRead(ipa), 0x6666u);
    EXPECT_EQ(cpu().memRead(ipa), 0x6666u);
    s2.map(root, ipa, kRam + 0x7000, p);
    cpu().tlbiAll(); // outside Hyp: invalidates the current VMID
    EXPECT_EQ(cpu().memRead(ipa), 0x7777u);
    EXPECT_EQ(ram().cowFaults(), 0u);
}

TEST_F(AccessCacheTest, AsidAndVmidChangesSelectOtherTranslations)
{
    const Addr va = 0x00400000;
    ram().write(kRam + 0x8000, 0x8888u, 4);
    ram().write(kRam + 0x9000, 0x9999u, 4);
    ram().write(kRam + 0xA000, 0xAAAAu, 4);
    auto s1 = editor(PtFormat::KernelLpae);
    Addr root1 = s1.newRoot();
    Perms p;
    s1.map(root1, va, kRam + 0x8000, p);
    enableS1(root1, 1);

    EXPECT_EQ(cpu().memRead(va), 0x8888u);
    EXPECT_EQ(cpu().memRead(va), 0x8888u);
    // A new ASID is a new tag: no flush needed to see the new mapping.
    s1.map(root1, va, kRam + 0x9000, p);
    cpu().regs()[CtrlReg::CONTEXTIDR] = 2;
    EXPECT_EQ(cpu().memRead(va), 0x9999u);
    EXPECT_EQ(cpu().memRead(va), 0x9999u);

    // Same for a VMID: Stage-2 identity under VMID 1, then a Stage-2
    // table that sends the page elsewhere under VMID 2.
    cpu().regs()[CtrlReg::SCTLR] &= ~1u;
    auto s2 = editor(PtFormat::Stage2);
    Addr id_root = s2.newRoot();
    s2.map(id_root, kRam + 0x8000, kRam + 0x8000, p);
    Addr moved_root = s2.newRoot();
    s2.map(moved_root, kRam + 0x8000, kRam + 0xA000, p);
    enableS2(id_root, 1);
    EXPECT_EQ(cpu().memRead(kRam + 0x8000), 0x8888u);
    EXPECT_EQ(cpu().memRead(kRam + 0x8000), 0x8888u);
    enableS2(moved_root, 2);
    EXPECT_EQ(cpu().memRead(kRam + 0x8000), 0xAAAAu);
    EXPECT_EQ(ram().cowFaults(), 0u);
}

TEST_F(AccessCacheTest, DevicePageRemappedToRam)
{
    const Addr va = 0x00600000;
    ram().write(kRam + 0xB000, 0xB0B0u, 4);
    auto ed = editor(PtFormat::KernelLpae);
    Addr root = ed.newRoot();
    Perms dev;
    dev.device = true;
    ed.map(root, va, ArmMachine::kGicdBase, dev);
    enableS1(root);

    const std::uint64_t typer = cpu().memRead(va + gicd::TYPER);
    EXPECT_NE(typer, 0u);
    EXPECT_EQ(cpu().memRead(va + gicd::TYPER), typer);
    cpu().memWrite(va + gicd::CTLR, 1);
    EXPECT_EQ(cpu().memRead(va + gicd::CTLR), 1u);

    Perms normal;
    ed.map(root, va, kRam + 0xB000, normal);
    cpu().tlbiVa(va);
    EXPECT_EQ(cpu().memRead(va), 0xB0B0u);
    EXPECT_EQ(cpu().memRead(va + gicd::TYPER), 0u);
    EXPECT_EQ(ram().cowFaults(), 0u);
}

TEST_F(AccessCacheTest, RestoreIntoMachineHoldingTargets)
{
    auto origin = makeMachine();
    origin->ram().write(kRam + 0xC000, 0xC0C0u, 4);
    auto snap = origin->takeSnapshot();

    // This machine's CPU holds targets on its own private page and on a
    // zero page; the restore frees the one and replaces the other.
    cpu().memWrite(kRam + 0xC000, 0xDEADu);
    EXPECT_EQ(cpu().memRead(kRam + 0xC000), 0xDEADu);
    EXPECT_EQ(cpu().memRead(kRam + 0xD000), 0u);

    machine->restoreSnapshot(*snap);
    EXPECT_EQ(cpu().memRead(kRam + 0xC000), 0xC0C0u);
    EXPECT_EQ(cpu().memRead(kRam + 0xD000), 0u);
    EXPECT_EQ(ram().cowFaults(), 0u);
    cpu().memWrite(kRam + 0xC000, 0xC1C1u);
    EXPECT_EQ(ram().cowFaults(), 1u);
    EXPECT_EQ(cpu().memRead(kRam + 0xC000), 0xC1C1u);
    EXPECT_EQ(origin->cpu(0).memRead(kRam + 0xC000), 0xC0C0u);
}

TEST_F(AccessCacheTest, HitAndMissCountsMatchTranslateThenBus)
{
    // A fixed sequence over guest pages, a Hyp page and a flush. The
    // counts are those of the plain translate-then-bus path; the access
    // cache must not move them (arm.tlb.hit_ratio stays identical).
    auto s1 = editor(PtFormat::KernelLpae);
    Addr root = s1.newRoot();
    Perms p;
    p.user = true;
    for (Addr i = 0; i < 4; ++i)
        s1.map(root, 0x00400000 + i * kPageSize, kRam + 0x10000 + i * kPageSize,
               p);
    enableS1(root);
    auto hyp = editor(PtFormat::HypLpae);
    Addr hroot = hyp.newRoot();
    Perms hp;
    hyp.map(hroot, 0x00700000, kRam + 0x20000, hp);
    cpu().hyp().httbr = hroot;
    cpu().hyp().hsctlrM = true;

    Tlb &tlb = cpu().mmu().tlb();
    const std::uint64_t h0 = tlb.hits(), m0 = tlb.misses();
    for (unsigned round = 0; round < 3; ++round) {
        for (Addr i = 0; i < 4; ++i) {
            cpu().memWrite(0x00400000 + i * kPageSize + 8 * round, round);
            cpu().memRead(0x00400000 + i * kPageSize);
            cpu().setMode(Mode::Hyp);
            cpu().memWrite(0x00700000 + 4 * i, i);
            cpu().setMode(Mode::Svc);
        }
        if (round == 1)
            cpu().tlbiVa(0x00401000);
    }
    cpu().setMode(Mode::Usr);
    cpu().memRead(0x00402000, 8);
    cpu().memRead(0x00402FFE, 4); // crosses into the next page
    cpu().setMode(Mode::Svc);

    EXPECT_EQ(tlb.hits() - h0, 32u);
    EXPECT_EQ(tlb.misses() - m0, 6u);
    EXPECT_EQ(cpu().memRead(0x00403010), 2u);
}

} // namespace
} // namespace kvmarm::arm
