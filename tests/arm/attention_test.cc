/**
 * @file
 * Attention-cycle tests for the ARM CPU: every change to interrupt-visible
 * state must be delivered at the same simulated cycle as when every cycle
 * charge polled the interrupt controllers. The expected cycles were
 * recorded from that polling implementation. A mutator that forgets
 * CpuBase::needAttention() shows up here as a later cycle, or as no
 * delivery at all.
 */

#include <cstdint>
#include <functional>

#include <gtest/gtest.h>

#include "arm/machine.hh"

namespace kvmarm::arm {
namespace {

/** Kernel vectors whose IRQ handler is supplied by the test. */
class TestOs : public OsVectors
{
  public:
    void
    irq(ArmCpu &cpu) override
    {
        if (onIrq)
            onIrq(cpu);
    }
    void svc(ArmCpu &, std::uint32_t) override {}
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "attention-os"; }

    std::function<void(ArmCpu &)> onIrq;
};

/** Hyp vectors whose trap handler is supplied by the test. */
class TestHyp : public HypVectors
{
  public:
    void
    hypTrap(ArmCpu &cpu, const Hsr &hsr) override
    {
        if (onTrap)
            onTrap(cpu, hsr);
    }
    const char *name() const override { return "attention-hyp"; }

    std::function<void(ArmCpu &, const Hsr &)> onTrap;
};

/** Acknowledge and EOI the highest-priority physical interrupt. */
std::uint32_t
ackEoi(ArmCpu &cpu)
{
    auto iar = static_cast<std::uint32_t>(
        cpu.memRead(ArmMachine::kGiccBase + gicc::IAR, 4));
    cpu.memWrite(ArmMachine::kGiccBase + gicc::EOIR, iar, 4);
    return iar & 0x3FF;
}

class AttentionTest : public ::testing::Test
{
  protected:
    /** A 2-CPU machine with the distributor, both CPU interfaces and
     *  every interrupt enabled, configured as hardware (no cycles). */
    AttentionTest()
    {
        ArmMachine::Config mc;
        mc.numCpus = 2;
        mc.ramSize = 32 * kMiB;
        machine = std::make_unique<ArmMachine>(mc);
        GicDistributor &d = machine->gicd();
        d.write(0, gicd::CTLR, 1, 4);
        for (CpuId c = 0; c < 2; ++c) {
            machine->gicc().write(c, gicc::CTLR, 1, 4);
            machine->gicc().write(c, gicc::PMR, 0xFF, 4);
            d.write(c, gicd::ISENABLER, 0xFFFFFFFF, 4);
            machine->cpu(c).setHypVectors(&hyp);
        }
        for (unsigned w = 1; w < kMaxIrqs / 32; ++w)
            d.write(0, gicd::ISENABLER + 4 * w, 0xFFFFFFFF, 4);
    }

    ArmCpu &cpu(CpuId c = 0) { return machine->cpu(c); }

    /** Charge @p step cycles at a time until @p done or @p limit cycles
     *  have passed. */
    static void
    spinUntil(ArmCpu &c, const bool &done, Cycles limit, Cycles step = 7)
    {
        Cycles end = c.now() + limit;
        while (!done && c.now() < end)
            c.compute(step);
    }

    /** Run CPU0's @p body alone. */
    void
    runCpu0(const std::function<void()> &body)
    {
        cpu(0).setEntry(body);
        machine->run();
    }

    std::unique_ptr<ArmMachine> machine;
    TestOs os;
    TestHyp hyp;
    bool delivered = false;
    Cycles deliveredAt = 0;
};

TEST_F(AttentionTest, SpiRaisedByAnotherCpusEvent)
{
    os.onIrq = [&](ArmCpu &c) {
        deliveredAt = c.now();
        delivered = true;
        EXPECT_EQ(ackEoi(c), 40u);
    };
    cpu(0).setEntry([&] {
        cpu(0).setOsVectors(&os);
        cpu(0).setIrqMasked(false);
        spinUntil(cpu(0), delivered, 20000);
    });
    cpu(1).setEntry([&] {
        // An event on CPU1's own queue raises an SPI routed to CPU0.
        cpu(1).events().schedule(3001, [&] {
            machine->gicd().raiseSpi(40, cpu(1).now() + 50);
        });
        while (cpu(1).now() < 5000)
            cpu(1).compute(11);
    });
    machine->run();
    ASSERT_TRUE(delivered);
    EXPECT_EQ(deliveredAt, 3104u);
}

TEST_F(AttentionTest, SgiFromAnotherCpu)
{
    os.onIrq = [&](ArmCpu &c) {
        deliveredAt = c.now();
        delivered = true;
        EXPECT_EQ(ackEoi(c), 5u);
    };
    cpu(0).setEntry([&] {
        cpu(0).setOsVectors(&os);
        cpu(0).setIrqMasked(false);
        spinUntil(cpu(0), delivered, 20000);
    });
    cpu(1).setEntry([&] {
        cpu(1).compute(2003);
        cpu(1).memWrite(ArmMachine::kGicdBase + gicd::SGIR,
                        (1u << 16) | 5u, 4); // SGI 5 to CPU0
        cpu(1).compute(3000);
    });
    machine->run();
    ASSERT_TRUE(delivered);
    EXPECT_EQ(deliveredAt, 3153u);
}

TEST_F(AttentionTest, TimerPpi)
{
    os.onIrq = [&](ArmCpu &c) {
        deliveredAt = c.now();
        delivered = true;
        EXPECT_EQ(ackEoi(c), kPhysTimerPpi);
        machine->timer().setPhys(0, TimerRegs{}); // level source: disarm
    };
    runCpu0([&] {
        cpu().setOsVectors(&os);
        cpu().setIrqMasked(false);
        cpu().compute(100);
        TimerRegs t;
        t.enable = true;
        t.cval = cpu().now() + 1234;
        machine->timer().setPhys(0, t);
        spinUntil(cpu(), delivered, 20000);
    });
    ASSERT_TRUE(delivered);
    EXPECT_EQ(deliveredAt, 1384u);
}

TEST_F(AttentionTest, GiccPmrWriteUnblocksPending)
{
    os.onIrq = [&](ArmCpu &c) {
        deliveredAt = c.now();
        delivered = true;
        EXPECT_EQ(ackEoi(c), 9u);
    };
    machine->gicc().write(0, gicc::PMR, 0x80, 4); // masks priority 0xA0
    runCpu0([&] {
        cpu().setOsVectors(&os);
        cpu().setIrqMasked(false);
        cpu().memWrite(ArmMachine::kGicdBase + gicd::SGIR, (2u << 24) | 9u,
                       4); // SGI 9 to self
        spinUntil(cpu(), delivered, 1000);
        EXPECT_FALSE(delivered);
        cpu().memWrite(ArmMachine::kGiccBase + gicc::PMR, 0xFF, 4);
        spinUntil(cpu(), delivered, 1000);
    });
    ASSERT_TRUE(delivered);
    EXPECT_EQ(deliveredAt, 1251u);
}

TEST_F(AttentionTest, EoiDropsRunningPriority)
{
    // The first handler acknowledges but leaves the EOI to the main line
    // (a threaded handler); the second SGI, at the same priority, is held
    // off by the running priority until that EOI.
    std::uint32_t firstIar = kSpuriousIrq;
    unsigned taken = 0;
    os.onIrq = [&](ArmCpu &c) {
        ++taken;
        if (taken == 1) {
            firstIar = static_cast<std::uint32_t>(
                c.memRead(ArmMachine::kGiccBase + gicc::IAR, 4));
            return;
        }
        deliveredAt = c.now();
        delivered = true;
        EXPECT_EQ(ackEoi(c), 2u);
    };
    runCpu0([&] {
        cpu().setOsVectors(&os);
        cpu().setIrqMasked(false);
        cpu().memWrite(ArmMachine::kGicdBase + gicd::SGIR, (2u << 24) | 1u,
                       4);
        cpu().memWrite(ArmMachine::kGicdBase + gicd::SGIR, (2u << 24) | 2u,
                       4);
        spinUntil(cpu(), delivered, 500);
        EXPECT_EQ(taken, 1u);
        EXPECT_EQ(firstIar & 0x3FF, 1u);
        cpu().memWrite(ArmMachine::kGiccBase + gicc::EOIR, firstIar, 4);
        spinUntil(cpu(), delivered, 1000);
    });
    ASSERT_TRUE(delivered);
    EXPECT_EQ(deliveredAt, 1039u);
}

/** Program list register 0 with pending virtual interrupt @p virq. */
void
writeLr0(ArmCpu &c, IrqId virq)
{
    ListReg lr;
    lr.virq = virq;
    lr.priority = 0x0A;
    lr.state = LrState::Pending;
    c.memWrite(ArmMachine::kGichBase + gich::LR0, lr.pack(), 4);
}

class VgicAttentionTest : public AttentionTest
{
  protected:
    VgicAttentionTest()
    {
        machine->gich().write(0, gich::HCR, 1, 4);
        machine->gich().write(0, gich::VMCR, 1 | (0xFFu << 24), 4);
        // The guest ACKs and EOIs through the virtual CPU interface.
        os.onIrq = [&](ArmCpu &c) {
            deliveredAt = c.now();
            delivered = true;
            auto iar = static_cast<std::uint32_t>(
                c.memRead(ArmMachine::kGicvBase + gicc::IAR, 4));
            EXPECT_EQ(iar & 0x3FF, 27u);
            c.memWrite(ArmMachine::kGicvBase + gicc::EOIR, iar, 4);
        };
    }
};

TEST_F(VgicAttentionTest, LrWriteByWorldSwitch)
{
    hyp.onTrap = [&](ArmCpu &c, const Hsr &hsr) {
        ASSERT_EQ(hsr.ec, ExcClass::Hvc);
        writeLr0(c, 27);
        c.compute(300); // rest of the entry path, still in Hyp mode
        c.setHypReturn(Mode::Svc, false);
    };
    runCpu0([&] {
        cpu().setOsVectors(&os);
        cpu().compute(50);
        cpu().hvc(0);
        spinUntil(cpu(), delivered, 1000);
    });
    ASSERT_TRUE(delivered);
    EXPECT_EQ(deliveredAt, 502u);
}

TEST_F(VgicAttentionTest, LrWriteUnderRunningGuest)
{
    runCpu0([&] {
        cpu().setOsVectors(&os);
        cpu().setIrqMasked(false);
        spinUntil(cpu(), delivered, 500);
        EXPECT_FALSE(delivered);
        writeLr0(cpu(), 27);
        spinUntil(cpu(), delivered, 1000);
    });
    ASSERT_TRUE(delivered);
    EXPECT_EQ(deliveredAt, 622u);
}

TEST_F(AttentionTest, HcrViSetThroughHypSys)
{
    os.onIrq = [&](ArmCpu &c) {
        deliveredAt = c.now();
        delivered = true;
        c.hyp().hcr.vi = false; // the emulated line drops once taken
    };
    hyp.onTrap = [&](ArmCpu &c, const Hsr &) {
        c.hypSys("hcr").hcr.vi = true;
        c.compute(200);
        c.setHypReturn(Mode::Svc, false);
    };
    runCpu0([&] {
        cpu().setOsVectors(&os);
        cpu().compute(50);
        cpu().hvc(0);
        spinUntil(cpu(), delivered, 1000);
    });
    ASSERT_TRUE(delivered);
    EXPECT_EQ(deliveredAt, 329u);
}

TEST_F(AttentionTest, HcrViSetUnderRunningGuest)
{
    os.onIrq = [&](ArmCpu &c) {
        deliveredAt = c.now();
        delivered = true;
        c.hyp().hcr.vi = false;
    };
    runCpu0([&] {
        cpu().setOsVectors(&os);
        cpu().setIrqMasked(false);
        spinUntil(cpu(), delivered, 500);
        EXPECT_FALSE(delivered);
        cpu().hyp().hcr.vi = true;
        spinUntil(cpu(), delivered, 1000);
    });
    ASSERT_TRUE(delivered);
    EXPECT_EQ(deliveredAt, 556u);
}

TEST_F(AttentionTest, HcrImoRoutesMaskedIrqToHyp)
{
    hyp.onTrap = [&](ArmCpu &c, const Hsr &hsr) {
        ASSERT_EQ(hsr.ec, ExcClass::Irq);
        deliveredAt = c.now();
        delivered = true;
        EXPECT_EQ(ackEoi(c), 9u);
    };
    runCpu0([&] {
        cpu().setOsVectors(&os); // CPSR.I stays set
        cpu().memWrite(ArmMachine::kGicdBase + gicd::SGIR, (2u << 24) | 9u,
                       4);
        spinUntil(cpu(), delivered, 500);
        EXPECT_FALSE(delivered);
        cpu().hyp().hcr.imo = true;
        spinUntil(cpu(), delivered, 1000);
    });
    ASSERT_TRUE(delivered);
    EXPECT_EQ(deliveredAt, 589u);
}

TEST_F(AttentionTest, CpsrUnmask)
{
    os.onIrq = [&](ArmCpu &c) {
        deliveredAt = c.now();
        delivered = true;
        EXPECT_EQ(ackEoi(c), 9u);
    };
    runCpu0([&] {
        cpu().setOsVectors(&os);
        cpu().memWrite(ArmMachine::kGicdBase + gicd::SGIR, (2u << 24) | 9u,
                       4);
        spinUntil(cpu(), delivered, 500);
        EXPECT_FALSE(delivered);
        cpu().setIrqMasked(false);
        spinUntil(cpu(), delivered, 1000);
    });
    ASSERT_TRUE(delivered);
    EXPECT_EQ(deliveredAt, 621u);
}

TEST_F(AttentionTest, ModeChangeOutOfHyp)
{
    os.onIrq = [&](ArmCpu &c) {
        deliveredAt = c.now();
        delivered = true;
        EXPECT_EQ(ackEoi(c), 9u);
    };
    runCpu0([&] {
        cpu().setOsVectors(&os);
        cpu().setMode(Mode::Hyp); // interrupts are never taken in Hyp
        cpu().setIrqMasked(false);
        cpu().memWrite(ArmMachine::kGicdBase + gicd::SGIR, (2u << 24) | 9u,
                       4);
        spinUntil(cpu(), delivered, 500);
        EXPECT_FALSE(delivered);
        cpu().setMode(Mode::Svc);
        spinUntil(cpu(), delivered, 1000);
    });
    ASSERT_TRUE(delivered);
    EXPECT_EQ(deliveredAt, 621u);
}

TEST_F(AttentionTest, SpiRaisedWhileInHypTakenAfterReturn)
{
    // CPU1 raises an SPI while CPU0 sits in a Hyp trap handler. Nothing
    // is deliverable in Hyp mode; the interrupt is taken once the ERET
    // drops CPU0 back to Svc.
    bool inHyp = false;
    Cycles hypLeftAt = 0;
    os.onIrq = [&](ArmCpu &c) {
        deliveredAt = c.now();
        delivered = true;
        EXPECT_FALSE(inHyp);
        EXPECT_EQ(ackEoi(c), 40u);
    };
    hyp.onTrap = [&](ArmCpu &c, const Hsr &hsr) {
        ASSERT_EQ(hsr.ec, ExcClass::Hvc);
        inHyp = true;
        while (c.now() < 900)
            c.compute(13);
        EXPECT_FALSE(delivered);
        inHyp = false;
        hypLeftAt = c.now();
        c.setHypReturn(Mode::Svc, false);
    };
    cpu(0).setEntry([&] {
        cpu(0).setOsVectors(&os);
        cpu(0).setIrqMasked(false);
        cpu(0).compute(50);
        cpu(0).hvc(0);
        spinUntil(cpu(0), delivered, 1000);
    });
    cpu(1).setEntry([&] {
        cpu(1).events().schedule(301, [&] {
            machine->gicd().raiseSpi(40, cpu(1).now() + 50);
        });
        while (cpu(1).now() < 2000)
            cpu(1).compute(11);
    });
    machine->run();
    ASSERT_TRUE(delivered);
    EXPECT_GT(deliveredAt, hypLeftAt);
    EXPECT_EQ(deliveredAt, 974u);
}

} // namespace
} // namespace kvmarm::arm
