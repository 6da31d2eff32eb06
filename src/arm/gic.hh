/**
 * @file
 * ARM Generic Interrupt Controller v2 (paper §2, "Interrupt
 * Virtualization"): one distributor routing SGIs/PPIs/SPIs, plus a banked
 * per-CPU interface for ACK (IAR) and EOI. Both are memory mapped; the
 * distributor is shared, the CPU interface is banked by the accessing core.
 */

#ifndef KVMARM_ARM_GIC_HH
#define KVMARM_ARM_GIC_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mem/bus.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::arm {

class ArmMachine;

/// Interrupt ID space (GICv2).
inline constexpr IrqId kNumSgis = 16;           //!< 0-15, inter-processor
inline constexpr IrqId kFirstPpi = 16;          //!< 16-31, per-CPU private
inline constexpr IrqId kFirstSpi = 32;          //!< 32+, shared peripherals
inline constexpr IrqId kMaxIrqs = 160;
inline constexpr IrqId kSpuriousIrq = 1023;

/// Well-known PPIs on a Cortex-A15 class core.
inline constexpr IrqId kMaintenancePpi = 25; //!< VGIC maintenance interrupt
inline constexpr IrqId kVirtTimerPpi = 27;   //!< virtual generic timer
inline constexpr IrqId kHypTimerPpi = 26;    //!< hyp generic timer
inline constexpr IrqId kPhysTimerPpi = 30;   //!< non-secure phys timer

/// Distributor register offsets (subset of GICv2).
namespace gicd {
inline constexpr Addr CTLR = 0x000;
inline constexpr Addr TYPER = 0x004;
inline constexpr Addr ISENABLER = 0x100; //!< 0x100-0x17C, set-enable
inline constexpr Addr ICENABLER = 0x180; //!< clear-enable
inline constexpr Addr ISPENDR = 0x200;   //!< set-pending
inline constexpr Addr ICPENDR = 0x280;   //!< clear-pending
inline constexpr Addr IPRIORITYR = 0x400; //!< byte per IRQ
inline constexpr Addr ITARGETSR = 0x800;  //!< byte per IRQ (CPU mask)
inline constexpr Addr ICFGR = 0xC00;
inline constexpr Addr SGIR = 0xF00; //!< software generated interrupt
} // namespace gicd

/// CPU interface register offsets (shared by GICC and GICV).
namespace gicc {
inline constexpr Addr CTLR = 0x00;
inline constexpr Addr PMR = 0x04;  //!< priority mask
inline constexpr Addr BPR = 0x08;  //!< binary point
inline constexpr Addr IAR = 0x0C;  //!< acknowledge (read)
inline constexpr Addr EOIR = 0x10; //!< end of interrupt (write)
inline constexpr Addr RPR = 0x14;  //!< running priority
inline constexpr Addr HPPIR = 0x18; //!< highest priority pending
} // namespace gicc

/**
 * Call @p fn(i), in ascending order, for every i in [@p first, N) whose
 * flag is set. Eight flags are tested per load, so a scan of a mostly
 * clear pending array costs a few compares instead of one branch per
 * interrupt. @p first must be a multiple of 8.
 */
template <std::size_t N, typename Fn>
void
forEachPending(const std::array<bool, N> &flags, std::size_t first, Fn &&fn)
{
    std::size_t i = first;
    for (; i + 8 <= N; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, &flags[i], sizeof(word));
        if (!word)
            continue;
        for (std::size_t j = i; j < i + 8; ++j) {
            if (flags[j])
                fn(static_cast<IrqId>(j));
        }
    }
    for (; i < N; ++i) {
        if (flags[i])
            fn(static_cast<IrqId>(i));
    }
}

/** Highest-priority pending interrupt for one CPU. */
struct PendingIrq
{
    IrqId irq = kSpuriousIrq;
    std::uint8_t priority = 0xFF;
    CpuId source = 0; //!< originating core, for SGIs
};

/**
 * The GIC distributor: global interrupt state and routing. Device models
 * assert wires through raiseSpi/raisePpi; kernels configure it over MMIO.
 */
class GicDistributor : public MmioDevice, public Snapshottable
{
  public:
    GicDistributor(ArmMachine &machine, unsigned num_cpus);

    /// @name Wire-level interface for device models
    /// @{
    /**
     * Assert a shared peripheral interrupt. The pending state is applied
     * on the routed target CPU's event queue at cycle @p when (callers add
     * their interconnect latency), which also wakes an idle target.
     */
    void raiseSpi(IrqId irq, Cycles when);

    /** Assert a private interrupt on @p cpu (called from that CPU's own
     *  execution context, e.g. its timer). */
    void raisePpi(CpuId cpu, IrqId irq);
    /// @}

    /// @name Queries used by the CPU interfaces
    /// @{
    PendingIrq bestPending(CpuId cpu) const;
    /** Consume (ack) @p irq for @p cpu; SGIs consume one source at a
     *  time. */
    void acknowledge(CpuId cpu, IrqId irq, CpuId source);
    /// @}

    bool enabled() const { return ctlr_ & 1; }

    /// @name MmioDevice
    /// @{
    std::string name() const override { return "gicd"; }
    std::uint64_t read(CpuId cpu, Addr offset, unsigned len) override;
    void write(CpuId cpu, Addr offset, std::uint64_t value,
               unsigned len) override;
    Cycles accessLatency() const override;
    /// @}

    /// @name Snapshottable
    /// @{
    std::string snapshotKey() const override { return "gicd"; }
    void saveState(SnapshotWriter &w) override;
    void restoreState(SnapshotReader &r) override;
    /** Re-claims the in-flight delivery events on their target CPUs'
     *  restored queues. */
    void snapshotRebind() override;
    /// @}

  private:
    /**
     * A wire assertion scheduled on a target CPU's event queue but not yet
     * delivered (SPI raise or cross-CPU SGI). Tracked so snapshots can
     * describe the pending delivery and a restored distributor can rebuild
     * the exact callback for the restored event.
     */
    struct Inflight
    {
        std::uint64_t token; //!< distributor-local handle
        std::uint64_t eventId;
        CpuId target;
        bool isSgi;
        IrqId irq; //!< SPI id, or SGI id when isSgi
        CpuId src; //!< SGI source CPU
    };

    void writeSgir(CpuId src, std::uint32_t value);
    void setSgiPending(CpuId target, IrqId sgi, CpuId source);
    CpuId routeSpi(IrqId irq) const;
    void dropInflight(std::uint64_t token);
    void spiDelivered(IrqId irq, std::uint64_t token);
    void sgiDelivered(CpuId target, IrqId sgi, CpuId src,
                      std::uint64_t token);

    /** Note a state change that can alter bestPending() results: drop
     *  the memo and mark every CPU for interrupt attention. */
    void touch();

    ArmMachine &machine_;
    unsigned numCpus_;
    std::uint32_t ctlr_ = 0;

    // Shared SPI state.
    std::array<bool, kMaxIrqs> enabled_{};
    std::array<bool, kMaxIrqs> pending_{};
    std::array<std::uint8_t, kMaxIrqs> priority_{};
    std::array<std::uint8_t, kMaxIrqs> targets_{};

    // Banked SGI/PPI state.
    struct Bank
    {
        std::array<std::uint16_t, kNumSgis> sgiSources{}; //!< src bitmask
        std::array<bool, 32> ppiPending{};
        std::array<bool, 32> enabled{};
        std::array<std::uint8_t, 32> priority{};
    };
    std::vector<Bank> banks_;

    /**
     * bestPending() is a pure function of distributor state, yet it is
     * polled on the CPUs' interrupt lines every time simulated time
     * advances — far more often than the state changes. Every mutation
     * bumps version_; each CPU caches its last answer with the version it
     * was computed at, so the common poll is one integer compare instead
     * of a scan over the whole IRQ space.
     */
    std::uint64_t version_ = 1;
    struct PendingCache
    {
        std::uint64_t version = 0; //!< 0 never matches (version_ starts at 1)
        PendingIrq best;
    };
    mutable std::vector<PendingCache> pendingCache_;

    std::vector<Inflight> inflight_;
    std::uint64_t nextInflightToken_ = 1;
};

/**
 * The physical GIC CPU interface (GICC): banked per core; the host kernel
 * ACKs and EOIs hardware interrupts here.
 */
class GicCpuInterface : public MmioDevice, public Snapshottable
{
  public:
    GicCpuInterface(ArmMachine &machine, GicDistributor &dist,
                    unsigned num_cpus);

    /** True if an enabled interrupt should be signalled to @p cpu. */
    bool irqLineHigh(CpuId cpu) const;

    /// @name MmioDevice
    /// @{
    std::string name() const override { return "gicc"; }
    std::uint64_t read(CpuId cpu, Addr offset, unsigned len) override;
    void write(CpuId cpu, Addr offset, std::uint64_t value,
               unsigned len) override;
    Cycles accessLatency() const override;
    /// @}

    /// @name Snapshottable
    /// @{
    std::string snapshotKey() const override { return "gicc"; }
    void saveState(SnapshotWriter &w) override;
    void restoreState(SnapshotReader &r) override;
    /// @}

  private:
    struct Bank
    {
        bool enabled = false;
        std::uint8_t pmr = 0xFF;
        /** Acked-but-not-EOIed interrupts, innermost last. */
        std::vector<PendingIrq> activeStack;
    };

    std::uint8_t runningPriority(const Bank &b) const;
    IrqId acknowledgeIrq(CpuId cpu);
    void endOfInterrupt(CpuId cpu, std::uint32_t value);

    ArmMachine &machine_;
    GicDistributor &dist_;
    std::vector<Bank> banks_;
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_GIC_HH
