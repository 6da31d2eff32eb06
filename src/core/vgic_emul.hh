/**
 * @file
 * The virtual distributor (paper §3.5): a software model of the GIC
 * distributor living in the highvisor. Guest distributor accesses trap
 * here; it keeps per-interrupt software state and, whenever a VM is
 * scheduled, programs the hardware list registers to inject pending
 * virtual interrupts.
 */

#ifndef KVMARM_CORE_VGIC_EMUL_HH
#define KVMARM_CORE_VGIC_EMUL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arm/gic.hh"
#include "arm/vgic.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::arm {
class ArmCpu;
} // namespace kvmarm::arm

namespace kvmarm::core {

class Vm;
class VCpu;

/** Software GIC distributor state for one VM. */
class VgicDistEmul : public Snapshottable
{
  public:
    explicit VgicDistEmul(Vm &vm);

    /// @name Guest MMIO emulation (in-kernel, reached via Stage-2 traps)
    /// @{
    std::uint64_t handleMmio(arm::ArmCpu &cpu, VCpu &vcpu, Addr offset,
                             bool is_write, std::uint64_t value,
                             unsigned len);
    /// @}

    /// @name Injection
    /// @{
    /** Inject a shared interrupt (KVM_IRQ_LINE path from user space). */
    void injectSpi(arm::ArmCpu &current_cpu, IrqId irq);

    /** Inject a private interrupt to a specific VCPU (virtual timer). */
    void injectPpi(arm::ArmCpu &current_cpu, VCpu &target, IrqId ppi);
    /// @}

    /// @name World-switch integration
    /// @{
    /** Move software-pending interrupts into the VCPU's shadow list
     *  registers (runs when the VCPU is scheduled in). */
    void flushToShadow(VCpu &vcpu);

    /** Digest the shadow list registers after a world switch out: EOIed
     *  slots free their interrupt, still-pending ones return to software
     *  state. */
    void syncFromShadow(VCpu &vcpu);

    /** True if @p vcpu has deliverable interrupts (wake condition for
     *  WFI-blocked VCPUs). */
    bool hasPendingFor(const VCpu &vcpu) const;
    /// @}

    /// @name Software CPU-interface emulation (no-VGIC configuration)
    /// @{
    /** Emulated IAR read: acknowledge the best pending interrupt. */
    std::uint32_t softAck(VCpu &vcpu);

    /** Emulated EOIR write. */
    void softEoi(VCpu &vcpu, std::uint32_t value);
    /// @}

    /** Cycles charged per emulated distributor access for the software
     *  locking the emulation needs (paper §6). */
    Cycles lockCost() const;

    /// @name Snapshottable (Vm registers this)
    /// @{
    std::string snapshotKey() const override;
    void saveState(SnapshotWriter &w) override;
    void restoreState(SnapshotReader &r) override;
    /// @}

  private:
    void writeSgir(arm::ArmCpu &cpu, VCpu &sender, std::uint32_t value);
    void setSgiPending(unsigned target_idx, IrqId sgi, unsigned source_idx);
    void kickVcpu(arm::ArmCpu &current_cpu, VCpu &target);
    unsigned routeSpi(IrqId irq) const;

    Vm &vm_;
    bool ctlrEnabled_ = false;

    // Shared SPI state.
    std::array<bool, arm::kMaxIrqs> spiEnabled_{};
    std::array<bool, arm::kMaxIrqs> spiPending_{};
    std::array<std::uint8_t, arm::kMaxIrqs> spiPriority_{};
    std::array<std::uint8_t, arm::kMaxIrqs> spiTargets_{};

    // Banked SGI/PPI state, one bank per VCPU.
    struct Bank
    {
        Bank() { priority.fill(0xA0); }
        std::array<std::uint16_t, arm::kNumSgis> sgiSources{};
        std::array<bool, 32> ppiPending{};
        std::array<bool, 32> enabled{};
        std::array<std::uint8_t, 32> priority{};
        /** Acked-but-not-EOIed interrupts of the software CPU-interface
         *  emulation (no-VGIC mode). */
        std::vector<IrqId> softActive;
    };
    std::vector<Bank> banks_;

    Bank &bankFor(const VCpu &vcpu);
    const Bank &bankFor(const VCpu &vcpu) const;

    /** One deliverable interrupt candidate. */
    struct Cand
    {
        IrqId irq = arm::kSpuriousIrq;
        std::uint8_t prio = 0xFF;
        unsigned source = 0;
    };

    /** Best deliverable interrupt for @p vcpu, spurious if none. */
    Cand bestCandidate(const VCpu &vcpu) const;

    /** Note a state change that can alter bestCandidate() results. */
    void touch() { ++version_; }

    /**
     * bestCandidate() is a pure function of the software distributor
     * state, but flushToShadow() asks it once per list register and the
     * WFI wake predicate polls it on every check. Every mutator calls
     * touch(); each VCPU caches its last answer with the version it was
     * computed at, as GicDistributor does for bestPending().
     */
    std::uint64_t version_ = 1;
    struct CandCache
    {
        std::uint64_t version = 0; //!< 0 never matches (version_ starts at 1)
        Cand best;
    };
    mutable std::vector<CandCache> candCache_;

    /** Remove @p c from the software pending state. */
    void consume(VCpu &vcpu, const Cand &c);

    /** Recompute the software-injection pending flag (no-VGIC mode). */
    void updateSoftPending(VCpu &vcpu);
};

} // namespace kvmarm::core

#endif // KVMARM_CORE_VGIC_EMUL_HH
