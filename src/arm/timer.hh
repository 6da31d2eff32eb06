/**
 * @file
 * ARM Generic Timer architecture (paper §2, "Timer Virtualization"): a
 * physical counter, and per CPU a physical and a virtual timer. The virtual
 * counter reads CNTPCT - CNTVOFF; kernel-mode access to the *physical*
 * timer is gated by Hyp mode (CNTHCTL), while the virtual timer is always
 * accessible — the property KVM/ARM exploits to let guests program timers
 * without trapping.
 *
 * Timer registers are CP15 system registers, not MMIO; permission checks
 * and trap routing live in ArmCpu, this class keeps the state and fires
 * the PPIs.
 */

#ifndef KVMARM_ARM_TIMER_HH
#define KVMARM_ARM_TIMER_HH

#include <cstdint>
#include <vector>

#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::arm {

class ArmMachine;

/** Control/compare state of one timer (CNTx_CTL + CNTx_CVAL). */
struct TimerRegs
{
    bool enable = false;
    bool imask = false; //!< interrupt masked
    /** Spelled out so every byte is defined: snapshots serialize the
     *  registers verbatim. */
    std::uint8_t reserved[6] = {};
    std::uint64_t cval = 0;

    bool operator==(const TimerRegs &) const = default;
};

/** All generic-timer state of a machine. */
class GenericTimer : public Snapshottable
{
  public:
    GenericTimer(ArmMachine &machine, unsigned num_cpus);

    /** CNTPCT: the physical counter; ticks with the CPU clock. */
    std::uint64_t physCount(CpuId cpu) const;

    /** CNTVCT = CNTPCT - CNTVOFF. */
    std::uint64_t virtCount(CpuId cpu) const;

    const TimerRegs &phys(CpuId cpu) const { return banks_.at(cpu).phys; }
    const TimerRegs &virt(CpuId cpu) const { return banks_.at(cpu).virt; }

    void setPhys(CpuId cpu, const TimerRegs &regs);
    void setVirt(CpuId cpu, const TimerRegs &regs);

    /** Timer condition met (ISTATUS): counter reached the compare value. */
    bool physIstatus(CpuId cpu) const;
    bool virtIstatus(CpuId cpu) const;

    /** Re-arm firing events; ArmCpu calls this when CNTVOFF changes. */
    void reprogram(CpuId cpu);

    /// @name Snapshottable
    /// @{
    std::string snapshotKey() const override { return "timer"; }
    void saveState(SnapshotWriter &w) override;
    void restoreState(SnapshotReader &r) override;
    /** Claim the armed compare-fire events on the restored CPU queues. */
    void snapshotRebind() override;
    /// @}

  private:
    struct Bank
    {
        TimerRegs phys;
        TimerRegs virt;
        std::uint64_t physEvent = 0; //!< pending event id, 0 if none
        std::uint64_t virtEvent = 0;
    };

    void armOne(CpuId cpu, bool virt_timer);
    void fire(CpuId cpu, bool virt_timer);

    ArmMachine &machine_;
    std::vector<Bank> banks_;
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_TIMER_HH
