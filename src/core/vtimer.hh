/**
 * @file
 * Virtual timer support (paper §3.6): guests program the hardware virtual
 * timer directly; on world switch out an unexpired timer is re-armed as a
 * host software timer whose callback injects the virtual timer interrupt
 * through the virtual distributor. When KVM runs without hardware virtual
 * timers, all guest timer/counter accesses are emulated in user space.
 */

#ifndef KVMARM_CORE_VTIMER_HH
#define KVMARM_CORE_VTIMER_HH

#include <cstdint>
#include <functional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "arm/hsr.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::arm {
class ArmCpu;
} // namespace kvmarm::arm

namespace kvmarm::core {

class Kvm;
class VCpu;

/** KVM/ARM's virtual timer logic. */
class VTimerEmul : public Snapshottable
{
  public:
    explicit VTimerEmul(Kvm &kvm);

    /** World switch out: stash the guest timer, disable the hardware
     *  instance, and arm a host software timer if the guest timer was
     *  unexpired (the multiplexing of §3.6). Runs in Hyp mode. */
    void onWorldSwitchOut(arm::ArmCpu &cpu, VCpu &vcpu);

    /** World switch in: cancel the software timer, program CNTVOFF and
     *  restore the guest timer onto the hardware. Runs in Hyp mode. */
    void onWorldSwitchIn(arm::ArmCpu &cpu, VCpu &vcpu);

    /** Host IRQ handler body for the virtual timer PPI: the guest's
     *  hardware virtual timer fired (as a *hardware* interrupt) while the
     *  VM was running; inject the corresponding virtual interrupt. */
    void onHostVtimerIrq(arm::ArmCpu &cpu, VCpu &vcpu);

    /** Emulate a trapped timer/counter access (no-vtimers configuration);
     *  runs the emulation in user space. Counter accesses are reads;
     *  VirtTimer is always a write of @p ctl and @p cval. */
    void emulateTrappedAccess(arm::ArmCpu &cpu, VCpu &vcpu,
                              arm::TimerAccess which, std::uint32_t ctl,
                              std::uint64_t cval);

    /// @name Snapshottable (Kvm registers this)
    ///
    /// Armed soft timers are serialized as (vmid, vcpu index, timer id)
    /// tuples — never by pointer — and resolved back to VCpu objects via
    /// the Kvm VM registry during rebind, where each timer's injection
    /// callback is re-attached through SoftTimers::rehydrate().
    /// @{
    std::string snapshotKey() const override { return "vtimer"; }
    void saveState(SnapshotWriter &w) override;
    void restoreState(SnapshotReader &r) override;
    void snapshotRebind() override;
    /// @}

  private:
    void cancelSoftTimer(VCpu &vcpu);

    /** The §3.6 injection a parked soft timer performs when it fires. */
    std::function<void()> injectCallback(VCpu &vcpu);

    Kvm &kvm_;
    /** vcpu -> active host soft-timer id. */
    // domlint: allow(pointer-order) — lookup-only table (find/erase/insert by key); the one iteration, in saveState, sorts by (vmid, vcpu) before any order-dependent use
    std::unordered_map<const VCpu *, std::uint64_t> softTimers_;

    /** Restore-time scratch consumed by snapshotRebind(). */
    std::vector<std::tuple<std::uint16_t, std::uint32_t, std::uint64_t>>
        rebindTimers_;
};

} // namespace kvmarm::core

#endif // KVMARM_CORE_VTIMER_HH
