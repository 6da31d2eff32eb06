/**
 * @file
 * Architecture-neutral simulated CPU core: a cycle clock, an event queue,
 * and run control (fiber entry, idle waiting, cross-CPU kicks).
 */

#ifndef KVMARM_SIM_CPU_BASE_HH
#define KVMARM_SIM_CPU_BASE_HH

#include <functional>
#include <memory>
#include <string>

#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace kvmarm {

class MachineBase;

/**
 * Base class for ArmCpu and X86Cpu. Owns the per-CPU clock and event queue
 * and cooperates with MachineBase's min-clock scheduler.
 *
 * Every CPU is Snapshottable: the base class serializes the clock, idle
 * accounting, event queue, and stats; architectures override
 * saveState/restoreState (calling the base first) to add their register
 * state. CPUs self-register on the machine at construction, so derived
 * machines get snapshot coverage of the sim-level CPU state for free.
 */
class CpuBase : public Snapshottable
{
  public:
    CpuBase(CpuId id, MachineBase &machine);
    virtual ~CpuBase();

    CpuBase(const CpuBase &) = delete;
    CpuBase &operator=(const CpuBase &) = delete;

    CpuId id() const { return id_; }
    MachineBase &machine() { return machine_; }

    /** Current cycle clock of this CPU. */
    Cycles now() const { return now_; }

    /**
     * Advance the clock by @p c cycles, servicing any events that come due
     * and yielding to the machine scheduler if another CPU has fallen
     * behind. This is the single place simulated time advances while a CPU
     * is executing.
     *
     * Until the clock reaches the attention cycle this is an add and one
     * compare: no event is due, no yield is due, and the interrupt state
     * is unchanged since drain() last found nothing to deliver. See
     * needAttention() for what lowers it.
     */
    void
    addCycles(Cycles c)
    {
        now_ += c;
        if (now_ < attention_)
            return;
        attend();
    }

    /**
     * Make the next addCycles() drain: something changed that can alter
     * what serviceInterrupts() would deliver (interrupt controller state,
     * CPU mode or mask, the vectors interrupts go to). Every mutator of
     * interrupt-visible state calls this; DESIGN.md lists the call sites.
     */
    void needAttention() { attention_ = 0; }

    EventQueue &events() { return events_; }

    /** Per-CPU statistics. */
    StatGroup &stats() { return stats_; }

    /** Cycles this CPU spent idle (blocked with the clock fast-forwarded);
     *  feeds the utilization-based energy model. */
    Cycles idleCycles() const { return idleCycles_; }

    /**
     * Block until @p pred becomes true. The machine scheduler fast-forwards
     * this CPU's clock to its next event while blocked. Used for WFI/HLT
     * and for host-thread blocking.
     */
    void waitUntil(const std::function<bool()> &pred);

    /**
     * Wake a CPU that may be blocked in waitUntil by scheduling a no-op
     * event on it at max(target.now, when). Models the delivery latency of
     * whatever signal (IPI, device interrupt) does the waking.
     */
    void kickAt(Cycles when);

    /** True if an enabled interrupt is pending for the current context.
     *  Architectures implement this against their interrupt controller. */
    virtual bool interruptPending() const = 0;

    /**
     * Deliver any pending interrupts for the current execution context.
     * Called between operations and after time advances. Architectures
     * route to guest vectors, host vectors, or hypervisor traps.
     */
    virtual void serviceInterrupts() = 0;

    /// @name Scheduler interface (MachineBase only)
    /// @{
    void setEntry(std::function<void()> fn);
    bool hasEntry() const { return entry_ != nullptr; }
    bool fiberFinished() const;
    bool waiting() const { return waiting_; }
    void resumeFiber();
    void
    setYieldThreshold(Cycles t)
    {
        yieldThreshold_ = t;
        needAttention();
    }
    /** Pull the yield point earlier (a cross-CPU wake appeared). */
    void
    lowerYieldThreshold(Cycles t)
    {
        if (t < yieldThreshold_)
            yieldThreshold_ = t;
        if (t < attention_)
            attention_ = t;
    }
    /** Clock the scheduler should use to order this CPU. */
    Cycles effectiveClock() const;
    /// @}

    /// @name Snapshottable
    /// @{
    std::string snapshotKey() const override;
    void saveState(SnapshotWriter &w) override;
    void restoreState(SnapshotReader &r) override;
    /** Restored events must all have been claimed by their owners. */
    void snapshotVerify() override;
    /// @}

  protected:
    /** Run events due at the current clock, then deliver interrupts, then
     *  set the attention cycle to the next event or yield point. */
    void drain();

    CpuId id_;
    MachineBase &machine_;
    Cycles now_ = 0;
    EventQueue events_;
    StatGroup stats_;

  private:
    /** addCycles() slow path: drain, then yield if past the threshold. */
    void attend();

    /** addCycles() drains once the clock reaches this cycle: the earlier
     *  of the next event and the yield threshold, or 0 after
     *  needAttention(). */
    Cycles attention_ = 0;
    std::function<void()> entry_;
    std::unique_ptr<Fiber> fiber_;
    bool waiting_ = false;
    Cycles yieldThreshold_ = kNoDeadline;
    Cycles idleCycles_ = 0;
};

} // namespace kvmarm

#endif // KVMARM_SIM_CPU_BASE_HH
