/**
 * @file
 * Machine-level deterministic fiber scheduler.
 *
 * Runs the unfinished CPU with the smallest effective clock; a blocked CPU's
 * effective clock is its next event time, so idle CPUs fast-forward. The
 * interleaving quantum bounds how far one CPU may run ahead of another,
 * giving deterministic, approximately lock-step SMP execution.
 */

#ifndef KVMARM_SIM_MACHINE_BASE_HH
#define KVMARM_SIM_MACHINE_BASE_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::check {
class InvariantEngine;
} // namespace kvmarm::check

namespace kvmarm {

class CpuBase;

/** Base class for ArmMachine and X86Machine. */
class MachineBase
{
  public:
    MachineBase();
    virtual ~MachineBase();

    /**
     * Run every CPU that has an entry function until all of them finish or
     * stop is requested. Throws via panic() on cross-CPU deadlock (all
     * blocked with no pending events).
     */
    void run() { run(kNoDeadline); }

    /**
     * Run until every unfinished CPU's effective clock reaches @p haltAt
     * (or all finish / stop is requested), then return with the machine
     * quiesced. The horizon caps yield thresholds, so a CPU overshoots
     * the boundary by at most one instruction's cycle cost — the same
     * deterministic overshoot regardless of how many run() calls the
     * execution is sliced into. A machine blocked with no pending events
     * under a finite horizon simply returns (the caller decides whether
     * that is idleness or deadlock); the deadlock panic fires only for
     * the unbounded form.
     */
    void run(Cycles haltAt);

    /** True when every CPU that has an entry has finished its fiber. */
    bool finished() const;

    /**
     * Earliest cycle at which an unfinished CPU can make progress (its
     * effective clock), or kNoDeadline when all unfinished CPUs are
     * blocked with no pending events.
     */
    Cycles nextActivity() const;

    /** Ask run() to return at the next scheduling point. Suspended fibers
     *  are abandoned (their stacks are reclaimed with the machine). */
    void requestStop() { stopRequested_ = true; }

    bool stopRequested() const { return stopRequested_; }

    /** How far (cycles) one CPU may run ahead of the laggard before
     *  yielding. */
    Cycles quantum() const { return quantum_; }
    void setQuantum(Cycles q) { quantum_ = q; }

    std::size_t numCpus() const { return cpusBase_.size(); }
    CpuBase &cpuBase(CpuId id) { return *cpusBase_.at(id); }

    /** CpuBase::needAttention() on every CPU: machine-wide interrupt
     *  state (a distributor, a banked CPU interface) changed. */
    void needAttentionAll();

    /**
     * A new event landed on @p target's queue. If another CPU is
     * currently executing with a stale yield threshold beyond @p when,
     * pull it in so the wake is serviced promptly (otherwise a CPU
     * spin-waiting on the target could run far past the wake time).
     */
    void noteEventScheduled(CpuBase &target, Cycles when);

    /**
     * This machine's private invariant engine, or null when the check
     * layer is not linked in (or compiled out with KVMARM_INVARIANTS=OFF).
     * A machine is single-threaded by construction, so everything that
     * runs in machine context may feed this engine without locks via
     * KVMARM_CHECK_ON(). Owned by the machine; dies with it.
     *
     * The sim layer cannot link against the check layer (the dependency
     * points the other way), so creation and destruction go through a
     * factory the check layer registers at static initialization.
     */
    check::InvariantEngine *checkEngine() const { return checkEngine_.get(); }

    using CheckEngineCreate = check::InvariantEngine *(*)();
    using CheckEngineDestroy = void (*)(check::InvariantEngine *);
    using CheckEnginePublish = void (*)(check::InvariantEngine *);

    /** Called once by the check layer's static initializer; machines
     *  constructed while no factory is registered get a null engine.
     *  @p publish is the epoch hook: it snapshots an engine's live
     *  violation counter into its published counter (DESIGN.md §4.11). */
    static void registerCheckEngineFactory(CheckEngineCreate create,
                                           CheckEngineDestroy destroy,
                                           CheckEnginePublish publish);

    /**
     * Publish this machine's invariant-violation counter at a quiesce
     * boundary. Runs on the machine's own execution thread with the
     * machine quiesced, so the engine's lock-free publish is race-free;
     * the check facade's beginEpoch()/aggregateEpoch() then aggregate the
     * published values across the fleet without stopping any machine.
     * Called automatically at every run() exit and after a snapshot
     * restore (via KVMARM_CHECK_PUBLISH); no-op when no check layer is
     * linked. Job bodies that quiesce a machine by other means may call
     * it directly.
     */
    void publishCheckEpoch();

    /// @name Snapshot/clone support
    ///
    /// Components register in construction order; because machine
    /// construction is deterministic, the origin machine and a freshly
    /// constructed clone register identical sequences, which is what lets
    /// restoreSnapshot pair records with components positionally.
    /// @{

    /** Register a component for snapshot participation (construction). */
    void registerSnapshottable(Snapshottable *s);

    /** Remove a component (destruction; order need not match). */
    void unregisterSnapshottable(Snapshottable *s);

    /**
     * Capture the full machine state. The machine must be quiesced (not
     * inside run(); all fibers finished). The returned snapshot is
     * immutable and safe to share across host threads — any number of
     * machines on any workers may restore from it concurrently.
     */
    std::shared_ptr<const MachineSnapshot> takeSnapshot();

    /**
     * Restore @p snap into this machine. The machine must have the same
     * component shape as the snapshot origin (same config => same
     * registration sequence) and must be quiesced. Three passes:
     * restoreState on every component in registration order, then
     * snapshotRebind (callback/pointer fix-ups), then snapshotVerify.
     */
    void restoreSnapshot(const MachineSnapshot &snap);

    /**
     * Block takeSnapshot() while some component holds externally visible
     * state a positional record set cannot capture (e.g. a live inter-VM
     * ring endpoint with in-flight messages). takeSnapshot() fatals with
     * every registered reason rather than silently dropping that state.
     * Returns a token for removeSnapshotBlocker().
     */
    std::uint64_t addSnapshotBlocker(std::string reason);
    void removeSnapshotBlocker(std::uint64_t token);
    /// @}

  protected:
    /** Derived machines register their CPUs in id order. */
    void registerCpu(CpuBase *cpu) { cpusBase_.push_back(cpu); }

    std::vector<CpuBase *> cpusBase_;
    Cycles quantum_ = 500;
    bool stopRequested_ = false;
    CpuBase *running_ = nullptr;

  private:
    /** Run loop specialization for machines with one CPU: no second-best
     *  clock exists, so skip the scheduler scan and resume the lone fiber
     *  with the horizon as its yield threshold. */
    void runSingle(Cycles haltAt);

    /** The general scheduler scan for multi-CPU machines. Both loops exit
     *  back through run(), which publishes the check epoch. */
    void runMulti(Cycles haltAt);

    std::vector<Snapshottable *> snapshottables_;
    std::vector<std::pair<std::uint64_t, std::string>> snapshotBlockers_;
    std::uint64_t nextBlockerToken_ = 1;
    /** Deletes through the registered destroy hook (the sim layer never
     *  sees the complete InvariantEngine type). */
    struct CheckEngineDeleter
    {
        void operator()(check::InvariantEngine *eng) const;
    };

    std::unique_ptr<check::InvariantEngine, CheckEngineDeleter> checkEngine_;
};

} // namespace kvmarm

/**
 * Epoch-publish hook used at machine quiesce boundaries, part of the
 * KVMARM_CHECK hook-macro family (check/invariants.hh): it routes through
 * the publish function the check layer registered alongside the engine
 * factory, and degrades to a no-op when no check layer is linked. A macro
 * (rather than a bare method call) so domlint's hook-coverage rule can
 * hold the quiesce-boundary sites to the same manifest discipline as the
 * event hook sites.
 */
#define KVMARM_CHECK_PUBLISH(machine) ((machine).publishCheckEpoch())

#endif // KVMARM_SIM_MACHINE_BASE_HH
