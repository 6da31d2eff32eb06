/**
 * @file
 * Split-mode invariant checker (paper §3): a pluggable rule engine that
 * audits the architectural invariants KVM/ARM's correctness rests on while
 * the simulation runs.
 *
 * The paper's split-mode design is only sound if (1) Hyp-only state is
 * touched exclusively from Hyp mode (§3.2), (2) the world switch moves
 * *all* of Table 1's state symmetrically, (3) Stage-2 translation isolates
 * each VM's IPA space and the protected Hyp region (§3.3), (4) guest entry
 * programs the full KVM/ARM trap configuration, and (5) the VGIC list
 * registers stay consistent (§3.5). The simulator executes those paths;
 * this engine *checks* them, so a silent save/restore asymmetry or a
 * cross-VM Stage-2 mapping fails loudly instead of corrupting results.
 *
 * Engines are sharded per machine (DESIGN.md §4.3): every `MachineBase`
 * owns a private `InvariantEngine` instance holding its own rule shadow
 * state, violation log and event counter. A machine is single-threaded by
 * construction (§4.7), so a machine's engine runs plain single-threaded
 * code — the checked hot path takes no mutex and needs no atomics beyond
 * the per-engine mode flag, and a fleet of checked VMs never serializes
 * on the checker.
 *
 * A small process-global `Facade` (`engine()`) is the registry of live
 * engines: it carries the KVMARM_CHECK environment selection, fans
 * `setMode()`/`reset()` out to every live engine, aggregates
 * `violationCount()` across them (so tests that drive a real machine and
 * then ask the facade keep working), and runs the live epoch
 * aggregation. It holds no rules and receives no events: an instrumented
 * object built without an engine (a bare `host::Mm`, say) is simply
 * unchecked.
 *
 * Instrumented code reports events through the KVMARM_CHECK_ON() macro,
 * which compiles to nothing when the build-time kill switch (CMake option
 * KVMARM_INVARIANTS) is off and costs a pointer load plus one branch on
 * the engine's mode flag when the runtime mode is Off. No event ever
 * charges simulated cycles: checking is invisible to the cost model.
 *
 * Runtime modes: Off (default), Log (record + warn), Enforce (record +
 * throw FatalError). The KVMARM_CHECK environment variable ("off", "log",
 * "enforce") selects the initial mode, letting CI run the entire test
 * suite under enforcement without code changes; machine engines inherit
 * the facade's mode at construction.
 */

#ifndef KVMARM_CHECK_INVARIANTS_HH
#define KVMARM_CHECK_INVARIANTS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arm/hyp_state.hh"
#include "arm/modes.hh"
#include "sim/thread_annotations.hh"
#include "sim/types.hh"

#ifndef KVMARM_INVARIANTS_ENABLED
#define KVMARM_INVARIANTS_ENABLED 1
#endif

namespace kvmarm::arm {
struct VgicBank;
} // namespace kvmarm::arm

namespace kvmarm::check {

/** Runtime checking mode. */
enum class CheckMode
{
    Off,     //!< events are dropped at the hook site
    Log,     //!< violations are recorded and warn()ed
    Enforce, //!< violations are recorded and throw FatalError
};

/** Direction of a world switch. */
enum class SwitchDir
{
    ToVm,
    ToHost,
};

/** State groups of Table 1 moved by the world switch. */
enum class StateClass
{
    Gp,    //!< general-purpose registers (all banked modes)
    Ctrl,  //!< CP15 configuration registers
    Fpu,   //!< VFP/NEON data + control registers
    Vgic,  //!< VGIC control + list registers
    Timer, //!< architected timer control registers
};

/** What a world-switch state transfer did. */
enum class Xfer
{
    SaveHost,     //!< host copy parked (toVm step 1/4)
    RestoreGuest, //!< guest copy loaded (toVm step 5/9)
    SaveGuest,    //!< guest copy captured (toHost)
    RestoreHost,  //!< host copy reloaded (toHost)
};

const char *switchDirName(SwitchDir d);
const char *stateClassName(StateClass c);
const char *xferName(Xfer k);

/** One recorded invariant violation. */
struct Violation
{
    std::string rule;   //!< name of the rule that fired
    std::string detail; //!< human-readable diagnosis
};

/** Result of one live aggregation window (Facade::beginEpoch() /
 *  Facade::aggregateEpoch(), DESIGN.md §4.11). */
struct EpochReport
{
    std::uint64_t epoch = 0;    //!< id returned by the pairing beginEpoch()
    std::uint64_t violations = 0; //!< published violations since beginEpoch()
    std::size_t engines = 0;    //!< live machine engines sampled
};

/// @name Event payloads delivered to rules
/// @{

/** Software access to a Hyp-only configuration register. */
struct HypAccessEvent
{
    CpuId cpu;
    arm::Mode mode;  //!< CPU mode at the access
    const char *reg; //!< register (group) name, e.g. "hcr", "httbr"
};

/** A CPU mode transition. */
struct ModeChangeEvent
{
    const void *domain; //!< owning machine (disambiguates CPU ids)
    CpuId cpu;
    arm::Mode from;
    arm::Mode to;
    bool stage2On; //!< HCR.VM at the moment of the transition
};

/** World-switch entry/exit. @c hyp is only valid on end events. */
struct WorldSwitchEvent
{
    const void *domain;
    CpuId cpu;
    SwitchDir dir;
    bool begin;
    const arm::HypState *hyp; //!< Hyp state snapshot (end events)
};

/** One Table 1 state group moved by the world switch. */
struct StateTransferEvent
{
    const void *domain;
    CpuId cpu;
    StateClass cls;
    Xfer kind;
};

/** A Stage-2 mapping installed or removed. */
struct Stage2Event
{
    const void *domain; //!< owning host Mm (PA namespace)
    std::uint16_t vmid;
    Addr ipa;
    Addr pa;
    bool device; //!< device (MMIO passthrough) mapping
    bool map;    //!< true = map, false = unmap
};

/** A physical page entering/leaving the protected (hypervisor) set. */
struct PageGuardEvent
{
    const void *domain;
    Addr pa;
    const char *tag; //!< why it is protected, e.g. "hyp-table"
    bool protect;
};

/** A VGIC list register was written. */
struct VgicLrEvent
{
    CpuId cpu;
    unsigned idx;                  //!< list register index
    const arm::VgicBank *bank;     //!< full per-CPU VGIC bank
};

/** The VGIC maintenance interrupt is about to be raised. */
struct MaintenanceEvent
{
    CpuId cpu;
    const arm::VgicBank *bank;
};

/** Inter-VM ring activity: a doorbell MMIO send or a message delivery. */
struct RingEvent
{
    const void *domain; //!< owning machine (disambiguates ring names)
    CpuId cpu;
    const char *ring; //!< channel name
    bool doorbell;    //!< true = doorbell (send); false = delivery
    std::uint64_t seq; //!< per-direction message sequence number
    Cycles cycle;      //!< send cycle (doorbell) / deliver cycle
    std::uint32_t ringIdx; //!< avail index (doorbell) / used index (deliver)
};
/// @}

class InvariantEngine;

/** The InvariantRule hooks, one per event kind. */
enum class Hook : unsigned
{
    HypAccess,
    ModeChange,
    WorldSwitch,
    StateTransfer,
    Stage2Update,
    PageGuard,
    VgicLr,
    Maintenance,
    Ring,
};
inline constexpr unsigned kNumHooks = static_cast<unsigned>(Hook::Ring) + 1;

/** A set of hooks, one bit per Hook. */
using HookMask = std::uint32_t;

constexpr HookMask
hookBit(Hook h)
{
    return HookMask{1} << static_cast<unsigned>(h);
}

inline constexpr HookMask kAllHooks = (HookMask{1} << kNumHooks) - 1;

/**
 * One pluggable invariant rule. Override the hooks the rule cares about
 * and name them in subscriptions(); report violations through
 * InvariantEngine::report(). Rules keep their own shadow state and must
 * clear it in reset(). Each engine instance owns a private set of rule
 * instances, so one machine's shadow state can never alias another's.
 */
class InvariantRule
{
  public:
    virtual ~InvariantRule() = default;

    virtual const char *name() const = 0;

    /** The hooks this rule overrides. The engine builds its per-event
     *  rule lists from this at addRule() and calls only those hooks. The
     *  default subscribes to every hook: a rule that does not declare is
     *  slower, never blind. */
    virtual HookMask subscriptions() const { return kAllHooks; }

    /** Drop all shadow state (engine reset between test cases). */
    virtual void reset() {}

    virtual void onHypAccess(InvariantEngine &, const HypAccessEvent &) {}
    virtual void onModeChange(InvariantEngine &, const ModeChangeEvent &) {}
    virtual void onWorldSwitch(InvariantEngine &, const WorldSwitchEvent &) {}
    virtual void
    onStateTransfer(InvariantEngine &, const StateTransferEvent &)
    {
    }
    virtual void onStage2Update(InvariantEngine &, const Stage2Event &) {}
    virtual void onPageGuard(InvariantEngine &, const PageGuardEvent &) {}
    virtual void onVgicLr(InvariantEngine &, const VgicLrEvent &) {}
    virtual void onMaintenance(InvariantEngine &, const MaintenanceEvent &) {}
    virtual void onRing(InvariantEngine &, const RingEvent &) {}
};

/**
 * An invariant engine instance: a set of rules, their shadow state, a
 * violation log and an event counter. Instrumented code funnels events in
 * through the entry points below; the engine fans them out to every
 * registered rule.
 *
 * An engine is owned by exactly one MachineBase (or one test) and fed only
 * from that owner's single execution thread, so its entry points are plain
 * single-threaded code — no mutex, no atomics beyond the mode flag and the
 * epoch counters. Every engine joins the Facade registry for its lifetime
 * so the facade can fan out mode changes and resets and aggregate
 * violation counts; the registry is touched only on construction and
 * destruction, never by an event entry point.
 */
class InvariantEngine
{
  public:
    /** Installs the built-in rules and joins the registry in the facade's
     *  current mode (so an engine born under ScopedCheckMode or a
     *  KVMARM_CHECK selection starts checking at once). */
    InvariantEngine();
    /** Leaves the registry, retiring the live violation count into the
     *  facade's epoch total. */
    ~InvariantEngine();

    InvariantEngine(const InvariantEngine &) = delete;
    InvariantEngine &operator=(const InvariantEngine &) = delete;

    CheckMode mode() const { return mode_.load(std::memory_order_relaxed); }

    /** Set this engine's mode (the facade's setMode() sets every engine). */
    void
    setMode(CheckMode m)
    {
        mode_.store(m, std::memory_order_relaxed);
    }

    /** True when this engine wants events (mode != Off) — the
     *  per-engine fast-path gate consulted by KVMARM_CHECK_ON. */
    bool active() const { return mode() != CheckMode::Off; }

    /** Register an additional rule (the built-in rules are installed by
     *  the constructor). */
    void addRule(std::unique_ptr<InvariantRule> rule);

    /** Clear recorded violations, the event counter and every rule's
     *  shadow state. */
    void reset();

    /// @name Results
    /// @{
    const std::vector<Violation> &violations() const { return violations_; }

    /** Number of recorded violations. */
    std::size_t violationCount() const { return violations_.size(); }
    /** Number of violations attributed to @p rule. */
    std::size_t violationCount(const std::string &rule) const;

    /** Events observed by this engine (the hook macro delivers them in
     *  Log or Enforce mode only). */
    std::uint64_t eventCount() const { return events_; }
    /// @}

    /// @name Epoch counters (live aggregation without stop-the-world)
    ///
    /// Exact violationCount() aggregation walks engine violation logs and
    /// is therefore quiesced-only. The epoch protocol is the live path:
    /// every report() bumps the engine's atomic *live* counter, and each
    /// machine *publishes* (live → published, a lock-free store on the
    /// machine's own thread) at its quiesce boundaries — every
    /// MachineBase::run() exit and snapshot restore. The facade samples
    /// published counters only, so aggregation never reads state a machine
    /// thread is mutating and no machine ever stops for it. An engine that
    /// dies retires its live count into the facade so completed fleet jobs
    /// keep counting. The sampled total is monotonic: published never
    /// exceeds live, and retirement only converts published values into
    /// (larger-or-equal) live ones.
    /// @{

    /** Snapshot the live violation counter into the published counter.
     *  Lock-free; called on the owning machine's thread at a quiesce
     *  boundary (MachineBase::publishCheckEpoch routes here). */
    void publishEpoch();

    /** The published violation counter (safe from any thread). */
    std::uint64_t
    publishedCount() const
    {
        return publishedViolations_.load(std::memory_order_acquire);
    }
    /// @}

    /** Record a violation (called by rules). Log mode warns; Enforce mode
     *  throws FatalError after recording. */
    void report(const InvariantRule &rule, std::string detail);

    /// @name Event entry points (hook sites call these via KVMARM_CHECK_ON)
    /// @{
    void hypAccess(CpuId cpu, arm::Mode mode, const char *reg);
    void modeChange(const void *domain, CpuId cpu, arm::Mode from,
                    arm::Mode to, bool stage2_on);
    void worldSwitchBegin(const void *domain, CpuId cpu, SwitchDir dir);
    void worldSwitchEnd(const void *domain, CpuId cpu, SwitchDir dir,
                        const arm::HypState &hyp);
    void stateTransfer(const void *domain, CpuId cpu, StateClass cls,
                       Xfer kind);
    void stage2Map(const void *domain, std::uint16_t vmid, Addr ipa, Addr pa,
                   bool device);
    void stage2Unmap(const void *domain, std::uint16_t vmid, Addr ipa,
                     Addr pa);
    void protectPage(const void *domain, Addr pa, const char *tag);
    void unprotectPage(const void *domain, Addr pa);
    void vgicLrWrite(CpuId cpu, unsigned idx, const arm::VgicBank &bank);
    void maintenanceIrq(CpuId cpu, const arm::VgicBank &bank);
    void ringDoorbell(const void *domain, CpuId cpu, const char *ring,
                      std::uint64_t seq, Cycles cycle, std::uint32_t availIdx);
    void ringDeliver(const void *domain, CpuId cpu, const char *ring,
                     std::uint64_t seq, Cycles cycle, std::uint32_t usedIdx);
    /// @}

  private:
    /** Fan an event out to @p hook of every rule subscribed to @p which. */
    template <typename Event>
    void deliver(Hook which,
                 void (InvariantRule::*hook)(InvariantEngine &,
                                             const Event &),
                 const Event &ev);

    std::atomic<CheckMode> mode_{CheckMode::Off};
    std::vector<std::unique_ptr<InvariantRule>> rules_;
    /** Per hook, the rules subscribed to it, in registration order. */
    std::array<std::vector<InvariantRule *>, kNumHooks> subscribers_;
    std::vector<Violation> violations_;
    std::uint64_t events_ = 0;
    /** Epoch counters: live is bumped by every report(); published is the
     *  copy visible to lock-free facade aggregation, refreshed by
     *  publishEpoch() at machine quiesce boundaries. */
    std::atomic<std::uint64_t> liveViolations_{0};
    std::atomic<std::uint64_t> publishedViolations_{0};
};

/**
 * The process facade: the registry of live engines, the process-wide mode
 * (initially the KVMARM_CHECK environment selection, default Off) and the
 * epoch aggregator. It holds no rules and receives no events. Its mutex
 * guards only the registry and the epoch window; no engine entry point
 * ever takes it.
 *
 * setMode() is safe while machines run (engine modes are atomics).
 * reset() and violationCount() read engine state directly, so they are
 * quiesced-only: callers stop the fleet first, as tests and benches
 * naturally do. beginEpoch()/aggregateEpoch() read published counters
 * only and are safe at any time.
 */
class Facade
{
  public:
    static Facade &instance();

    Facade(const Facade &) = delete;
    Facade &operator=(const Facade &) = delete;

    CheckMode mode() const { return mode_.load(std::memory_order_relaxed); }

    /** Set the process-wide mode and every live engine's. */
    void setMode(CheckMode m);

    /** Reset every live engine, drop retired history and close any open
     *  epoch window. Quiesced-only. */
    void reset();

    /** Violations recorded across every live engine. Quiesced-only. */
    std::size_t violationCount() const;
    /** Violations attributed to @p rule across every live engine. */
    std::size_t violationCount(const std::string &rule) const;

    /** Open an aggregation window — record the current published total
     *  as the baseline and return the new epoch id. */
    std::uint64_t beginEpoch();

    /** Sample the published total (no stop-the-world; safe while machines
     *  run) and report the delta since beginEpoch(). With no beginEpoch()
     *  yet, the delta is since process start. */
    EpochReport aggregateEpoch() const;

  private:
    friend class InvariantEngine;

    Facade();

    /** Registry membership; join() also sets the new engine to the
     *  current mode. */
    void join(InvariantEngine *eng);
    /** @p live is the dying engine's live violation count (>= published;
     *  exact, since a dying engine is quiesced). */
    void leave(InvariantEngine *eng, std::uint64_t live);

    std::uint64_t samplePublished() const KVMARM_REQUIRES(mutex_);

    mutable Mutex mutex_;
    /** Written under mutex_ (so a joining engine never misses a change);
     *  atomic so mode() needs no lock. */
    std::atomic<CheckMode> mode_{CheckMode::Off};
    std::vector<InvariantEngine *> engines_ KVMARM_GUARDED_BY(mutex_);
    /** Live violations of engines that have died (a fleet job's machine
     *  retires its engine with it), folded into every epoch sample. */
    std::uint64_t retired_ KVMARM_GUARDED_BY(mutex_) = 0;
    std::uint64_t epochId_ KVMARM_GUARDED_BY(mutex_) = 0;
    std::uint64_t epochBaseline_ KVMARM_GUARDED_BY(mutex_) = 0;
};

/** Shorthand for the facade singleton. */
inline Facade &
engine()
{
    return Facade::instance();
}

/** RAII mode switch for tests: sets the mode, resets every engine, and
 *  restores Off + resets again on destruction (all via the facade, so
 *  engines created before the scope follow along; engines created inside
 *  the scope inherit the facade's mode at construction). */
class ScopedCheckMode
{
  public:
    explicit ScopedCheckMode(CheckMode m)
    {
        engine().reset();
        engine().setMode(m);
    }
    ~ScopedCheckMode()
    {
        engine().setMode(CheckMode::Off);
        engine().reset();
    }
    ScopedCheckMode(const ScopedCheckMode &) = delete;
    ScopedCheckMode &operator=(const ScopedCheckMode &) = delete;
};

} // namespace kvmarm::check

/**
 * Hook macro used at instrumentation sites: KVMARM_CHECK_ON(eng, call)
 * delivers to a specific engine instance — every hook site routes through
 * its owning machine's engine this way:
 * KVMARM_CHECK_ON(ck, stateTransfer(...)). A null engine (kill-switch
 * builds register no factory; a bare host::Mm has none) drops the event.
 * Arguments are not evaluated unless the engine is active; the macro
 * compiles away when KVMARM_INVARIANTS is off.
 */
#if KVMARM_INVARIANTS_ENABLED
#define KVMARM_CHECK_ON(eng, call)                                          \
    do {                                                                    \
        ::kvmarm::check::InvariantEngine *kvmarm_check_e_ = (eng);          \
        if (kvmarm_check_e_ && kvmarm_check_e_->active())                   \
            kvmarm_check_e_->call;                                          \
    } while (0)
#else
#define KVMARM_CHECK_ON(eng, call)                                          \
    do {                                                                    \
    } while (0)
#endif

#endif // KVMARM_CHECK_INVARIANTS_HH
