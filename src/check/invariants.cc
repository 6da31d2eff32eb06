#include "check/invariants.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "check/rules.hh"
#include "sim/logging.hh"
#include "sim/machine_base.hh"
#include "sim/thread_annotations.hh"

namespace kvmarm::check {

namespace {

#if KVMARM_INVARIANTS_ENABLED
InvariantEngine *
createMachineEngine()
{
    return new InvariantEngine();
}

void
destroyMachineEngine(InvariantEngine *eng)
{
    delete eng;
}

void
publishMachineEngine(InvariantEngine *eng)
{
    eng->publishEpoch();
}

/** Hand MachineBase the means to create per-machine engines, and make
 *  sure the facade exists (and has read KVMARM_CHECK) before the first
 *  machine does. Gated on the compile-time kill switch: with
 *  KVMARM_INVARIANTS=OFF no factory is registered, machines carry a null
 *  engine, and the hook macro compiles away anyway. */
const bool gEagerInit =
    (Facade::instance(),
     MachineBase::registerCheckEngineFactory(createMachineEngine,
                                             destroyMachineEngine,
                                             publishMachineEngine),
     true);
#endif

} // namespace

const char *
switchDirName(SwitchDir d)
{
    return d == SwitchDir::ToVm ? "toVm" : "toHost";
}

const char *
stateClassName(StateClass c)
{
    switch (c) {
      case StateClass::Gp: return "gp";
      case StateClass::Ctrl: return "ctrl";
      case StateClass::Fpu: return "fpu";
      case StateClass::Vgic: return "vgic";
      case StateClass::Timer: return "timer";
    }
    return "?";
}

const char *
xferName(Xfer k)
{
    switch (k) {
      case Xfer::SaveHost: return "save-host";
      case Xfer::RestoreGuest: return "restore-guest";
      case Xfer::SaveGuest: return "save-guest";
      case Xfer::RestoreHost: return "restore-host";
    }
    return "?";
}

InvariantEngine::InvariantEngine()
{
    for (auto &rule : builtinRules())
        addRule(std::move(rule));
    Facade::instance().join(this);
}

InvariantEngine::~InvariantEngine()
{
    Facade::instance().leave(this,
                             liveViolations_.load(std::memory_order_relaxed));
}

void
InvariantEngine::addRule(std::unique_ptr<InvariantRule> rule)
{
    HookMask mask = rule->subscriptions();
    for (unsigned h = 0; h < kNumHooks; ++h) {
        if (mask & hookBit(static_cast<Hook>(h)))
            subscribers_[h].push_back(rule.get());
    }
    rules_.push_back(std::move(rule));
}

void
InvariantEngine::reset()
{
    violations_.clear();
    events_ = 0;
    liveViolations_.store(0, std::memory_order_relaxed);
    publishedViolations_.store(0, std::memory_order_relaxed);
    for (auto &rule : rules_)
        rule->reset();
}

std::size_t
InvariantEngine::violationCount(const std::string &rule) const
{
    std::size_t n = 0;
    for (const Violation &v : violations_)
        n += v.rule == rule;
    return n;
}

void
InvariantEngine::publishEpoch()
{
    // Release pairs with the acquire in publishedCount(): a sampler that
    // sees the new published value also sees everything the machine did
    // before its quiesce boundary.
    publishedViolations_.store(liveViolations_.load(std::memory_order_relaxed),
                               std::memory_order_release);
}

Facade::Facade()
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): facade construction is
    // single-threaded (static init or first instance() call before any
    // worker thread starts); nothing calls setenv.
    if (const char *env = std::getenv("KVMARM_CHECK")) {
        if (!std::strcmp(env, "log"))
            mode_ = CheckMode::Log;
        else if (!std::strcmp(env, "enforce"))
            mode_ = CheckMode::Enforce;
        else if (std::strcmp(env, "off"))
            warn("KVMARM_CHECK=%s not recognised (off|log|enforce)", env);
    }
}

Facade &
Facade::instance()
{
    static Facade facade;
    return facade;
}

void
Facade::join(InvariantEngine *eng)
{
    MutexLock lock(mutex_);
    engines_.push_back(eng);
    eng->setMode(mode());
}

void
Facade::leave(InvariantEngine *eng, std::uint64_t live)
{
    MutexLock lock(mutex_);
    engines_.erase(std::remove(engines_.begin(), engines_.end(), eng),
                   engines_.end());
    // Retiring the live count keeps the epoch sample monotonic: the
    // engine's contribution only ever grows when it moves from the
    // registry term to the retired term.
    retired_ += live;
}

void
Facade::setMode(CheckMode m)
{
    MutexLock lock(mutex_);
    mode_.store(m, std::memory_order_relaxed);
    for (InvariantEngine *eng : engines_)
        eng->setMode(m);
}

void
Facade::reset()
{
    MutexLock lock(mutex_);
    for (InvariantEngine *eng : engines_)
        eng->reset();
    // A facade reset starts the world over: drop retired history and any
    // open epoch window.
    retired_ = 0;
    epochId_ = 0;
    epochBaseline_ = 0;
}

std::size_t
Facade::violationCount() const
{
    MutexLock lock(mutex_);
    std::size_t n = 0;
    for (const InvariantEngine *eng : engines_)
        n += eng->violationCount();
    return n;
}

std::size_t
Facade::violationCount(const std::string &rule) const
{
    MutexLock lock(mutex_);
    std::size_t n = 0;
    for (const InvariantEngine *eng : engines_)
        n += eng->violationCount(rule);
    return n;
}

std::uint64_t
Facade::samplePublished() const
{
    // Reads only atomics — never an engine's violation log — so it is
    // safe while machines run.
    std::uint64_t total = retired_;
    for (const InvariantEngine *eng : engines_)
        total += eng->publishedCount();
    return total;
}

std::uint64_t
Facade::beginEpoch()
{
    MutexLock lock(mutex_);
    epochBaseline_ = samplePublished();
    return ++epochId_;
}

EpochReport
Facade::aggregateEpoch() const
{
    MutexLock lock(mutex_);
    EpochReport rep;
    rep.epoch = epochId_;
    rep.violations = samplePublished() - epochBaseline_;
    rep.engines = engines_.size();
    return rep;
}

void
InvariantEngine::report(const InvariantRule &rule, std::string detail)
{
    violations_.push_back(Violation{rule.name(), std::move(detail)});
    liveViolations_.fetch_add(1, std::memory_order_relaxed);
    const Violation &v = violations_.back();
    if (mode() == CheckMode::Enforce) {
        fatal("invariant violation [%s]: %s", v.rule.c_str(),
              v.detail.c_str());
    }
    warn("invariant violation [%s]: %s", v.rule.c_str(), v.detail.c_str());
}

template <typename Event>
void
InvariantEngine::deliver(Hook which,
                         void (InvariantRule::*hook)(InvariantEngine &,
                                                     const Event &),
                         const Event &ev)
{
    ++events_;
    for (InvariantRule *rule : subscribers_[static_cast<unsigned>(which)])
        (rule->*hook)(*this, ev);
}

void
InvariantEngine::hypAccess(CpuId cpu, arm::Mode mode, const char *reg)
{
    deliver(Hook::HypAccess, &InvariantRule::onHypAccess,
            HypAccessEvent{cpu, mode, reg});
}

void
InvariantEngine::modeChange(const void *domain, CpuId cpu, arm::Mode from,
                            arm::Mode to, bool stage2_on)
{
    deliver(Hook::ModeChange, &InvariantRule::onModeChange,
            ModeChangeEvent{domain, cpu, from, to, stage2_on});
}

void
InvariantEngine::worldSwitchBegin(const void *domain, CpuId cpu,
                                  SwitchDir dir)
{
    deliver(Hook::WorldSwitch, &InvariantRule::onWorldSwitch,
            WorldSwitchEvent{domain, cpu, dir, true, nullptr});
}

void
InvariantEngine::worldSwitchEnd(const void *domain, CpuId cpu, SwitchDir dir,
                                const arm::HypState &hyp)
{
    deliver(Hook::WorldSwitch, &InvariantRule::onWorldSwitch,
            WorldSwitchEvent{domain, cpu, dir, false, &hyp});
}

void
InvariantEngine::stateTransfer(const void *domain, CpuId cpu, StateClass cls,
                               Xfer kind)
{
    deliver(Hook::StateTransfer, &InvariantRule::onStateTransfer,
            StateTransferEvent{domain, cpu, cls, kind});
}

void
InvariantEngine::stage2Map(const void *domain, std::uint16_t vmid, Addr ipa,
                           Addr pa, bool device)
{
    deliver(Hook::Stage2Update, &InvariantRule::onStage2Update,
            Stage2Event{domain, vmid, ipa, pa, device, true});
}

void
InvariantEngine::stage2Unmap(const void *domain, std::uint16_t vmid,
                             Addr ipa, Addr pa)
{
    deliver(Hook::Stage2Update, &InvariantRule::onStage2Update,
            Stage2Event{domain, vmid, ipa, pa, false, false});
}

void
InvariantEngine::protectPage(const void *domain, Addr pa, const char *tag)
{
    deliver(Hook::PageGuard, &InvariantRule::onPageGuard,
            PageGuardEvent{domain, pa, tag, true});
}

void
InvariantEngine::unprotectPage(const void *domain, Addr pa)
{
    deliver(Hook::PageGuard, &InvariantRule::onPageGuard,
            PageGuardEvent{domain, pa, "", false});
}

void
InvariantEngine::vgicLrWrite(CpuId cpu, unsigned idx,
                             const arm::VgicBank &bank)
{
    deliver(Hook::VgicLr, &InvariantRule::onVgicLr,
            VgicLrEvent{cpu, idx, &bank});
}

void
InvariantEngine::maintenanceIrq(CpuId cpu, const arm::VgicBank &bank)
{
    deliver(Hook::Maintenance, &InvariantRule::onMaintenance,
            MaintenanceEvent{cpu, &bank});
}

void
InvariantEngine::ringDoorbell(const void *domain, CpuId cpu, const char *ring,
                              std::uint64_t seq, Cycles cycle,
                              std::uint32_t availIdx)
{
    deliver(Hook::Ring, &InvariantRule::onRing,
            RingEvent{domain, cpu, ring, true, seq, cycle, availIdx});
}

void
InvariantEngine::ringDeliver(const void *domain, CpuId cpu, const char *ring,
                             std::uint64_t seq, Cycles cycle,
                             std::uint32_t usedIdx)
{
    deliver(Hook::Ring, &InvariantRule::onRing,
            RingEvent{domain, cpu, ring, false, seq, cycle, usedIdx});
}

} // namespace kvmarm::check
