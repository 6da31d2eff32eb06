#include "sim/cpu_base.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/machine_base.hh"

namespace kvmarm {

CpuBase::CpuBase(CpuId id, MachineBase &machine) : id_(id), machine_(machine)
{
    events_.onSchedule = [this](Cycles when) {
        if (when < attention_)
            attention_ = when;
        machine_.noteEventScheduled(*this, when);
    };
    machine_.registerSnapshottable(this);
}

CpuBase::~CpuBase()
{
    machine_.unregisterSnapshottable(this);
}

void
CpuBase::attend()
{
    drain();
    if (now_ >= yieldThreshold_ && Fiber::current()) {
        Fiber::yield();
        // Another CPU ran; cross-CPU events may now be due on our queue.
        drain();
    }
}

void
CpuBase::drain()
{
    // runDue() also runs what its callbacks schedule at or before now_,
    // so one call leaves nothing due; the check skips it when nothing is.
    if (events_.headTime() <= now_)
        events_.runDue(now_);
    serviceInterrupts();
    // Nothing left to deliver: the next charge that needs this CPU's
    // attention is the next event or the yield point, unless a mutator
    // of interrupt-visible state lowers it first.
    attention_ = std::min(events_.headTime(), yieldThreshold_);
}

void
CpuBase::waitUntil(const std::function<bool()> &pred)
{
    drain();
    while (!pred()) {
        waiting_ = true;
        Fiber::yield();
        waiting_ = false;
        // The scheduler advanced our clock to the next event time.
        drain();
    }
    waiting_ = false;
}

void
CpuBase::kickAt(Cycles when)
{
    events_.schedule(when, [] {}, EventQueue::Kind::Kick);
}

void
CpuBase::setEntry(std::function<void()> fn)
{
    entry_ = std::move(fn);
    fiber_.reset();
}

bool
CpuBase::fiberFinished() const
{
    return fiber_ && fiber_->finished();
}

Cycles
CpuBase::effectiveClock() const
{
    if (!waiting_)
        return now_;
    Cycles t = events_.nextEventTime();
    if (t == kNoDeadline)
        return kNoDeadline;
    return std::max(now_, t);
}

std::string
CpuBase::snapshotKey() const
{
    return "cpu" + std::to_string(id_);
}

void
CpuBase::saveState(SnapshotWriter &w)
{
    // Snapshots capture quiesced machines only: a suspended fiber's stack
    // cannot be serialized. A finished fiber (or one never started) is fine.
    if (fiber_ && !fiber_->finished())
        fatal("cpu%u: cannot snapshot while its fiber is suspended mid-run; "
              "snapshot after machine.run() returns",
              id_);
    w.u64(now_);
    w.u64(idleCycles_);
    w.b(waiting_);
    events_.saveState(w);
    saveStats(w, stats_);
}

void
CpuBase::restoreState(SnapshotReader &r)
{
    now_ = r.u64();
    idleCycles_ = r.u64();
    waiting_ = r.b();
    events_.restoreState(r);
    restoreStats(r, stats_);
    yieldThreshold_ = kNoDeadline;
    needAttention();
    // The restored CPU runs whatever entry the clone installs next; any
    // finished boot fiber from this machine's own past is discarded.
    fiber_.reset();
}

void
CpuBase::snapshotVerify()
{
    events_.verifyAllClaimed();
}

void
CpuBase::resumeFiber()
{
    if (!entry_)
        panic("CpuBase::resumeFiber: cpu%u has no entry", id_);
    if (!fiber_)
        fiber_ = std::make_unique<Fiber>(entry_);
    if (waiting_) {
        Cycles eff = effectiveClock();
        if (eff != kNoDeadline && eff > now_) {
            idleCycles_ += eff - now_;
            now_ = eff;
        }
    }
    fiber_->resume();
}

} // namespace kvmarm
