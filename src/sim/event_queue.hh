/**
 * @file
 * A per-CPU discrete event queue keyed by cycle time.
 *
 * Each simulated CPU owns one queue; events scheduled by other CPUs (IPI
 * deliveries, device completions) land here and are serviced when the owning
 * CPU's clock passes the event time, or immediately when the CPU idles and
 * fast-forwards its clock.
 *
 * Event objects are pooled per queue: runDue()/restoreState() recycle them
 * onto a free list that schedule() pops before touching the heap allocator,
 * so steady-state simulation performs no event allocations.
 */

#ifndef KVMARM_SIM_EVENT_QUEUE_HH
#define KVMARM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/types.hh"

namespace kvmarm {

class SnapshotReader;
class SnapshotWriter;

/** FIFO-stable priority queue of cycle-stamped callbacks. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /**
     * What an event's callback does, for snapshot rehydration. Callbacks
     * are closures and cannot be serialized; a restored Generic event
     * starts with a null callback that its owning component must claim()
     * during its rebind pass. Kick events are known no-ops and rehydrate
     * themselves.
     */
    enum class Kind : std::uint8_t
    {
        Generic = 0,
        Kick = 1,
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /**
     * Schedule @p cb to run at absolute cycle @p when. Returns an id.
     *
     * Kick events (cross-CPU wakes, known no-op callbacks) are coalesced:
     * if a live Kick is already pending at @p when, no second Event is
     * created and the existing event's id is returned. onSchedule still
     * fires for the coalesced call — the machine scheduler's wake
     * bookkeeping must see every kick request, or yield thresholds (and
     * therefore interleavings) would depend on coalescing.
     */
    std::uint64_t schedule(Cycles when, Callback cb, Kind kind = Kind::Generic);

    /** Invoked on every schedule(); the owning CPU uses this to tell the
     *  machine scheduler about cross-CPU wake events. */
    std::function<void(Cycles)> onSchedule;

    /** Cancel a previously scheduled event. Returns false if already run. */
    bool cancel(std::uint64_t id);

    /** Cycle of the earliest pending event, or kNoDeadline if empty. */
    Cycles nextEventTime() const;

    /**
     * Cycle of the heap's head, or kNoDeadline if the heap is empty. O(1):
     * a cancelled head still counts, so this may be earlier than
     * nextEventTime(), never later. Right after runDue() the two agree,
     * because runDue() pops cancelled heads.
     */
    Cycles
    headTime() const
    {
        return heap_.empty() ? kNoDeadline : heap_.front()->when;
    }

    /** Run every event with time <= @p now. Returns number run. */
    unsigned runDue(Cycles now);

    /** True if no events are pending. */
    bool empty() const { return live_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return live_; }

    /** Event structs allocated from the heap (pool misses) so far. */
    std::uint64_t heapAllocs() const { return heapAllocs_; }

    /** Duplicate same-cycle Kick schedules elided so far. */
    std::uint64_t kicksCoalesced() const { return kicksCoalesced_; }

    /// @name Snapshot support (CpuBase drives these)
    /// @{

    /** Serialize live events (time, order, id, kind) plus the id/seq
     *  counters so restored events keep their exact FIFO tie-breaks. */
    void saveState(SnapshotWriter &w) const;

    /**
     * Drop everything pending and recreate the saved events. Kick events
     * come back runnable; Generic events come back with null callbacks
     * awaiting claim(). onSchedule is not fired (the machine is quiesced).
     */
    void restoreState(SnapshotReader &r);

    /** Re-attach the callback of restored event @p id. fatal() if the id
     *  is unknown or already claimed. */
    void claim(std::uint64_t id, Callback cb);

    /** fatal() if any restored Generic event is still unclaimed. */
    void verifyAllClaimed() const;
    /// @}

  private:
    struct Event
    {
        Cycles when;
        std::uint64_t seq; //!< schedule order, for FIFO stability
        std::uint64_t id;
        Kind kind;
        Callback cb;
        bool cancelled = false;
    };

    struct Later
    {
        bool
        operator()(const Event *a, const Event *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    struct PendingKick
    {
        Cycles when;
        std::uint64_t id;
    };

    Event *allocEvent();
    void recycle(Event *ev);
    void forgetKick(std::uint64_t id);

    std::vector<Event *> heap_;
    std::vector<Event *> pool_; //!< recycled Event structs, ready for reuse
    std::vector<PendingKick> pendingKicks_; //!< live Kicks, for coalescing
    std::uint64_t nextSeq_ = 0;
    std::uint64_t nextId_ = 1;
    std::size_t live_ = 0;
    std::uint64_t heapAllocs_ = 0;
    std::uint64_t kicksCoalesced_ = 0;
};

} // namespace kvmarm

#endif // KVMARM_SIM_EVENT_QUEUE_HH
