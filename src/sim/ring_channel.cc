#include "sim/ring_channel.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/machine_base.hh"

namespace kvmarm {

RingChannel::RingChannel(std::string name, Cycles latency)
    : name_(std::move(name)), latency_(latency)
{
    if (latency_ == 0)
        fatal("RingChannel('%s'): zero latency — the delivery latency is "
              "the conservative lookahead, and zero lookahead leaves no "
              "window in which the two machines can run concurrently",
              name_.c_str());
    for (unsigned s = 0; s < 2; ++s) {
        ends_[s].ch_ = this;
        ends_[s].side_ = s;
    }
}

RingChannel::Endpoint &
RingChannel::end(unsigned side)
{
    if (side > 1)
        fatal("RingChannel('%s'): no side %u", name_.c_str(), side);
    return ends_[side];
}

Cycles
RingChannel::boundOf(unsigned side) const
{
    const Side &self = sides_[side];
    const Side &peer = sides_[1 - side];
    if (peer.closed)
        return kNoDeadline;
    Cycles bound = peer.horizon + latency_;
    if (!peer.idleForever)
        return bound;
    // Chandy–Misra null message: an idle peer sends nothing until a
    // delivery wakes it, and its first send is no earlier than that
    // delivery. Deliveries can come from our in-flight messages, from
    // anything we send from our horizon on, or from the peer's other
    // rings. pull() clears idleForever under this lock the moment a
    // delivery moves into the peer's machine, so the wider bound never
    // outlives the idleness it rests on.
    Cycles wake = std::min(self.horizon + latency_, peer.wakeFloor);
    if (!self.outbox.empty())
        wake = std::min(wake, self.outbox.front().deliverCycle);
    return std::max(bound, wake + latency_);
}

std::function<void()>
RingChannel::takeWake(unsigned side)
{
    sides_[side].need = kNoDeadline;
    return sides_[side].wake;
}

std::uint64_t
RingChannel::Endpoint::send(Cycles now, std::vector<std::uint8_t> payload)
{
    return ch_->sendFrom(side_, now, std::move(payload));
}

void
RingChannel::Endpoint::setReceiver(std::function<void(const RingMessage &)> rx)
{
    MutexLock lock(ch_->mutex_);
    ch_->sides_[side_].receiver = std::move(rx);
}

void
RingChannel::Endpoint::setWakeHook(std::function<void()> wake)
{
    MutexLock lock(ch_->mutex_);
    ch_->sides_[side_].wake = std::move(wake);
}

std::uint64_t
RingChannel::sendFrom(unsigned side, Cycles now,
                      std::vector<std::uint8_t> payload)
{
    MutexLock lock(mutex_);
    Side &self = sides_[side];
    const Side &peer = sides_[1 - side];
    if (peer.aborted)
        fatal("RingChannel('%s') side %u: send at cycle %llu but the peer "
              "terminated abnormally: %s",
              name_.c_str(), side, static_cast<unsigned long long>(now),
              peer.abortReason.c_str());
    if (peer.closed)
        fatal("RingChannel('%s') side %u: send at cycle %llu but the peer "
              "endpoint is closed — the message could never be delivered",
              name_.c_str(), side, static_cast<unsigned long long>(now));
    if (now < self.horizon)
        fatal("RingChannel('%s') side %u: send at cycle %llu below the "
              "committed horizon %llu — the window protocol was violated",
              name_.c_str(), side, static_cast<unsigned long long>(now),
              static_cast<unsigned long long>(self.horizon));
    RingMessage msg;
    msg.sendCycle = now;
    msg.deliverCycle = now + latency_;
    msg.seq = self.sendSeq++;
    msg.payload = std::move(payload);
    // Sends from a multi-CPU machine need not arrive in cycle order;
    // keep the outbox sorted by (deliverCycle, seq). Sends are nearly
    // ordered already, so insert from the back.
    auto it = self.outbox.end();
    while (it != self.outbox.begin()) {
        auto prev = std::prev(it);
        if (prev->deliverCycle < msg.deliverCycle ||
            (prev->deliverCycle == msg.deliverCycle && prev->seq < msg.seq))
            break;
        it = prev;
    }
    std::uint64_t seq = msg.seq;
    self.outbox.insert(it, std::move(msg));
    return seq;
}

void
RingChannel::publish(unsigned side, Cycles horizon, bool idleForever,
                     Cycles wakeFloor)
{
    std::function<void()> wake;
    {
        MutexLock lock(mutex_);
        Side &self = sides_[side];
        if (horizon < self.horizon)
            fatal("RingChannel('%s') side %u: horizon moved backwards "
                  "(%llu -> %llu)",
                  name_.c_str(), side,
                  static_cast<unsigned long long>(self.horizon),
                  static_cast<unsigned long long>(horizon));
        self.horizon = horizon;
        self.idleForever = idleForever;
        self.wakeFloor = wakeFloor;
        // Only a publish that lets the parked peer run wakes it; the
        // peer re-checks under this lock in park(), so no wake is lost.
        const Cycles need = sides_[1 - side].need;
        if (need != kNoDeadline && boundOf(1 - side) >= need)
            wake = takeWake(1 - side);
    }
    if (wake)
        wake();
}

bool
RingChannel::park(unsigned side, Cycles need)
{
    MutexLock lock(mutex_);
    if (sides_[1 - side].aborted || boundOf(side) >= need)
        return false;
    sides_[side].need = need;
    return true;
}

void
RingChannel::pull(unsigned side, Cycles from, Cycles to)
{
    std::vector<RingMessage> batch;
    std::function<void(const RingMessage &)> rx;
    {
        MutexLock lock(mutex_);
        Side &peer = sides_[1 - side];
        while (!peer.outbox.empty() &&
               peer.outbox.front().deliverCycle < to) {
            if (peer.outbox.front().deliverCycle < from)
                fatal("RingChannel('%s') side %u: message seq %llu with "
                      "deliver cycle %llu found below the pull window "
                      "[%llu, %llu) — window protocol violation",
                      name_.c_str(), side,
                      static_cast<unsigned long long>(
                          peer.outbox.front().seq),
                      static_cast<unsigned long long>(
                          peer.outbox.front().deliverCycle),
                      static_cast<unsigned long long>(from),
                      static_cast<unsigned long long>(to));
            batch.push_back(std::move(peer.outbox.front()));
            peer.outbox.pop_front();
        }
        // The pulled messages now live inside this side's machine, where
        // the peer's deadlock probe cannot see them. Clear the published
        // idle flag in the same critical section so the probe never
        // observes "idle with nothing in flight" between this pull and
        // the post-window publish.
        if (!batch.empty())
            sides_[side].idleForever = false;
        rx = sides_[side].receiver;
    }
    if (batch.empty())
        return;
    if (!rx)
        fatal("RingChannel('%s') side %u: %zu message(s) to deliver but no "
              "receiver is installed",
              name_.c_str(), side, batch.size());
    // Deliver outside the lock: the receiver runs machine-side code
    // (scheduling delivery events) that must never nest under the
    // channel mutex.
    for (const RingMessage &msg : batch)
        rx(msg);
}

RingChannel::PeerView
RingChannel::peerView(unsigned side) const
{
    MutexLock lock(mutex_);
    const Side &peer = sides_[1 - side];
    PeerView v;
    v.bound = boundOf(side);
    if (!peer.outbox.empty())
        v.nextInbound = peer.outbox.front().deliverCycle;
    v.closed = peer.closed;
    v.aborted = peer.aborted;
    v.idleForever = peer.idleForever && peer.wakeFloor == kNoDeadline;
    v.outboundPending = !sides_[side].outbox.empty();
    v.abortReason = peer.abortReason;
    return v;
}

void
RingChannel::close(unsigned side)
{
    std::function<void()> wake;
    {
        MutexLock lock(mutex_);
        if (sides_[side].closed)
            return;
        sides_[side].closed = true;
        wake = takeWake(1 - side);
    }
    if (wake)
        wake();
}

void
RingChannel::abort(unsigned side, std::string reason)
{
    std::function<void()> wake;
    {
        MutexLock lock(mutex_);
        Side &self = sides_[side];
        if (self.closed || self.aborted)
            return;
        self.aborted = true;
        self.abortReason = std::move(reason);
        wake = takeWake(1 - side);
    }
    if (wake)
        wake();
}

std::uint64_t
RingChannel::messagesSent(unsigned side) const
{
    MutexLock lock(mutex_);
    return sides_[side].sendSeq;
}

RingPacer::RingPacer(MachineBase &machine, std::string name)
    : machine_(machine), name_(std::move(name))
{
}

RingPacer::~RingPacer()
{
    for (std::uint64_t token : blockerTokens_)
        machine_.removeSnapshotBlocker(token);
    // A pacer destroyed before its machine finished (job aborted, test
    // teardown) must not leave peers parked forever. abort() is a no-op
    // on sides that already closed cleanly.
    for (RingChannel::Endpoint *ep : eps_)
        ep->channel().abort(ep->side(), "ring pacer '" + name_ +
                                            "' destroyed before its "
                                            "machine finished");
}

void
RingPacer::attach(RingChannel::Endpoint &ep)
{
    if (window_ != 0)
        fatal("RingPacer('%s'): attach after the first step()",
              name_.c_str());
    eps_.push_back(&ep);
    blockerTokens_.push_back(machine_.addSnapshotBlocker(
        "ring endpoint '" + ep.channel().name() +
        "' is attached — in-flight ring messages live outside the "
        "machine and would be silently dropped"));
}

void
RingPacer::setWakeHook(std::function<void()> wake)
{
    for (RingChannel::Endpoint *ep : eps_)
        ep->setWakeHook(wake);
}

void
RingPacer::closeAll()
{
    for (RingChannel::Endpoint *ep : eps_)
        ep->channel().close(ep->side());
}

void
RingPacer::abortAll(const std::string &reason)
{
    for (RingChannel::Endpoint *ep : eps_)
        ep->channel().abort(ep->side(), reason);
}

void
RingPacer::publishAll(bool idle)
{
    // A pacer with more than one ring cannot bound when its other rings
    // will wake it, so it offers no idle lookahead beyond its horizon.
    const Cycles wakeFloor = eps_.size() > 1 ? horizon_ : kNoDeadline;
    for (RingChannel::Endpoint *ep : eps_)
        ep->channel().publish(ep->side(), horizon_, idle, wakeFloor);
}

RingPacer::Step
RingPacer::step()
{
    if (done_)
        return Step::Done;
    if (eps_.empty())
        fatal("RingPacer('%s'): step() with no attached endpoints",
              name_.c_str());
    if (window_ == 0) {
        window_ = kNoDeadline;
        for (RingChannel::Endpoint *ep : eps_)
            window_ = std::min(window_, ep->channel().latency());
    }

    while (true) {
        if (machine_.finished()) {
            closeAll();
            done_ = true;
            return Step::Done;
        }

        Cycles next = horizon_ + window_;
        Cycles allowed = kNoDeadline;
        Cycles inbound = kNoDeadline;
        // A peer counts as a possible input source if it has undelivered
        // messages for us, or is still open and either running or has
        // undelivered messages FROM us in flight — those will wake it
        // when its horizon reaches their delivery cycle. A closed peer
        // sends nothing new, but what it already sent still gets
        // delivered.
        bool inputPossible = false;
        for (RingChannel::Endpoint *ep : eps_) {
            RingChannel::PeerView v = ep->channel().peerView(ep->side());
            if (v.aborted) {
                done_ = true;
                abortAll("peer of ring '" + ep->channel().name() +
                         "' terminated abnormally");
                fatal("RingPacer('%s'): ring '%s' peer terminated "
                      "abnormally: %s",
                      name_.c_str(), ep->channel().name().c_str(),
                      v.abortReason.c_str());
            }
            allowed = std::min(allowed, v.bound);
            inbound = std::min(inbound, v.nextInbound);
            if (v.nextInbound != kNoDeadline ||
                (!v.closed && (v.outboundPending || !v.idleForever)))
                inputPossible = true;
        }

        if (allowed < next) {
            // Park the need on every ring; park() re-checks each bound
            // under its channel lock, so a publish that raced the views
            // above is seen here or wakes us later — never lost. Parking
            // on a ring that is not short records nothing.
            bool blocked = false;
            for (RingChannel::Endpoint *ep : eps_)
                blocked |= ep->channel().park(ep->side(), next);
            if (blocked)
                return Step::Blocked;
            continue;
        }

        if (machine_.nextActivity() == kNoDeadline) {
            // The machine cannot progress on its own. If no open peer can
            // ever feed it a message, no future window changes anything:
            // this is a rendezvous deadlock, not idleness.
            if (!inputPossible) {
                done_ = true;
                abortAll("rendezvous deadlock detected at machine '" +
                         name_ + "'");
                fatal("RingPacer('%s'): rendezvous deadlock — machine is "
                      "blocked with no pending events at horizon %llu and "
                      "every ring peer is closed or idle with nothing in "
                      "flight",
                      name_.c_str(),
                      static_cast<unsigned long long>(horizon_));
            }
            // Every window ending at or before both the bound and the
            // earliest inbound delivery would pull nothing and run an
            // idle machine (a no-op): pass them all with one publish.
            const Cycles skip =
                (std::min(allowed, inbound) - horizon_) / window_;
            if (skip > 0) {
                horizon_ += skip * window_;
                windowsRun_ += skip;
                publishAll(true);
                continue;
            }
        }

        for (RingChannel::Endpoint *ep : eps_)
            ep->channel().pull(ep->side(), horizon_, next);

        try {
            machine_.run(next);
        } catch (...) {
            done_ = true;
            abortAll("machine '" + name_ + "' terminated abnormally "
                     "inside a ring window");
            throw;
        }

        horizon_ = next;
        ++windowsRun_;
        publishAll(!machine_.finished() &&
                   machine_.nextActivity() == kNoDeadline);
    }
}

} // namespace kvmarm
