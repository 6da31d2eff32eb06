/**
 * @file
 * RingChannel / RingPacer tests: the deterministic cross-machine channel
 * and its conservative time-window rendezvous protocol (DESIGN.md §4.10).
 *
 * Covers the protocol edge cases: zero lookahead is rejected outright,
 * window-order delivery, snapshot blockers while an endpoint is attached,
 * a peer terminating mid-wait unblocking the waiter with an error instead
 * of a hang, true rendezvous deadlock detection, and bit-identical
 * ping-pong execution between serial round-robin and parked/fleet-driven
 * stepping — for a pair and for a chain whose middle machine paces two
 * rings. The rendezvous fast paths are pinned too: the idle-peer bound,
 * filtered wakes, and idle-window skipping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "arm/machine.hh"
#include "sim/fleet.hh"
#include "sim/logging.hh"
#include "sim/ring_channel.hh"

namespace kvmarm {
namespace {

using arm::ArmMachine;

ArmMachine::Config
smallConfig()
{
    ArmMachine::Config c;
    c.numCpus = 1;
    c.ramSize = 32 * kMiB;
    return c;
}

std::vector<std::uint8_t>
bytes(std::initializer_list<std::uint8_t> b)
{
    return std::vector<std::uint8_t>(b);
}

TEST(RingChannel, ZeroLookaheadIsRejected)
{
    // Zero latency means zero lookahead: no window in which the two
    // machines could ever run concurrently. Reject, don't serialize.
    EXPECT_THROW(RingChannel("z", 0), FatalError);
}

TEST(RingChannel, DeliversInWindowOrder)
{
    RingChannel ch("order", 100);
    std::vector<std::uint64_t> seqs;
    std::vector<Cycles> cycles;
    ch.end(1).setReceiver([&](const RingMessage &m) {
        seqs.push_back(m.seq);
        cycles.push_back(m.deliverCycle);
    });
    EXPECT_EQ(ch.end(0).send(10, bytes({1})), 0u);  // delivers at 110
    EXPECT_EQ(ch.end(0).send(50, bytes({2})), 1u);  // delivers at 150
    EXPECT_EQ(ch.end(0).send(210, bytes({3})), 2u); // delivers at 310

    ch.pull(1, 0, 100); // nothing deliverable yet
    EXPECT_TRUE(seqs.empty());
    ch.pull(1, 100, 200);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1}));
    EXPECT_EQ(cycles, (std::vector<Cycles>{110, 150}));
    ch.pull(1, 200, 400);
    EXPECT_EQ(seqs.size(), 3u);
    EXPECT_EQ(ch.messagesSent(0), 3u);
}

TEST(RingChannel, MessageBelowPullWindowIsAProtocolViolation)
{
    RingChannel ch("below", 100);
    ch.end(1).setReceiver([](const RingMessage &) {});
    ch.end(0).send(10, bytes({1})); // delivers at 110
    // A pacer that skipped the [100, 200) window would silently reorder
    // time; the channel refuses.
    EXPECT_THROW(ch.pull(1, 200, 300), FatalError);
}

TEST(RingChannel, SendToClosedOrAbortedPeerIsFatal)
{
    {
        RingChannel ch("closed", 100);
        ch.close(1);
        EXPECT_THROW(ch.end(0).send(10, bytes({1})), FatalError);
    }
    {
        RingChannel ch("aborted", 100);
        ch.abort(1, "peer died");
        EXPECT_THROW(ch.end(0).send(10, bytes({1})), FatalError);
    }
}

TEST(RingChannel, IdlePeerBoundWidensUntilSomethingIsInFlight)
{
    RingChannel ch("idle", 100);
    // Side 0 has committed horizon 1000; side 1 lags at 200.
    ch.publish(0, 1000, false, kNoDeadline);
    ch.publish(1, 200, false, kNoDeadline);
    EXPECT_EQ(ch.peerView(0).bound, 300u); // running peer: horizon + L

    // An idle peer cannot send before something wakes it. Nothing is in
    // flight, and our own sends start at 1000, reaching it at 1100 at
    // the earliest: its first reply can land no earlier than 1200.
    ch.publish(1, 200, true, kNoDeadline);
    EXPECT_EQ(ch.peerView(0).bound, 1200u);

    // A peer that paces other rings may be woken there from its horizon
    // on: the bound falls back to horizon + L.
    ch.publish(1, 200, true, 200);
    EXPECT_EQ(ch.peerView(0).bound, 300u);

    // An in-flight message wakes the idle peer at its delivery cycle.
    RingChannel ch2("inflight", 100);
    ch2.end(1).setReceiver([](const RingMessage &) {});
    ch2.end(0).send(500, bytes({1})); // delivers at 600
    ch2.publish(0, 1000, false, kNoDeadline);
    ch2.publish(1, 200, true, kNoDeadline);
    EXPECT_EQ(ch2.peerView(0).bound, 700u);
    // Pulling it moves the message into the peer's machine: the peer is
    // no longer idle and the bound is horizon + L again.
    ch2.pull(1, 600, 700);
    EXPECT_EQ(ch2.peerView(0).bound, 300u);
}

TEST(RingChannel, PublishWakesOnlyAParkedPeerWhoseNeedIsMet)
{
    RingChannel ch("wake", 100);
    unsigned wakes = 0;
    ch.end(0).setWakeHook([&wakes] { ++wakes; });

    ch.publish(1, 100, false, kNoDeadline);
    EXPECT_EQ(wakes, 0u) << "side 0 is not parked";
    // Already reachable: park() records nothing and says so.
    EXPECT_FALSE(ch.park(0, 200));
    EXPECT_TRUE(ch.park(0, 500)); // bound 200 < 500
    ch.publish(1, 300, false, kNoDeadline); // bound 400: still short
    EXPECT_EQ(wakes, 0u);
    ch.publish(1, 400, false, kNoDeadline); // bound 500: need met
    EXPECT_EQ(wakes, 1u);
    ch.publish(1, 450, false, kNoDeadline); // the wake cleared the need
    EXPECT_EQ(wakes, 1u);

    // close() and abort() wake unconditionally.
    EXPECT_TRUE(ch.park(0, 10'000));
    ch.close(1);
    EXPECT_EQ(wakes, 2u);
    RingChannel ch2("abortwake", 100);
    ch2.end(0).setWakeHook([&wakes] { ++wakes; });
    ch2.abort(1, "gone");
    EXPECT_EQ(wakes, 3u);
    EXPECT_FALSE(ch2.park(0, 10'000)) << "an aborted peer never parks";
}

TEST(RingPacer, IdleMachineSkipsWindowsAndCountsThem)
{
    // A waits for one message; side 1 is driven by hand. Window = L.
    const Cycles latency = 1000;
    RingChannel ch("skip", latency);
    ArmMachine ma(smallConfig());
    RingPacer pa(ma, "a");
    pa.attach(ch.end(0));
    Cycles deliveredAt = 0;
    bool got = false;
    ch.end(0).setReceiver([&](const RingMessage &m) {
        ma.cpu(0).events().schedule(m.deliverCycle, [&, m] {
            got = true;
            deliveredAt = ma.cpu(0).now();
        });
    });
    ma.cpu(0).setEntry([&] {
        ma.cpu(0).waitUntil([&] { return got; });
        ma.cpu(0).compute(10);
    });

    // Peer at horizon 10000, nothing in flight: A runs [0, 1000), goes
    // idle, then passes every window up to the bound 11000 at once.
    ch.publish(1, 10'000, false, kNoDeadline);
    EXPECT_EQ(pa.step(), RingPacer::Step::Blocked);
    EXPECT_EQ(pa.horizon(), 11'000u);
    EXPECT_EQ(pa.windowsRun(), 11u);
    EXPECT_LT(ma.cpu(0).now(), 1000u) << "skipped windows run nothing";

    // A message delivering at 15500 stops the skip at the window that
    // holds it, which runs and delivers at exactly 15500.
    ch.end(1).send(14'500, bytes({7}));
    ch.publish(1, 20'000, false, kNoDeadline);
    EXPECT_EQ(pa.step(), RingPacer::Step::Done);
    EXPECT_EQ(deliveredAt, 15'500u);
    EXPECT_EQ(pa.windowsRun(), 16u); // 11 + 4 skipped + [15000, 16000)
}

/** A machine whose entry ping-pongs @p rounds payloads over @p ep. */
struct PingMachine
{
    PingMachine(RingChannel::Endpoint &ep, bool initiator, unsigned rounds)
        : machine(smallConfig()), pacer(machine, initiator ? "ping" : "pong")
    {
        pacer.attach(ep);
        CpuBase &cpu = machine.cpu(0);
        ep.setReceiver([this, &cpu](const RingMessage &msg) {
            cpu.events().schedule(msg.deliverCycle, [this, msg] {
                ++received;
                lastPayload = msg.payload;
                digest = digest * 1099511628211ull + msg.deliverCycle;
            });
        });
        machine.cpu(0).setEntry([this, &ep, &cpu, initiator, rounds] {
            for (unsigned r = 0; r < rounds; ++r) {
                if (initiator) {
                    cpu.addCycles(700); // compose
                    ep.send(cpu.now(), {std::uint8_t(r)});
                    std::uint64_t want = received + 1;
                    cpu.waitUntil([this, want] { return received >= want; });
                } else {
                    std::uint64_t want = received + 1;
                    cpu.waitUntil([this, want] { return received >= want; });
                    cpu.addCycles(300); // "process"
                    ep.send(cpu.now(), lastPayload);
                }
            }
        });
    }

    Fleet::StepOutcome
    step()
    {
        return pacer.step() == RingPacer::Step::Done
                   ? Fleet::StepOutcome::Done
                   : Fleet::StepOutcome::Blocked;
    }

    ArmMachine machine;
    RingPacer pacer;
    std::uint64_t received = 0;
    std::uint64_t digest = 0x811c9dc5;
    std::vector<std::uint8_t> lastPayload;
};

/** The middle of a chain: relays each payload from @p left to @p right
 *  and the reply back, pacing both rings. */
struct RelayMachine
{
    RelayMachine(RingChannel::Endpoint &left, RingChannel::Endpoint &right,
                 unsigned rounds)
        : machine(smallConfig()), pacer(machine, "relay")
    {
        pacer.attach(left);
        pacer.attach(right);
        CpuBase &cpu = machine.cpu(0);
        left.setReceiver([this, &cpu](const RingMessage &msg) {
            cpu.events().schedule(msg.deliverCycle, [this, msg] {
                ++fromLeft;
                toRight = msg.payload;
                digest = digest * 1099511628211ull + msg.deliverCycle;
            });
        });
        right.setReceiver([this, &cpu](const RingMessage &msg) {
            cpu.events().schedule(msg.deliverCycle, [this, msg] {
                ++fromRight;
                toLeft = msg.payload;
                digest = digest * 1099511628211ull + msg.deliverCycle;
            });
        });
        cpu.setEntry([this, &left, &right, &cpu, rounds] {
            for (std::uint64_t r = 1; r <= rounds; ++r) {
                cpu.waitUntil([this, r] { return fromLeft >= r; });
                cpu.addCycles(200);
                right.send(cpu.now(), toRight);
                cpu.waitUntil([this, r] { return fromRight >= r; });
                cpu.addCycles(200);
                left.send(cpu.now(), toLeft);
            }
        });
    }

    ArmMachine machine;
    RingPacer pacer;
    std::uint64_t fromLeft = 0, fromRight = 0;
    std::uint64_t digest = 0x811c9dc5;
    std::vector<std::uint8_t> toRight, toLeft;
};

/** Serial round-robin driver; fatals if a full round makes no progress. */
void
driveSerial(std::vector<RingPacer *> pacers)
{
    while (true) {
        bool all_done = true;
        bool progress = false;
        for (RingPacer *pacer : pacers) {
            std::uint64_t w0 = pacer->windowsRun();
            RingPacer::Step s = pacer->step();
            if (s != RingPacer::Step::Done)
                all_done = false;
            if (s == RingPacer::Step::Done || pacer->windowsRun() != w0)
                progress = true;
        }
        if (all_done)
            return;
        ASSERT_TRUE(progress) << "round-robin wedged";
    }
}

struct PingResult
{
    Cycles cycles0, cycles1;
    std::uint64_t digest0, digest1;
};

PingResult
runPingPongSerial(unsigned rounds, Cycles latency)
{
    RingChannel ch("pp", latency);
    PingMachine a(ch.end(0), true, rounds);
    PingMachine b(ch.end(1), false, rounds);
    driveSerial({&a.pacer, &b.pacer});
    return {a.machine.cpu(0).now(), b.machine.cpu(0).now(), a.digest,
            b.digest};
}

PingResult
runPingPongFleet(unsigned rounds, Cycles latency, unsigned threads)
{
    RingChannel ch("pp", latency);
    Fleet fleet(threads);
    PingMachine a(ch.end(0), true, rounds);
    PingMachine b(ch.end(1), false, rounds);
    std::size_t ia = fleet.submitResumable("a", [&a] { return a.step(); });
    std::size_t ib = fleet.submitResumable("b", [&b] { return b.step(); });
    a.pacer.setWakeHook([&fleet, ia] { fleet.notify(ia); });
    b.pacer.setWakeHook([&fleet, ib] { fleet.notify(ib); });
    fleet.start();
    for (const Fleet::JobResult &j : fleet.shutdown())
        EXPECT_TRUE(j.ok) << j.name << ": " << j.error;
    return {a.machine.cpu(0).now(), b.machine.cpu(0).now(), a.digest,
            b.digest};
}

TEST(RingPacer, PingPongIsBitIdenticalSerialVsFleet)
{
    const unsigned rounds = 40;
    const Cycles latency = 5000;
    PingResult ref = runPingPongSerial(rounds, latency);
    EXPECT_GT(ref.digest0, 0x811c9dc5u); // messages actually flowed
    for (unsigned threads : {1u, 2u, 4u}) {
        PingResult r = runPingPongFleet(rounds, latency, threads);
        EXPECT_EQ(r.cycles0, ref.cycles0) << threads << " threads";
        EXPECT_EQ(r.cycles1, ref.cycles1) << threads << " threads";
        EXPECT_EQ(r.digest0, ref.digest0) << threads << " threads";
        EXPECT_EQ(r.digest1, ref.digest1) << threads << " threads";
    }
}

/** Per-machine fingerprint of a 3-machine chain run. */
struct ChainResult
{
    std::vector<Cycles> cycles;
    std::vector<std::uint64_t> digests;
};

/** A -- B -- C: B paces two rings of different latency. @p threads 0
 *  means serial round-robin, otherwise a fleet of that many workers. */
ChainResult
runChain(unsigned rounds, unsigned threads)
{
    RingChannel ab("ab", 3000);
    RingChannel bc("bc", 5000);
    // Declared before the machines: pacer destructors may still wake.
    Fleet fleet(std::max(threads, 1u));
    PingMachine a(ab.end(0), true, rounds);
    RelayMachine b(ab.end(1), bc.end(0), rounds);
    PingMachine c(bc.end(1), false, rounds);
    std::vector<RingPacer *> pacers = {&a.pacer, &b.pacer, &c.pacer};
    if (threads == 0) {
        driveSerial(pacers);
    } else {
        for (RingPacer *p : pacers) {
            std::size_t idx = fleet.submitResumable("vm", [p] {
                return p->step() == RingPacer::Step::Done
                           ? Fleet::StepOutcome::Done
                           : Fleet::StepOutcome::Blocked;
            });
            p->setWakeHook([&fleet, idx] { fleet.notify(idx); });
        }
        fleet.start();
        for (const Fleet::JobResult &j : fleet.shutdown())
            EXPECT_TRUE(j.ok) << j.name << ": " << j.error;
    }
    return {{a.machine.cpu(0).now(), b.machine.cpu(0).now(),
             c.machine.cpu(0).now()},
            {a.digest, b.digest, c.digest}};
}

TEST(RingPacer, MultiRingChainIsBitIdenticalSerialVsFleet)
{
    const unsigned rounds = 20;
    ChainResult ref = runChain(rounds, 0);
    for (std::uint64_t d : ref.digests)
        EXPECT_NE(d, 0x811c9dc5u) << "messages actually flowed";
    for (unsigned threads : {1u, 2u, 4u}) {
        ChainResult r = runChain(rounds, threads);
        EXPECT_EQ(r.cycles, ref.cycles) << threads << " threads";
        EXPECT_EQ(r.digests, ref.digests) << threads << " threads";
    }
}

TEST(RingPacer, RepeatedSerialRunsAreBitIdentical)
{
    PingResult a = runPingPongSerial(25, 3000);
    PingResult b = runPingPongSerial(25, 3000);
    EXPECT_EQ(a.cycles0, b.cycles0);
    EXPECT_EQ(a.cycles1, b.cycles1);
    EXPECT_EQ(a.digest0, b.digest0);
    EXPECT_EQ(a.digest1, b.digest1);
}

TEST(RingPacer, AttachedEndpointBlocksSnapshotBothSides)
{
    // In-flight messages live outside the machines: snapshotting either
    // endpoint's machine must fatal with a ring diagnostic, never drop
    // messages silently.
    RingChannel ch("snap", 1000);
    ArmMachine ma(smallConfig());
    ArmMachine mb(smallConfig());
    RingPacer pa(ma, "a");
    RingPacer pb(mb, "b");
    pa.attach(ch.end(0));
    pb.attach(ch.end(1));
    try {
        ma.takeSnapshot();
        FAIL() << "snapshot of a ring-attached machine must fatal";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("snap"), std::string::npos)
            << "diagnostic must name the ring: " << e.what();
    }
    EXPECT_THROW(mb.takeSnapshot(), FatalError);
}

TEST(RingPacer, PeerTerminatingMidWaitUnblocksWithError)
{
    // Machine A parks waiting for a message that will never come; its
    // peer aborts (e.g. the peer's job failed). A's next step must fatal
    // with the peer's reason — not hang, not silently complete.
    RingChannel ch("err", 2000);
    auto a = std::make_unique<PingMachine>(ch.end(0), true, 3);
    // Step A until it blocks on the (never-publishing) peer.
    while (a->step() == Fleet::StepOutcome::Done)
        FAIL() << "initiator cannot finish without a peer";
    ch.abort(1, "peer job crashed");
    try {
        a->step();
        FAIL() << "step after peer abort must fatal";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("terminated abnormally"),
                  std::string::npos)
            << e.what();
    }
}

TEST(RingPacer, PacerDestructionAbortsItsEndpoints)
{
    // Destroying a pacer mid-run (job teardown) must unblock the peer
    // with an error on its next send/step.
    RingChannel ch("dtor", 2000);
    {
        ArmMachine mb(smallConfig());
        RingPacer pb(mb, "b");
        pb.attach(ch.end(1));
        // pb destroyed before its machine ran to completion.
    }
    RingChannel::PeerView v = ch.peerView(0);
    EXPECT_TRUE(v.aborted);
    EXPECT_NE(v.abortReason.find("destroyed"), std::string::npos);
    EXPECT_THROW(ch.end(0).send(0, bytes({1})), FatalError);
}

TEST(RingPacer, RendezvousDeadlockIsDetected)
{
    // A waits forever; B finishes without ever sending. Once B closes
    // with nothing in flight, no future window can feed A: that's a
    // deadlock, and it must be reported, not spun on.
    RingChannel ch("dead", 2000);
    ArmMachine ma(smallConfig());
    RingPacer pa(ma, "a");
    pa.attach(ch.end(0));
    bool never = false;
    ma.cpu(0).setEntry(
        [&] { ma.cpu(0).waitUntil([&] { return never; }); });

    ArmMachine mb(smallConfig());
    RingPacer pb(mb, "b");
    pb.attach(ch.end(1));
    mb.cpu(0).setEntry([&] { mb.cpu(0).compute(100); });

    EXPECT_EQ(pb.step(), RingPacer::Step::Done); // B finishes, closes
    try {
        while (pa.step() == RingPacer::Step::Blocked) {
        }
        FAIL() << "A can neither finish nor block forever";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("rendezvous deadlock"),
                  std::string::npos)
            << e.what();
    }
    // The deadlock abort must also poison the channel for the peer side.
    EXPECT_TRUE(ch.peerView(1).aborted);
}

TEST(RingPacer, AttachAfterFirstStepIsRejected)
{
    RingChannel ch1("one", 1000);
    RingChannel ch2("two", 1000);
    ArmMachine ma(smallConfig());
    RingPacer pa(ma, "a");
    pa.attach(ch1.end(0));
    ma.cpu(0).setEntry([&] { ma.cpu(0).compute(10); });
    pa.step();
    EXPECT_THROW(pa.attach(ch2.end(0)), FatalError);
}

} // namespace
} // namespace kvmarm