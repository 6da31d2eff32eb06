/** @file Fiber unit tests. */

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/fiber.hh"

namespace kvmarm {
namespace {

TEST(Fiber, RunsToCompletion)
{
    int x = 0;
    Fiber f([&] { x = 42; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> trace;
    Fiber f([&] {
        trace.push_back(1);
        Fiber::yield();
        trace.push_back(3);
        Fiber::yield();
        trace.push_back(5);
    });
    f.resume();
    trace.push_back(2);
    f.resume();
    trace.push_back(4);
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, TwoFibersInterleave)
{
    std::vector<int> trace;
    Fiber a([&] {
        trace.push_back(10);
        Fiber::yield();
        trace.push_back(12);
    });
    Fiber b([&] {
        trace.push_back(20);
        Fiber::yield();
        trace.push_back(22);
    });
    a.resume();
    b.resume();
    a.resume();
    b.resume();
    EXPECT_EQ(trace, (std::vector<int>{10, 20, 12, 22}));
    EXPECT_TRUE(a.finished());
    EXPECT_TRUE(b.finished());
}

TEST(Fiber, CurrentTracksExecution)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *seen = nullptr;
    Fiber f([&] { seen = Fiber::current(); });
    f.resume();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, DeepStackSurvives)
{
    // Simulated software nests deeply (guest op -> trap -> host -> QEMU).
    std::function<int(int)> recurse = [&](int n) -> int {
        volatile char pad[512];
        pad[0] = static_cast<char>(n);
        pad[511] = pad[0];
        if (n == 0)
            return 0;
        return recurse(n - 1) + 1;
    };
    int result = 0;
    Fiber f([&] { result = recurse(400); });
    f.resume();
    EXPECT_EQ(result, 400);
}

TEST(Fiber, StackOfAnAbandonedFiberIsReusable)
{
    // A fiber destroyed while suspended deep in its stack gives that
    // stack's pages back and frees it; the next fiber, which the
    // allocator will usually place on the same memory, must run cleanly.
    std::function<int(int)> recurse = [&](int n) -> int {
        volatile char pad[512];
        pad[0] = static_cast<char>(n);
        pad[511] = pad[0];
        if (n == 0) {
            Fiber::yield();
            return 0;
        }
        return recurse(n - 1) + 1;
    };
    for (int round = 0; round < 8; ++round) {
        {
            Fiber abandoned([&] { recurse(300); });
            abandoned.resume();
            EXPECT_FALSE(abandoned.finished());
        }
        int result = 0;
        Fiber f([&] { result = recurse(300); });
        f.resume();
        f.resume();
        EXPECT_TRUE(f.finished());
        EXPECT_EQ(result, 300);
    }
}

TEST(Fiber, FinishesOnAnotherThreadThanItStarted)
{
    // A fleet job may be stepped by several workers: its fiber starts on
    // one thread, finishes on another, and is destroyed (its stack pages
    // given back) by the pool owner.
    std::vector<std::unique_ptr<Fiber>> fibers;
    int sum = 0;
    std::thread([&] {
        for (int i = 0; i < 16; ++i) {
            fibers.push_back(std::make_unique<Fiber>([&sum, i] {
                sum += i;
                Fiber::yield();
                sum += i;
            }));
            fibers.back()->resume();
        }
    }).join();
    EXPECT_EQ(sum, 120);
    std::thread([&] {
        for (auto &f : fibers) {
            f->resume();
            EXPECT_TRUE(f->finished());
        }
    }).join();
    EXPECT_EQ(sum, 240);
    fibers.clear();
}

/** Holds five values in the callee-saved registers rbx and r12-r15
 *  across @p call and returns a digest of them. The empty asm statements
 *  pin each value to its register on both sides of the call, so a switch
 *  that fails to restore one of them shows up as a wrong digest. */
[[gnu::noinline]] std::uint64_t
holdAcross(std::uint64_t seed, const std::function<void()> &call)
{
    register std::uint64_t b asm("rbx") = seed * 0x9E3779B97F4A7C15ull;
    register std::uint64_t c asm("r12") = b ^ (b >> 29);
    register std::uint64_t d asm("r13") = c * 0xBF58476D1CE4E5B9ull;
    register std::uint64_t e asm("r14") = d ^ (d >> 31);
    register std::uint64_t f asm("r15") = e * 0x94D049BB133111EBull;
    asm volatile("" : "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f));
    if (call)
        call();
    asm volatile("" : "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f));
    return b + 3 * c + 5 * d + 7 * e + 11 * f;
}

TEST(Fiber, CalleeSavedRegistersSurviveYield)
{
    // Both contexts hold different values in the same registers while
    // the other one runs.
    std::uint64_t in_fiber = 0;
    Fiber f([&] { in_fiber = holdAcross(1, [] { Fiber::yield(); }); });
    std::uint64_t first = holdAcross(2, [&] { f.resume(); });
    std::uint64_t second = holdAcross(3, [&] { f.resume(); });
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(in_fiber, holdAcross(1, nullptr));
    EXPECT_EQ(first, holdAcross(2, nullptr));
    EXPECT_EQ(second, holdAcross(3, nullptr));
}

/** 1/3 at run time, in the current SSE rounding mode. */
[[gnu::noinline]] double
oneThird()
{
    volatile double one = 1.0;
    volatile double three = 3.0;
    return one / three;
}

TEST(Fiber, RoundingModeIsPerContext)
{
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    const double nearest = oneThird();
    int fiber_mode = -1;
    double fiber_third = 0;
    Fiber f([&] {
        std::fesetround(FE_UPWARD);
        Fiber::yield();
        fiber_mode = std::fegetround();
        fiber_third = oneThird();
    });
    f.resume();
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(oneThird(), nearest);
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(fiber_mode, FE_UPWARD);
    EXPECT_GT(fiber_third, nearest); // MXCSR, not only the x87 word
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(Fiber, EntryStackIsSixteenByteAligned)
{
    std::uintptr_t addr = 1;
    Fiber f([&] {
        alignas(16) volatile unsigned char local[16];
        local[0] = 1;
        addr = reinterpret_cast<std::uintptr_t>(&local[0]);
    });
    f.resume();
    EXPECT_EQ(addr % 16, 0u);
}

TEST(Fiber, ExceptionCaughtInsideFiberAcrossYield)
{
    std::string caught;
    Fiber f([&] {
        try {
            Fiber::yield();
            throw std::runtime_error("inside the fiber");
        } catch (const std::runtime_error &e) {
            Fiber::yield(); // suspended while the exception is handled
            caught = e.what();
        }
    });
    f.resume();
    f.resume();
    // The resumer throws and catches its own exception meanwhile.
    std::string outside;
    try {
        throw std::logic_error("outside");
    } catch (const std::logic_error &e) {
        outside = e.what();
    }
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(caught, "inside the fiber");
    EXPECT_EQ(outside, "outside");
}

} // namespace
} // namespace kvmarm
