/**
 * @file
 * The checked trap path allocates nothing: once a VCPU has warmed up,
 * hypercall, in-kernel MMIO and user-space MMIO round trips under
 * KVMARM_CHECK=enforce make no heap allocation anywhere, the invariant
 * rules' shadow state included. This file replaces the global operator new to count
 * allocations, so it is its own test executable: the count covers this
 * process only.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "arm/machine.hh"
#include "check/invariants.hh"
#include "core/kvm.hh"
#include "host/kernel.hh"

namespace {

std::atomic<std::uint64_t> gAllocations{0};

void *
countedAlloc(std::size_t n)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace kvmarm {
namespace {

using arm::ArmCpu;
using arm::ArmMachine;
using check::CheckMode;
using check::ScopedCheckMode;

constexpr int kWarmup = 100;
constexpr int kRoundTrips = 1000;
/** Backed by nothing: accesses exit to the user-space handler. */
constexpr Addr kUserDevAddr = 0x0C000010;

class SilentGuest : public arm::OsVectors
{
  public:
    void irq(ArmCpu &) override {}
    void svc(ArmCpu &, std::uint32_t) override {}
    bool pageFault(ArmCpu &, Addr, bool, bool) override { return false; }
    const char *name() const override { return "alloc-guest"; }
};

/** One KVM/ARM guest on a 1-CPU machine with an in-kernel test device
 *  and a user-space MMIO handler; allocationsOf() counts the allocations of kRoundTrips calls of a
 *  guest round trip, made after kWarmup uncounted ones. */
class TrapPathAllocations : public ::testing::Test
{
  protected:
    template <typename RoundTrip>
    std::uint64_t
    allocationsOf(RoundTrip &&round_trip)
    {
        ArmMachine::Config mc;
        mc.numCpus = 1;
        mc.ramSize = 64 * kMiB;
        ArmMachine machine(mc);
        host::HostKernel hostk(machine);
        core::Kvm kvm(hostk);
        SilentGuest guest;
        std::unique_ptr<core::Vm> vm;
        std::uint64_t counted = 0;
        bool ran = false;

        machine.cpu(0).setEntry([&] {
            ArmCpu &cpu = machine.cpu(0);
            hostk.boot(0);
            if (!kvm.initCpu(cpu))
                return;
            vm = kvm.createVm(32 * kMiB);
            vm->addKernelDevice(core::Vm::kKernelTestDevBase, 0x1000,
                                [](bool, Addr, std::uint64_t,
                                   unsigned) -> std::uint64_t { return 42; });
            vm->setUserMmioHandler(
                [](ArmCpu &, core::VCpu &, core::MmioExit &exit) {
                    exit.handled = true;
                    exit.data = 0x77;
                });
            core::VCpu &vcpu = vm->addVcpu(0);
            vcpu.setGuestOs(&guest);
            vcpu.run(cpu, [&](ArmCpu &c) {
                for (int i = 0; i < kWarmup; ++i)
                    round_trip(c);
                std::uint64_t before =
                    gAllocations.load(std::memory_order_relaxed);
                for (int i = 0; i < kRoundTrips; ++i)
                    round_trip(c);
                counted =
                    gAllocations.load(std::memory_order_relaxed) - before;
                ran = true;
            });
        });
        machine.run();
        EXPECT_TRUE(ran);
        return counted;
    }

    ScopedCheckMode scoped{CheckMode::Enforce};
};

TEST_F(TrapPathAllocations, HypercallRoundTripsAllocateNothing)
{
    EXPECT_EQ(allocationsOf([](ArmCpu &c) {
                  c.hvc(core::hvc::kTestHypercall);
              }),
              0u);
}

TEST_F(TrapPathAllocations, KernelMmioRoundTripsAllocateNothing)
{
    EXPECT_EQ(allocationsOf([](ArmCpu &c) {
                  (void)c.memRead(core::Vm::kKernelTestDevBase, 4);
              }),
              0u);
}

TEST_F(TrapPathAllocations, UserMmioRoundTripsAllocateNothing)
{
    EXPECT_EQ(allocationsOf([](ArmCpu &c) {
                  (void)c.memRead(kUserDevAddr, 4);
              }),
              0u);
}

} // namespace
} // namespace kvmarm
