/**
 * @file
 * The Linux-like host kernel KVM/ARM integrates with: boot (including the
 * boot-in-Hyp-mode protocol of paper §4), identity kernel page tables, the
 * GIC driver and IRQ dispatch layer, page allocation (Mm), software timers
 * (SoftTimers), thread blocking, and kernel<->user transitions for the
 * QEMU-shaped device emulation process.
 */

#ifndef KVMARM_HOST_KERNEL_HH
#define KVMARM_HOST_KERNEL_HH

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "arm/machine.hh"
#include "arm/pagetable.hh"
#include "arm/vectors.hh"
#include "host/mm.hh"
#include "host/timers.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::host {

/** Host-side path costs (transition latencies Linux would incur). */
struct HostCosts
{
    Cycles kernelToUser = 1400; //!< ioctl return into the QEMU process
    Cycles userToKernel = 1650; //!< ioctl entry (KVM_RUN re-entry)
    Cycles irqDispatch = 160;   //!< irq_enter + handler lookup
    Cycles softTimerProgram = 150;
    Cycles wakeThread = 250;    //!< scheduler wakeup of a blocked thread
};

/**
 * The host Linux kernel. One instance per machine; boots on every CPU and
 * serves as the PL1 OsVectors for host execution contexts.
 */
class HostKernel : public arm::OsVectors, public Snapshottable
{
  public:
    struct Config
    {
        /** Bootloader entered the kernel in Hyp mode, letting it install
         *  the stub used to re-enter Hyp later (paper §4). When false,
         *  KVM/ARM must detect this and stay disabled. */
        bool bootedInHyp = true;
        HostCosts costs;
    };

    HostKernel(arm::ArmMachine &machine, const Config &config);
    HostKernel(arm::ArmMachine &machine) : HostKernel(machine, Config{}) {}
    ~HostKernel() override;

    /**
     * Bring up one CPU: on cpu0 also builds the kernel identity mappings
     * and initializes the GIC; enables the MMU, unmasks IRQs, and (when
     * booted in Hyp mode) installs the Hyp stub.
     */
    void boot(CpuId cpu);

    arm::ArmMachine &machine() { return machine_; }
    Mm &mm() { return mm_; }
    SoftTimers &timers() { return timers_; }
    const HostCosts &costs() const { return config_.costs; }
    bool bootedInHyp() const { return config_.bootedInHyp; }

    /** The kernel's Stage-1 root table (shared by all CPUs). */
    Addr kernelPgd() const { return kernelPgd_; }

    /// @name IRQ layer
    /// @{
    using IrqHandler = std::function<void(arm::ArmCpu &, IrqId)>;
    void requestIrq(IrqId irq, IrqHandler handler);
    void enableIrq(arm::ArmCpu &cpu, IrqId irq);
    /// @}

    /// @name Services used by KVM and device emulation
    /// @{
    /** Block the calling CPU's current thread until @p pred holds;
     *  IRQs remain serviceable while blocked. */
    void blockUntil(arm::ArmCpu &cpu, const std::function<bool()> &pred);

    /** Charge a kernel -> user -> kernel round trip around @p user_work,
     *  run with the CPU in user mode (the QEMU process). A template
     *  parameter, so a capturing lambda costs no allocation per exit. */
    template <typename Work>
    void
    runInUserspace(arm::ArmCpu &cpu, Work &&user_work)
    {
        cpu.compute(config_.costs.kernelToUser);
        arm::Mode saved = cpu.mode();
        cpu.setMode(arm::Mode::Usr);
        user_work();
        cpu.setMode(saved);
        cpu.compute(config_.costs.userToKernel);
    }

    /**
     * The paper-§4 protocol for getting code into Hyp mode: the stub
     * installed at boot handles an HVC that swaps in new vectors. Fails
     * (returns false) if the kernel was not booted in Hyp mode.
     */
    bool installHypVectors(arm::ArmCpu &cpu, arm::HypVectors *vectors);
    /// @}

    /// @name arm::OsVectors
    /// @{
    void irq(arm::ArmCpu &cpu) override;
    void svc(arm::ArmCpu &cpu, std::uint32_t num) override;
    bool pageFault(arm::ArmCpu &cpu, Addr va, bool write, bool user) override;
    const char *name() const override { return "host-linux"; }
    /// @}

    /// @name Snapshottable
    ///
    /// Per-CPU vector pointers are saved as *kinds* (null / hyp-stub /
    /// hypervisor-owned, null / host-kernel) and rebound to this instance's
    /// own objects on restore; a hypervisor-owned Hyp vector slot is left
    /// for the KVM layer's own rebind pass (it registers after us). IRQ
    /// handlers are std::functions their owners must re-register during
    /// rebind — snapshotVerify() checks the restored presence mask against
    /// what actually got re-registered.
    /// @{
    std::string snapshotKey() const override { return "host-kernel"; }
    void saveState(SnapshotWriter &w) override;
    void restoreState(SnapshotReader &r) override;
    void snapshotRebind() override;
    void snapshotVerify() override;
    /// @}

  private:
    /** Boot-time stub occupying the Hyp vector slot (paper §4): its only
     *  job is to let the kernel re-enter Hyp mode later. */
    class HypStub : public arm::HypVectors
    {
      public:
        explicit HypStub(HostKernel &kernel) : kernel_(kernel) {}
        void hypTrap(arm::ArmCpu &cpu, const arm::Hsr &hsr) override;
        const char *name() const override { return "hyp-stub"; }

        arm::HypVectors *pendingVectors = nullptr;

      private:
        HostKernel &kernel_;
    };

    static constexpr std::uint32_t kHvcSetVectors = 0xDEAD0001;

    void buildKernelTables();
    void initGicOnCpu(arm::ArmCpu &cpu);

    /** How a CPU's vector-base pointer is encoded in a snapshot. */
    enum class HypOwner : std::uint8_t { None = 0, Stub = 1, Hypervisor = 2 };
    enum class OsOwner : std::uint8_t { None = 0, Host = 1 };

    arm::ArmMachine &machine_;
    Config config_;
    Mm mm_;
    SoftTimers timers_;
    HypStub stub_;
    Addr kernelPgd_ = 0;
    std::array<IrqHandler, arm::kMaxIrqs> handlers_{};

    /** Restore-time scratch consumed by snapshotRebind()/snapshotVerify(). */
    std::vector<HypOwner> restoredHyp_;
    std::vector<OsOwner> restoredOs_;
    std::array<bool, arm::kMaxIrqs> restoredHandlerMask_{};
    bool verifyRestore_ = false;
};

} // namespace kvmarm::host

#endif // KVMARM_HOST_KERNEL_HH
