/**
 * @file
 * The x86 CPU model with VMX. The decisive contrast with ARM (paper §2):
 * root mode is orthogonal to the protection rings — the whole host kernel
 * runs in root mode unchanged — and VMX transitions save/restore the
 * entire VMCS state area in hardware with a single instruction, so traps
 * are expensive one-way but world switches need no software state motion.
 */

#ifndef KVMARM_X86_CPU_HH
#define KVMARM_X86_CPU_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "sim/cpu_base.hh"
#include "sim/types.hh"
#include "x86/regs.hh"

namespace kvmarm::x86 {

class X86Machine;

/** Why a VM exit happened (subset of VMX exit reasons). */
enum class ExitReason : std::uint8_t
{
    Vmcall,
    EptViolation,
    IoInstruction, //!< port I/O: exit qualification carries port + size
    Hlt,
    ExternalInterrupt,
    ApicAccess, //!< APIC-access page: offset known, value needs decode
    MsrWrite,   //!< WRMSR (TSC-deadline timer); value in registers
};

/** Number of ExitReason values (for per-reason counter tables). */
inline constexpr std::size_t kNumExitReasons =
    static_cast<std::size_t>(ExitReason::MsrWrite) + 1;

const char *exitReasonName(ExitReason r);

/** VMX exit information (exit reason + qualification). */
struct ExitInfo
{
    ExitReason reason = ExitReason::Vmcall;
    Addr gpa = 0;
    bool isWrite = false;
    unsigned len = 4;
    std::uint64_t value = 0;
    std::uint16_t port = 0;
    Addr apicOffset = 0;
    std::uint32_t vmcallNr = 0;
};

class X86OsVectors;

/** Guest-physical to host-physical view (the EPT), owned by KVM x86. */
class EptView
{
  public:
    virtual ~EptView() = default;
    /** @return true and fill @p hpa on a mapping hit. */
    virtual bool translate(Addr gpa, Addr &hpa) = 0;
};

/** The VMCS: guest and host state areas swapped by hardware. */
struct Vmcs
{
    RegisterFileX86 guestRegs;
    RegisterFileX86 hostRegs;
    bool guestUserMode = false;
    bool guestIf = true; //!< guest RFLAGS.IF
    /** Event injection field: vector injected on the next vmentry. */
    std::uint8_t injectVector = 0;
    /** EPT pointer (EPTP). */
    EptView *ept = nullptr;
    /** Guest kernel receiving the VM's exceptions (VBAR-equivalent). */
    X86OsVectors *guestOs = nullptr;
    /** TSC offset (hardware TSC offsetting, like ARM's CNTVOFF). */
    std::uint64_t tscOffset = 0;
};

/** Handler KVM installs for VM exits (runs in root mode). */
class VmxHandler
{
  public:
    virtual ~VmxHandler() = default;
    virtual void vmexit(class X86Cpu &cpu, const ExitInfo &info) = 0;
    virtual const char *name() const = 0;
};

/** Kernel-mode software on this CPU (host kernel or guest kernel). */
class X86OsVectors
{
  public:
    virtual ~X86OsVectors() = default;
    virtual void interrupt(class X86Cpu &cpu, std::uint8_t vector) = 0;
    virtual void syscall(class X86Cpu &cpu, std::uint32_t nr) = 0;
    virtual const char *name() const = 0;
};

/** One x86 core. */
class X86Cpu : public CpuBase
{
  public:
    X86Cpu(CpuId id, X86Machine &machine);

    X86Machine &machine() { return machine_; }

    /// @name Architectural state
    /// @{
    RegisterFileX86 &regs() { return regs_; }
    bool nonRoot() const { return nonRoot_; }
    bool userMode() const { return userMode_; }
    void setUserMode(bool u) { userMode_ = u; }
    bool interruptsEnabled() const { return ifFlag_; }
    /** Write RFLAGS.IF. Like every write of IF, the VMX mode or the
     *  injection field, this marks the CPU for interrupt attention. */
    void
    setIf(bool v)
    {
        ifFlag_ = v;
        needAttention();
    }
    /** Writable VMCS (its injectVector field delivers on entry). */
    Vmcs &
    vmcs()
    {
        needAttention();
        return vmcs_;
    }
    /// @}

    void setVmxHandler(VmxHandler *h) { vmxHandler_ = h; }
    void
    setOsVectors(X86OsVectors *v)
    {
        osVectors_ = v;
        needAttention();
    }
    X86OsVectors *osVectors() { return osVectors_; }

    /// @name Operations issued by simulated software
    /// @{
    void compute(Cycles c) { addCycles(c); }

    /** Memory access; guest-physical addresses go through the EPT in
     *  non-root mode (violations exit to root mode). */
    std::uint64_t memRead(Addr addr, unsigned len = 8);
    void memWrite(Addr addr, std::uint64_t value, unsigned len = 8);

    /** Read the TSC: unprivileged, never exits (paper §2). */
    std::uint64_t rdtsc();

    /** Hypercall. */
    void vmcall(std::uint32_t nr);

    /** Port I/O; exits with full decode info in non-root mode. */
    std::uint64_t portIo(std::uint16_t port, bool write,
                         std::uint64_t value = 0);

    /** Halt until interrupt (exits in non-root mode). */
    void hlt();

    /** WRMSR IA32_TSC_DEADLINE: the oneshot clockevent on this hardware
     *  generation — one decode-free exit in a VM, a direct APIC-timer
     *  program natively. */
    void wrmsrTscDeadline(std::uint64_t deadline);

    /** Syscall into the current kernel. */
    void syscall(std::uint32_t nr);

    /** Write CR3 (context switch); flushes the modelled TLB state. */
    void writeCr3(std::uint64_t value);
    /// @}

    /// @name VMX (used by KVM x86)
    /// @{
    /** Enter the guest context (vmresume): hardware-loads guest state. */
    void vmentry();

    /** Take a VM exit: hardware-saves guest state, runs the handler in
     *  root mode, and re-enters unless the handler parked the VCPU. */
    void vmexit(const ExitInfo &info);

    /** True while executing between vmentry and the final vmexit. */
    void setStopVmx(bool stop) { stopVmx_ = stop; }
    /// @}

    /** Complete a trapped MMIO access with an emulated value. */
    void completeMmio(std::uint64_t value = 0);

    /// @name CpuBase
    /// @{
    bool interruptPending() const override;
    void serviceInterrupts() override;
    /// @}

  private:
    std::uint64_t accessMem(Addr addr, bool write, std::uint64_t value,
                            unsigned len);
    void takeInterrupt(std::uint8_t vector);

    X86Machine &machine_;
    RegisterFileX86 regs_;
    Vmcs vmcs_;
    bool nonRoot_ = false;
    bool userMode_ = false;
    bool ifFlag_ = false;
    bool stopVmx_ = false;
    bool inIrqService_ = false;
    std::uint64_t interruptsTaken_ = 0;
    bool mmioPending_ = false;
    std::uint64_t mmioValue_ = 0;
    VmxHandler *vmxHandler_ = nullptr;
    X86OsVectors *osVectors_ = nullptr;
    X86OsVectors *hostOs_ = nullptr;
    bool hostUserMode_ = false;
    bool hostIf_ = false;

    /// Call-site caches for counters bumped on every VM exit.
    std::array<CachedCounter, kNumExitReasons> statVmexit_;
    CachedCounter statHltNative_;
    CachedCounter statIrqInjected_;
};

} // namespace kvmarm::x86

#endif // KVMARM_X86_CPU_HH
