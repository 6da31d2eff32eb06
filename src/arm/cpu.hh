/**
 * @file
 * The ARM CPU model. Simulated software (guest kernels, the host kernel,
 * the hypervisor) issues architectural operations through this class; the
 * CPU consults its mode, the Hyp trap configuration and the MMU to either
 * perform them — charging their native cost — or raise an exception.
 *
 * Exceptions are serviced *synchronously*: a trap calls the installed
 * Hyp-mode vectors (the lowvisor), which may world switch, run host and
 * user-space code inline, and world switch back before the trapped
 * operation resumes — the transparency property of full virtualization.
 */

#ifndef KVMARM_ARM_CPU_HH
#define KVMARM_ARM_CPU_HH

#include <array>
#include <cstdint>
#include <cstring>

#include "arm/hsr.hh"
#include "arm/hyp_state.hh"
#include "check/invariants.hh"
#include "arm/mmu.hh"
#include "arm/modes.hh"
#include "arm/registers.hh"
#include "arm/timer.hh"
#include "arm/vectors.hh"
#include "sim/cpu_base.hh"
#include "sim/types.hh"

namespace kvmarm::arm {

class ArmMachine;

/** One Cortex-A15-class core. */
class ArmCpu : public CpuBase
{
  public:
    /** VA boundary between the TTBR0 (user) and TTBR1 (kernel) spaces
     *  when TTBCR enables the split: the familiar 3 GB / 1 GB layout. */
    static constexpr Addr kKernelSplit = 0xC0000000;

    ArmCpu(CpuId id, ArmMachine &machine);

    ArmMachine &machine() { return armMachine_; }
    const ArmMachine &machine() const { return armMachine_; }

    /// @name Architectural state
    /// @{
    Mode mode() const { return mode_; }
    /** Set the current mode; legal only for PL1/PL2 software models and
     *  the world switch. Entering Hyp (every trap) does not mark the CPU
     *  for attention: nothing is deliverable there, and the ERET's
     *  setMode back out marks it. */
    void
    setMode(Mode m)
    {
        KVMARM_CHECK_ON(checkEngine_,
                        modeChange(&armMachine_, id_, mode_, m, hyp_.hcr.vm));
        mode_ = m;
        if (m != Mode::Hyp)
            needAttention();
    }

    RegisterFile &regs() { return regs_; }
    const RegisterFile &regs() const { return regs_; }

    /** Raw Hyp configuration state: hardware consulting (or tests
     *  arranging) its own state. Software models must use hypSys().
     *  HCR.IMO/VI route interrupts, so the writable view marks the CPU
     *  for interrupt attention; readers use the const view. */
    HypState &
    hyp()
    {
        needAttention();
        return hyp_;
    }
    const HypState &hyp() const { return hyp_; }

    /** Hyp configuration state accessed *as software* (an MRC/MCR to the
     *  virtualization-extension registers): raises the privilege
     *  invariant hook, which flags any access outside Hyp mode. */
    HypState &
    hypSys([[maybe_unused]] const char *reg)
    {
        KVMARM_CHECK_ON(checkEngine_, hypAccess(id_, mode_, reg));
        needAttention();
        return hyp_;
    }

    Mmu &mmu() { return mmu_; }

    /** TLB tag of @p va for a translation in @p mode: the regime, plus
     *  the VMID while Stage-2 is on and the ASID while Stage-1 is on. */
    TlbKey
    tlbKey(Addr va, Mode mode) const
    {
        if (mode == Mode::Hyp)
            return {.regime = TlbRegime::Hyp, .vpage = pageAlignDown(va)};
        bool s1_on = regs_[CtrlReg::SCTLR] & 1;
        bool s2_on = hyp_.hcr.vm;
        return {.regime = TlbRegime::Pl0Pl1,
                .vmid = s2_on ? static_cast<std::uint8_t>(hyp_.vmid())
                              : std::uint8_t{0},
                .asid = s1_on ? regs_[CtrlReg::CONTEXTIDR] : 0,
                .vpage = pageAlignDown(va)};
    }

    bool irqMasked() const { return irqMasked_; }
    /** Write CPSR.I. Every write of the mask goes through here. */
    void
    setIrqMasked(bool m)
    {
        irqMasked_ = m;
        needAttention();
    }
    /// @}

    /// @name Software vectors
    /// @{
    void setHypVectors(HypVectors *v) { hypVectors_ = v; }
    HypVectors *hypVectors() { return hypVectors_; }
    void
    setOsVectors(OsVectors *v)
    {
        osVectors_ = v;
        needAttention();
    }
    OsVectors *osVectors() { return osVectors_; }
    /// @}

    /// @name Operations issued by simulated software
    /// @{
    /** Execute for @p c cycles without architectural side effects. */
    void compute(Cycles c) { addCycles(c); }

    /** Load through the MMU; Stage-2 faults trap to Hyp (and may be
     *  completed by MMIO emulation), Stage-1 faults go to the current
     *  kernel. @p isv models whether the instruction populates the MMIO
     *  syndrome (paper §4). */
    std::uint64_t
    memRead(Addr va, unsigned len = 4, bool isv = true)
    {
        return accessMem(va, false, 0, len, isv);
    }

    /** Store through the MMU (same fault behaviour as memRead). */
    void
    memWrite(Addr va, std::uint64_t value, unsigned len = 4, bool isv = true)
    {
        accessMem(va, true, value, len, isv);
    }

    /** Touch @p va (translate + fault handling) without data movement. */
    void
    memTouch(Addr va, Access acc)
    {
        accessMem(va, acc == Access::Write, 0, 4, true);
    }

    /** Supervisor call from user mode into the current kernel. */
    void svc(std::uint32_t num);

    /** Hypercall from kernel mode into Hyp mode. */
    void hvc(std::uint32_t imm);

    /** Secure monitor call; trapped when HCR.TSC is set. */
    void smc();

    /** Wait for interrupt: trapped in VMs (HCR.TWI), idles natively. */
    void wfi();

    /** A VFP/NEON operation of @p c cycles; traps when lazy FP switching
     *  has FP disabled (HCPTR). */
    void fpOp(Cycles c);

    /** Access a sensitive register/instruction (Table 1's
     *  trap-and-emulate group). Returns the read value for reads. */
    std::uint32_t sensitiveOp(SensitiveOp op, std::uint32_t value = 0);

    /** Read the physical counter; PL1 access is gated by CNTHCTL. */
    std::uint64_t readCntpct();

    /** Read the virtual counter (CNTVCT); never traps when the hardware
     *  has virtual timer support. */
    std::uint64_t readCntvct();

    void writeVirtTimer(const TimerRegs &regs);

    /** Program CNTVOFF; Hyp mode only. */
    void writeCntvoff(std::uint64_t off);

    /** Context-switched CP15 registers (no traps, Table 1 top group). */
    std::uint32_t readCp15(CtrlReg r);
    void writeCp15(CtrlReg r, std::uint32_t v);
    void writeCp15_64(CtrlReg lo, CtrlReg hi, std::uint64_t v);

    /** TLB invalidate-all for the current translation regime. */
    void tlbiAll();

    /** TLB invalidate by VA (TLBIMVA). */
    void tlbiVa(Addr va);
    /// @}

    /// @name Trap plumbing
    /// @{
    /** Take a synchronous trap into Hyp mode (also used by tests). */
    void trapToHyp(const Hsr &hsr);

    /** Complete a trapped MMIO access with emulation: the faulting
     *  load/store does not retry; loads return @p value. */
    void completeMmio(std::uint64_t value = 0);

    /**
     * Choose the mode/mask the ERET at the end of the current Hyp trap
     * returns to (hardware: the handler writes SPSR_hyp). The world switch
     * uses this to land in the other world. Defaults to the trapped-from
     * state.
     */
    void
    setHypReturn(Mode m, bool irq_masked)
    {
        hypReturnMode_ = m;
        hypReturnMask_ = irq_masked;
    }

    /** Mode the current Hyp trap came from (SPSR_hyp.M). */
    Mode hypTrappedMode() const { return hypTrappedMode_; }
    bool hypTrappedIrqMask() const { return hypTrappedMask_; }

    /** Provide the result of a trapped system-register read. */
    void setTrappedReadValue(std::uint64_t v) { trappedReadValue_ = v; }
    /// @}

    /// @name CpuBase
    /// @{
    bool interruptPending() const override;
    void serviceInterrupts() override;
    /// @}

    /// @name Snapshottable (extends CpuBase with the ARM register state)
    /// @{
    void saveState(SnapshotWriter &w) override;
    void restoreState(SnapshotReader &r) override;
    /// @}

    /// @name Implementation-defined hardware registers (ACTLR group)
    /// @{
    std::uint32_t actlr = 0x00000041;
    std::uint32_t l2ctlr = 0x02020000;
    std::uint32_t l2ectlr = 0;
    std::uint32_t cp14Dbg = 0;
    /// @}

  private:
    void takeIrqToKernel();
    bool takePageFaultToKernel(Addr va, bool write, Access acc);
    std::uint64_t accessMem(Addr va, bool write, std::uint64_t value,
                            unsigned len, bool isv);
    std::uint64_t accessMemMiss(Addr va, bool write, std::uint64_t value,
                                unsigned len, bool isv);

    ArmMachine &armMachine_;
    /** The owning machine's invariant engine (null when the check layer is
     *  compiled out), cached so the inline hooks above cost one pointer
     *  load + branch without needing the complete ArmMachine type. */
    check::InvariantEngine *checkEngine_;
    Mode mode_ = Mode::Svc;
    bool irqMasked_ = true; //!< CPSR.I; kernels unmask after boot
    RegisterFile regs_;
    HypState hyp_;
    Mmu mmu_;
    HypVectors *hypVectors_ = nullptr;
    OsVectors *osVectors_ = nullptr;

    bool mmioPending_ = false;
    std::uint64_t mmioValue_ = 0;
    std::uint64_t trappedReadValue_ = 0;

    /// Call-site caches for counters bumped on every trap/interrupt.
    std::array<CachedCounter, kNumExcClasses> statTrap_;
    CachedCounter statFaultStage1_;
    CachedCounter statWfiNative_;
    CachedCounter statIrqToHyp_;
    CachedCounter statIrqVirtual_;
    CachedCounter statIrqToKernel_;

    bool inIrqService_ = false;
    std::uint64_t interruptsTaken_ = 0;
    Mode hypReturnMode_ = Mode::Svc;
    bool hypReturnMask_ = false;
    Mode hypTrappedMode_ = Mode::Svc;
    bool hypTrappedMask_ = false;
};

/**
 * A load or store. On a hit it costs one compare and a copy: the MMU's
 * access slot for the page holds a translation the TLB still holds and
 * the page's host target, so the access counts its TLB hit, moves the
 * bytes (or calls the device) and charges the bus latency, exactly as the
 * translate-then-bus path below it would. Everything else (a miss, a
 * fault, a store to a page still shared with a snapshot image, Hyp mode
 * with its MMU off) takes accessMemMiss().
 */
inline std::uint64_t
ArmCpu::accessMem(Addr va, bool write, std::uint64_t value, unsigned len,
                  bool isv)
{
    if (mode_ != Mode::Hyp || hyp_.hsctlrM) {
        if (const HostTarget *t = mmu_.hitTarget(
                tlbKey(va, mode_), va, len, write, mode_ == Mode::Usr)) {
            mmu_.tlb().countHit();
            const Addr off = va & (kPageSize - 1);
            Cycles latency = Bus::kRamLatency;
            if (t->dev) {
                if (write)
                    t->dev->write(id_, t->devOffset + off, value, len);
                else
                    value = t->dev->read(id_, t->devOffset + off, len);
                latency = t->dev->accessLatency();
            } else if (write) {
                std::memcpy(t->write + off, &value, len);
            } else {
                value = 0;
                std::memcpy(&value, t->read + off, len);
            }
            addCycles(latency);
            return write ? 0 : value;
        }
    }
    return accessMemMiss(va, write, value, len, isv);
}

} // namespace kvmarm::arm

#endif // KVMARM_ARM_CPU_HH
