/**
 * @file
 * Hyp Syndrome Register (HSR) modelling: what the hardware tells Hyp mode
 * about why it trapped. The MMIO syndrome-valid (ISV) distinction matters:
 * a class of instructions does not populate the syndrome, forcing the
 * hypervisor to load and decode the instruction from guest memory (paper
 * §4, the MMIO instruction decode KVM/ARM had to drop).
 */

#ifndef KVMARM_ARM_HSR_HH
#define KVMARM_ARM_HSR_HH

#include <cstddef>
#include <cstdint>

#include "arm/registers.hh"
#include "sim/types.hh"

namespace kvmarm::arm {

/** Exception classes Hyp mode can observe (subset of HSR.EC). */
enum class ExcClass : std::uint8_t
{
    Unknown,
    Wfi,          //!< trapped WFI/WFE (HCR.TWI/TWE)
    Cp15Trap,     //!< trapped CP15 access (ACTLR, set/way ops, L2CTLR...)
    Cp14Trap,     //!< trapped CP14 debug/trace access
    Hvc,          //!< hypercall
    Smc,          //!< trapped secure monitor call
    PrefetchAbort, //!< Stage-2 instruction abort
    DataAbort,    //!< Stage-2 data abort (page fault or MMIO)
    Irq,          //!< physical interrupt taken to Hyp (HCR.IMO)
    TimerTrap,    //!< trapped timer/counter access (CNTHCTL or no vtimers)
    FpTrap,       //!< trapped VFP access (HCPTR, lazy FP switching)
};

/** Number of ExcClass values (for per-class counter tables). */
inline constexpr std::size_t kNumExcClasses =
    static_cast<std::size_t>(ExcClass::FpTrap) + 1;

/** Sensitive operations KVM/ARM traps and emulates (Table 1, bottom). */
enum class SensitiveOp : std::uint8_t
{
    ActlrRead,
    ActlrWrite,
    CacheSetWay,
    L2ctlrRead,
    L2ctlrWrite,
    L2ectlrRead,
    Cp14Read,
    Cp14Write,
};

/** Which timer register a TimerTrap refers to (Hsr::iss). */
enum class TimerAccess : std::uint8_t
{
    ReadCntpct,
    ReadCntvct,
    VirtTimer,
};

const char *excClassName(ExcClass ec);

/** Decoded trap syndrome passed to the Hyp-mode trap handler. */
struct Hsr
{
    ExcClass ec = ExcClass::Unknown;

    /// @name Data/prefetch abort fields
    /// @{
    Addr hpfar = 0;     //!< faulting IPA (page-aligned, as on hardware)
    Addr hdfar = 0;     //!< faulting VA
    bool isWrite = false;
    /** Instruction syndrome valid: register, width, and direction below
     *  are populated. False models the old-style instructions that force
     *  software decode. */
    bool isv = false;
    std::uint8_t srt = 0;      //!< source/target GP register index
    std::uint8_t accessLen = 4; //!< access width in bytes
    /// @}

    /// @name CP15/CP14 trap fields
    /// @{
    CtrlReg creg = CtrlReg::SCTLR;
    bool sysWrite = false;
    std::uint32_t sysValue = 0;
    std::uint64_t sysValue64 = 0; //!< 64-bit payload (timer CVAL, MMIO data)
    std::uint32_t iss = 0; //!< raw class-specific syndrome (e.g. HVC imm)
    /// @}
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_HSR_HH
