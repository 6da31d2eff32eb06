/**
 * @file
 * Per-CPU MMU: drives Stage-1 and Stage-2 translation for the current
 * execution context, including the nested case (Stage-1 table fetches of a
 * VM are themselves Stage-2 translated), and caches results in a TLB.
 */

#ifndef KVMARM_ARM_MMU_HH
#define KVMARM_ARM_MMU_HH

#include <array>

#include "arm/modes.hh"
#include "arm/pagetable.hh"
#include "arm/tlb.hh"
#include "mem/bus.hh"
#include "sim/types.hh"

namespace kvmarm::arm {

class ArmCpu;

/** Outcome of a translation attempt. */
struct TranslateResult
{
    bool ok = false;
    Addr pa = 0;
    bool device = false;
    Cycles cost = 0; //!< cycles spent walking (0 on a TLB hit)
    Perms perms;     //!< leaf permissions of the final stage walked

    /// @name Fault information (when !ok)
    /// @{
    bool stage2 = false;   //!< fault belongs to Stage-2 (traps to Hyp)
    FaultType fault = FaultType::None;
    Addr faultAddr = 0;    //!< VA for Stage-1 faults, IPA for Stage-2
    int level = 0;
    /// @}
};

/** MMU of one ArmCpu. */
class Mmu
{
  public:
    explicit Mmu(ArmCpu &cpu);

    /** Translate @p va for an access of kind @p acc in mode @p mode. */
    TranslateResult translate(Addr va, Access acc, Mode mode);

    /**
     * Host target of a data access that can be served without translate()
     * or the bus: @p key's access slot holds a translation the TLB still
     * holds (same epoch) that permits the access, its host target is
     * current (same RAM map generation), and [va, va+len) stays inside the
     * page. Null otherwise. The caller counts the TLB hit.
     */
    const HostTarget *
    hitTarget(const TlbKey &key, Addr va, unsigned len, bool write,
              bool user)
    {
        AccessSlot &s = access_[slotIndex(key)];
        if (s.memGen == ram_.generation() && s.micro.epoch == tlb_.epoch() &&
            s.micro.key == key && (s.allow & allowBit(write, user)) &&
            (va & (kPageSize - 1)) + len <= kPageSize) {
            lastData_ = &s;
            return &s.target;
        }
        return nullptr;
    }

    /** Resolve the host target of the last data translation, if it is
     *  still current and not resolved yet. Called after an access that
     *  took translate() and the bus, so a store that just made its page
     *  private is served from that private page next time. */
    void resolveTarget();

    Tlb &tlb() { return tlb_; }

    /// @name Snapshot support (serialized inside the owning ArmCpu record)
    ///
    /// The record holds the code micro entry and the data micro entry: the
    /// last data translation, as a one-entry data micro-TLB would hold it.
    /// Access slots and host targets are host-only and start empty.
    /// @{
    void
    saveState(SnapshotWriter &w) const
    {
        w.pod(microCode_);
        w.pod(lastData_->micro);
        tlb_.saveState(w);
    }

    void
    restoreState(SnapshotReader &r)
    {
        r.pod(microCode_);
        MicroTlbEntry data;
        r.pod(data);
        access_.fill(AccessSlot{});
        lastData_ = &access_[slotIndex(data.key)];
        lastData_->micro = data;
        tlb_.restoreState(r);
    }
    /// @}

  private:
    /**
     * A micro-TLB entry: a *copy* of a main-TLB entry, valid only while
     * the TLB's invalidation epoch is unchanged (any flush, eviction or
     * remap bumps it), so it can never outlive the entry it shadows and
     * simulated cycle attribution is identical with or without it.
     */
    struct MicroTlbEntry
    {
        TlbKey key{};
        TlbEntry entry{};
        std::uint64_t epoch = 0;
        bool valid = false;
    };

    /**
     * One slot of the data access cache: a micro-TLB entry plus the host
     * target of its page. Guest (PL0/PL1) and Hyp translations index
     * separate halves, so a world switch's GICH accesses and the guest's
     * data pages never evict each other. The target is valid while
     * memGen equals PhysMem::generation(); allow has one bit per
     * (user, write) combination the translation and target permit.
     */
    struct AccessSlot
    {
        MicroTlbEntry micro;
        std::uint64_t memGen = 0; //!< 0: target not resolved
        std::uint8_t allow = 0;
        HostTarget target;
    };

    static constexpr unsigned kSlotBits = 4;
    static constexpr std::size_t kSlotsPerRegime = std::size_t{1} << kSlotBits;

    /** Fibonacci hash of page and VMID: pages a fixed power-of-two
     *  stride apart (rings, per-VM windows) spread over the slots. */
    static std::size_t slotIndex(const TlbKey &key)
    {
        std::uint64_t h = (key.vpage >> kPageShift) ^
                          (std::uint64_t{key.vmid} << 32);
        std::size_t i = (h * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits);
        return key.regime == TlbRegime::Hyp ? i + kSlotsPerRegime : i;
    }

    static std::uint8_t allowBit(bool write, bool user)
    {
        return static_cast<std::uint8_t>(1u << ((user ? 2 : 0) + write));
    }

    TranslateResult translateHyp(Addr va, Access acc);
    TranslateResult walkStage2(Addr ipa, Access acc, Cycles &cost);

    MicroTlbEntry &micro(const TlbKey &key, Access acc);
    const TlbEntry *microLookup(const TlbKey &key, Access acc);
    void microHit(const TlbKey &key, Access acc);
    void microFill(const TlbKey &key, const TlbEntry &entry, Access acc);

    ArmCpu &cpu_;
    const PhysMem &ram_;
    Tlb tlb_;
    /** Exec translations (instruction fetch) keep a single entry. */
    MicroTlbEntry microCode_;
    std::array<AccessSlot, 2 * kSlotsPerRegime> access_{};
    /** Slot of the last data translation (what the snapshot records). */
    AccessSlot *lastData_ = &access_[0];
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_MMU_HH
