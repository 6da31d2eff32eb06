/**
 * @file
 * A simple unified TLB caching completed translations (combined Stage-1 +
 * Stage-2), tagged by regime, VMID and ASID as on hardware.
 *
 * Implemented as a fixed-size set-associative array indexed by page number,
 * with per-set FIFO (round-robin) replacement. Flushes are O(1): entries
 * carry generation tags, and `flushAll`/`flushVmid` invalidate by bumping
 * the matching generation counter instead of erasing entries. `flushVa`
 * touches exactly one set (the index depends only on the page number, so
 * every tagging of a VA lives in the same set).
 */

#ifndef KVMARM_ARM_TLB_HH
#define KVMARM_ARM_TLB_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arm/pagetable.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::arm {

/** Translation regime a TLB entry belongs to. */
enum class TlbRegime : std::uint8_t
{
    Pl0Pl1, //!< kernel/user Stage-1 (+ Stage-2 when in a VM)
    Hyp,    //!< Hyp-mode Stage-1
};

struct TlbKey
{
    TlbRegime regime = TlbRegime::Pl0Pl1;
    std::uint8_t vmid = 0;
    /** Spelled out so every byte of a key is defined: keys are copied
     *  into TLB slots that snapshots serialize verbatim. */
    std::uint16_t reserved = 0;
    std::uint32_t asid = 0;
    Addr vpage = 0;

    bool operator==(const TlbKey &) const = default;
};

struct TlbEntry
{
    Addr ppage = 0;
    Perms s1Perms;      //!< Stage-1 permissions (identity when S1 off)
    Perms s2Perms;      //!< Stage-2 permissions (all-allow when S2 off)
    bool hasStage2 = false;
    bool device = false;
};

/** Set-associative TLB with generation-counter invalidation. */
class Tlb
{
  public:
    explicit Tlb(std::size_t capacity = 256);

    const TlbEntry *lookup(const TlbKey &key) const;
    void insert(const TlbKey &key, const TlbEntry &entry);

    void flushAll();
    void flushVmid(std::uint8_t vmid);
    void flushVa(Addr vpage);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Number of currently valid entries (diagnostics/tests; O(capacity)). */
    std::size_t size() const;

    /** Entries the array can hold (sets x ways). */
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Monotonic count of events that may invalidate a previously returned
     * entry: flushes of any kind, evictions, and in-place updates. Front
     * side caches (the MMU micro-TLB) snapshot this and drop their copy
     * when it moves, so they can never return state the TLB no longer
     * holds.
     */
    std::uint64_t epoch() const { return epoch_; }

    /** Count a lookup outcome (maintained by the MMU). */
    void countHit() { ++hits_; }
    void countMiss() { ++misses_; }

    /// @name Snapshot support (the owning Mmu drives these)
    ///
    /// The whole array is serialized — slots, replacement cursors, and
    /// generation/epoch counters — so a restored machine's TLB is warm in
    /// exactly the origin's state and every future hit/miss/eviction
    /// sequence is cycle-identical.
    /// @{
    void saveState(SnapshotWriter &w) const;
    void restoreState(SnapshotReader &r);
    /// @}

  private:
    struct Slot
    {
        TlbKey key{};
        TlbEntry entry{};
        /** Valid iff globalGen == Tlb::globalGen_ and vmidGen ==
         *  Tlb::vmidGen_[key.vmid]. Zero-initialized slots are invalid
         *  because globalGen_ starts at 1 and only increments. */
        std::uint64_t globalGen = 0;
        std::uint64_t vmidGen = 0;
    };

    bool
    valid(const Slot &s) const
    {
        return s.globalGen == globalGen_ && s.vmidGen == vmidGen_[s.key.vmid];
    }

    std::size_t setIndex(Addr vpage) const
    {
        return (vpage >> kPageShift) & setMask_;
    }

    std::size_t numSets_;
    std::size_t ways_;
    std::size_t setMask_;
    std::vector<Slot> slots_;           //!< set-major, numSets_ * ways_
    std::vector<std::uint8_t> nextWay_; //!< per-set FIFO replacement cursor
    std::uint64_t globalGen_ = 1;
    std::array<std::uint64_t, 256> vmidGen_{};
    std::uint64_t epoch_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_TLB_HH
