/**
 * @file
 * LPAE-style page tables: descriptor encoding, a three-level walker, and an
 * editor for building/modifying tables in simulated RAM.
 *
 * Three formats are modelled, because their *differences* drive KVM/ARM's
 * design (paper §2, §3.1): the kernel-mode Stage-1 format (two table base
 * registers, user/nG bits), the Hyp-mode Stage-1 format (single base
 * register, several bits mandated — which is why the kernel's page tables
 * cannot simply be reused in Hyp mode), and the Stage-2 format (S2AP
 * permissions, IPA->PA).
 */

#ifndef KVMARM_ARM_PAGETABLE_HH
#define KVMARM_ARM_PAGETABLE_HH

#include <cstdint>
#include <functional>
#include <optional>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace kvmarm::arm {

/** Translation table format. */
enum class PtFormat : std::uint8_t
{
    KernelLpae, //!< PL0/PL1 Stage-1 (what Linux kernel mode uses)
    HypLpae,    //!< PL2 Stage-1 (different mandated bits, no user/ASID)
    Stage2,     //!< IPA -> PA (S2AP permission encoding)
};

/** Kind of access being translated. */
enum class Access : std::uint8_t { Read, Write, Exec };

/** MMU fault classification. */
enum class FaultType : std::uint8_t
{
    None,
    Translation, //!< invalid descriptor at some level
    AccessFlag,  //!< AF clear (KernelLpae only)
    Permission,
    BadFormat,   //!< descriptor violates the regime's mandated bits
    Bus,         //!< table fetch hit unmapped physical memory
};

const char *faultTypeName(FaultType f);

/** Page permissions and memory type carried by a leaf descriptor. */
struct Perms
{
    bool read = true;
    bool write = true;
    bool exec = true;
    bool user = false;   //!< PL0 accessible (Stage-1 only)
    bool device = false; //!< device memory type

    bool operator==(const Perms &) const = default;
};

/** Result of a table walk. */
struct WalkResult
{
    FaultType fault = FaultType::Translation;
    int level = 1;      //!< level the walk ended at
    Addr pa = 0;        //!< output address (valid when fault == None)
    Perms perms;
    unsigned tableReads = 0; //!< memory accesses the walk performed

    bool ok() const { return fault == FaultType::None; }
};

/**
 * Descriptor bit layout (64-bit entries, 4 KiB granule):
 *  - bit 0: valid
 *  - bit 1: 1 = table (L1/L2) or page (L3); 0 at L2 = 2 MiB block
 *  - bits [39:12]: output / next-table address
 *  - bit 6: Stage-1: user accessible (AP[1]); Stage-2: read permitted
 *  - bit 7: Stage-1: read-only (AP[2]);      Stage-2: write permitted
 *  - bits [5:2]: memory attribute (0 = device, nonzero = normal)
 *  - bit 10: access flag (AF)
 *  - bit 11: nG (KernelLpae only; must be 0 in HypLpae)
 *  - bit 54: execute never (XN)
 */
namespace desc {
inline constexpr std::uint64_t kValid = 1ull << 0;
inline constexpr std::uint64_t kTable = 1ull << 1;
inline constexpr std::uint64_t kUserOrS2Read = 1ull << 6;
inline constexpr std::uint64_t kRoOrS2Write = 1ull << 7;
inline constexpr std::uint64_t kAf = 1ull << 10;
inline constexpr std::uint64_t kNg = 1ull << 11;
inline constexpr std::uint64_t kXn = 1ull << 54;
inline constexpr std::uint64_t kAddrMask = 0x000000FFFFFFF000ull;
inline constexpr std::uint64_t kAttrShift = 2;
inline constexpr std::uint64_t kAttrMask = 0xFull << kAttrShift;
} // namespace desc

/** Encode a leaf descriptor for @p fmt. */
std::uint64_t encodeLeaf(Addr pa, const Perms &p, PtFormat fmt);

/** Decode a leaf's permissions; returns BadFormat/AccessFlag violations. */
FaultType decodeLeaf(std::uint64_t d, PtFormat fmt, Perms &out);

/** Index of @p va at walk level @p level (1-3). */
unsigned ptIndex(Addr va, int level);

inline constexpr Addr kBlock2MSize = 2 * kMiB;

/**
 * Walk a three-level table rooted at @p root translating @p va.
 *
 * @param reader Called as `std::optional<std::uint64_t>(Addr table_pa)`:
 *        fetches a 64-bit descriptor at a table physical address; returns
 *        std::nullopt to abort the walk (nested Stage-2 fault or bus
 *        error) — the result then reports FaultType::Bus at the current
 *        level and the caller reconstructs the real cause. A template
 *        parameter, so a capturing lambda costs no allocation per walk.
 */
template <typename Reader>
WalkResult
walkTable(Addr root, Addr va, PtFormat fmt, Reader &&reader)
{
    WalkResult res;
    Addr table = root;

    for (int level = 1; level <= 3; ++level) {
        res.level = level;
        Addr entry_pa = table + ptIndex(va, level) * 8;
        std::optional<std::uint64_t> d = reader(entry_pa);
        ++res.tableReads;
        if (!d) {
            res.fault = FaultType::Bus;
            return res;
        }
        if (!(*d & desc::kValid)) {
            res.fault = FaultType::Translation;
            return res;
        }
        bool is_table = *d & desc::kTable;
        if (level == 2 && !is_table) {
            // 2 MiB block leaf.
            res.fault = decodeLeaf(*d, fmt, res.perms);
            if (res.fault != FaultType::None)
                return res;
            res.pa = (*d & desc::kAddrMask & ~(kBlock2MSize - 1)) |
                     (va & (kBlock2MSize - 1));
            return res;
        }
        if (level == 3) {
            if (!is_table) {
                res.fault = FaultType::BadFormat;
                return res;
            }
            res.fault = decodeLeaf(*d, fmt, res.perms);
            if (res.fault != FaultType::None)
                return res;
            res.pa = (*d & desc::kAddrMask) | (va & (kPageSize - 1));
            return res;
        }
        if (!is_table) {
            // Blocks at L1 are not modelled.
            res.fault = FaultType::BadFormat;
            return res;
        }
        table = *d & desc::kAddrMask;
    }
    panic("walkTable: fell off the walk");
}

/**
 * Builds and edits page tables through read/write/alloc callbacks, so the
 * same code serves the host kernel (direct PhysMem), the highvisor
 * (Stage-2 tables in host memory) and guest kernels (tables in guest RAM,
 * written through the guest's own memory accesses).
 */
class PageTableEditor
{
  public:
    using Reader = std::function<std::uint64_t(Addr)>;
    using Writer = std::function<void(Addr, std::uint64_t)>;
    /** Returns the physical address of a fresh zeroed page. */
    using PageAlloc = std::function<Addr()>;

    PageTableEditor(PtFormat fmt, Reader r, Writer w, PageAlloc alloc);

    /** Allocate and return a zeroed root table. */
    Addr newRoot();

    /** Map one 4 KiB page. Replaces any existing mapping. */
    void map(Addr root, Addr va, Addr pa, const Perms &p);

    /** Map one 2 MiB block at L2 (va/pa 2 MiB aligned). */
    void mapBlock2M(Addr root, Addr va, Addr pa, const Perms &p);

    /** Remove a 4 KiB mapping. @return true if a mapping existed. */
    bool unmap(Addr root, Addr va);

    /** Look up a mapping without faulting (for table management). */
    std::optional<Addr> lookup(Addr root, Addr va) const;

  private:
    Addr ensureTable(Addr table, unsigned index);

    PtFormat fmt_;
    Reader read_;
    Writer write_;
    PageAlloc alloc_;
};

} // namespace kvmarm::arm

#endif // KVMARM_ARM_PAGETABLE_HH
