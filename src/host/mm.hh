/**
 * @file
 * Host kernel memory management: a page allocator with reference counting
 * over machine RAM. This is the "existing kernel memory allocation, page
 * reference counting and page table manipulation code" the highvisor
 * leverages instead of writing its own allocator (paper §3.3) — a
 * bare-metal hypervisor has to bring its own (src/baremetal does).
 */

#ifndef KVMARM_HOST_MM_HH
#define KVMARM_HOST_MM_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::check {
class InvariantEngine;
} // namespace kvmarm::check

namespace kvmarm::host {

/** Page-frame allocator with per-page refcounts. */
class Mm : public Snapshottable
{
  public:
    /**
     * @param check_engine the invariant engine the memory-management
     *     clients of this allocator (Stage-2, Hyp page tables) report to.
     *     HostKernel passes its machine's private engine; with a null
     *     engine (a standalone Mm) those clients go unchecked.
     */
    explicit Mm(PhysMem &ram,
                check::InvariantEngine *check_engine = nullptr);

    /** The invariant engine Stage-2/Hyp page-table code reports to, or
     *  null. */
    check::InvariantEngine *checkEngine() const { return checkEngine_; }

    /** Allocate one zeroed page (refcount 1). Fatal when out of memory. */
    Addr allocPage();

    /** Increment a page's refcount (get_page). */
    void getPage(Addr pa);

    /** Decrement a page's refcount; frees the frame at zero (put_page). */
    void putPage(Addr pa);

    /** Refcount of @p pa, 0 if free. */
    unsigned refcount(Addr pa) const;

    /** Never-used pages below the watermark plus recycled pages. */
    std::size_t freePages() const
    {
        return (fresh_ - ram_.base()) / kPageSize + recycled_.size();
    }
    std::size_t usedPages() const { return refcounts_.size(); }

    /**
     * The get_user_pages-shaped service KVM/ARM calls from its Stage-2
     * fault handler: pin and return a fresh page backing one page of a
     * user (VM) address space. In this model user mappings are always
     * populated on demand, so this allocates.
     */
    Addr getUserPages();

    /** Approximate cycle cost of the get_user_pages path. */
    static constexpr Cycles kGetUserPagesCost = 600;

    /** The RAM this allocator manages. */
    PhysMem &ram() { return ram_; }

    /// @name Snapshottable (HostKernel registers/unregisters this)
    ///
    /// The free pages are the fresh watermark plus the recycled stack,
    /// both serialized exactly: together they decide every future
    /// allocPage() address, so restoring them is what makes a clone's
    /// post-restore allocations bit-identical to the origin's.
    /// @{
    std::string snapshotKey() const override { return "mm"; }
    void saveState(SnapshotWriter &w) override;
    void restoreState(SnapshotReader &r) override;
    /// @}

  private:
    PhysMem &ram_;
    check::InvariantEngine *checkEngine_;
    /** Pages in [ram.base(), fresh_) have never been allocated; they are
     *  handed out from the top down so early allocations (kernel page
     *  tables) sit away from guest RAM bases. */
    Addr fresh_;
    /** Freed pages, reused LIFO before any fresh page. */
    std::vector<Addr> recycled_;
    std::unordered_map<Addr, unsigned> refcounts_;
};

} // namespace kvmarm::host

#endif // KVMARM_HOST_MM_HH
