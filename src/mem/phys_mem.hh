/**
 * @file
 * Sparse backing store for a machine's physical RAM.
 *
 * Pages are materialized on first touch so a simulated 2 GiB machine costs
 * only what the workload actually writes. Contents are real bytes: virtio
 * rings, migration state checks, and the isolation property tests read them
 * back.
 *
 * Snapshot support is copy-on-write at page granularity: saveState()
 * publishes every materialized page into an immutable shared image and
 * turns this PhysMem into a COW client of it; restoreState() adopts the
 * same image. Reads hit shared image pages directly; the first write to a
 * shared page faults a private machine-owned copy. Any number of machines
 * (origin included) may share one image across host threads — the image is
 * read-only for its whole lifetime, and every mutable page is private to
 * exactly one machine.
 */

#ifndef KVMARM_MEM_PHYS_MEM_HH
#define KVMARM_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm {

/** Byte-addressable sparse physical memory covering [base, base+size). */
class PhysMem : public Snapshottable
{
  public:
    /**
     * @param base First physical address backed by RAM.
     * @param size RAM size in bytes; must be page aligned.
     */
    PhysMem(Addr base, Addr size);

    Addr base() const { return base_; }
    Addr size() const { return size_; }

    /** True if @p pa (for @p len bytes) lies entirely within RAM. */
    bool contains(Addr pa, unsigned len = 1) const;

    /** Read @p len (1/2/4/8) bytes at @p pa. Unwritten memory reads 0. */
    std::uint64_t read(Addr pa, unsigned len) const;

    /** Write the low @p len bytes of @p value at @p pa. */
    void write(Addr pa, std::uint64_t value, unsigned len);

    /** read() for an address that may not be RAM: std::nullopt when
     *  [pa, pa+len) is not, so the bus decodes RAM with one range check. */
    std::optional<std::uint64_t> tryRead(Addr pa, unsigned len) const;

    /** write() for an address that may not be RAM; false when it is not. */
    bool tryWrite(Addr pa, std::uint64_t value, unsigned len);

    /** Bulk copy out of RAM. */
    void readBlock(Addr pa, void *dst, Addr len) const;

    /** Bulk copy into RAM. */
    void writeBlock(Addr pa, const void *src, Addr len);

    /** Zero-fill a page (used when handing fresh pages to a VM). */
    void zeroPage(Addr pa);

    /** Number of distinct pages materialized (private + shared-only). */
    std::size_t touchedPages() const;

    /// @name Host pages (CPU access caches)
    ///
    /// A CPU that caches where a guest page lives on the host reads its
    /// bytes through pageBytes() and stores through privatePageBytes().
    /// Both pointers stay good while generation() is unchanged.
    /// @{
    /** Bytes of the RAM page @p frame: the private page, else the shared
     *  snapshot image page, else a page of zeros (never written). */
    const std::uint8_t *pageBytes(Addr frame) const;
    /** Bytes of @p frame when it is private to this machine, else null: a
     *  store to a shared or unmaterialized page must take write(). */
    std::uint8_t *privatePageBytes(Addr frame);

    /**
     * Moves whenever a pointer from pageBytes()/privatePageBytes() may be
     * stale or a page's host location changes: a page materializes (first
     * write, COW fault, zeroPage into a new slot), a snapshot is saved or
     * restored, or the bus map changes (bumpGeneration). Never
     * serialized; only increases.
     */
    std::uint64_t generation() const { return generation_; }
    void bumpGeneration() { ++generation_; }
    /// @}

    /// @name COW introspection
    /// @{
    /** Writes that had to copy a shared image page into a private one. */
    std::uint64_t cowFaults() const { return cowFaults_; }
    /** Pages this machine owns privately (written since snapshot). */
    std::size_t privatePages() const { return pages_.size(); }
    /** Pages still shared read-only with the snapshot image. */
    std::size_t sharedPages() const { return image_ ? image_->pages.size() : 0; }
    /// @}

    /// @name Snapshottable
    /// @{
    std::string snapshotKey() const override { return "ram"; }
    /** Publishes the page image and becomes a COW client of it (this is
     *  why Snapshottable::saveState is non-const). */
    void saveState(SnapshotWriter &w) override;
    void restoreState(SnapshotReader &r) override;
    /// @}

  private:
    using Page = std::array<std::uint8_t, kPageSize>;

    /**
     * The immutable page set a snapshot publishes. An ordered map so that
     * anything walking it (touchedPages, future dirty-page diffing) is
     * deterministic without sorting. Never mutated after construction.
     */
    struct SnapshotImage
    {
        std::map<Addr, std::shared_ptr<const Page>> pages;
    };

    Page &pageFor(Addr pa);
    Page &pageForZero(Addr pa);
    const Page *pageForRead(Addr pa) const;
    void checkRange(Addr pa, Addr len) const;
    [[noreturn]] void outOfRange(Addr pa, Addr len) const;
    void cachePrivate(Addr frame, Page *pg) const;
    void invalidateCaches() const;

    Addr base_;
    Addr size_;
    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;

    /** Shared snapshot image this PhysMem reads through (null before any
     *  snapshot). Read-only; shared with every clone of the snapshot. */
    std::shared_ptr<const SnapshotImage> image_;

    std::uint64_t cowFaults_ = 0;
    std::uint64_t generation_ = 1;

    /**
     * Last pages touched: accesses cluster heavily (code fetch, stack, the
     * active buffer), so these turn most hash lookups into one compare.
     * Private pages live as long as the PhysMem and never move, and image
     * pages live as long as the image_ reference, so cached pointers stay
     * good until the maps change. The write cache only ever holds private
     * pages; the read cache may hold a shared image page, which is why the
     * two are separate — a write to a read-cached shared page must still
     * take the COW fault path.
     */
    mutable Addr cachedFrame_ = ~static_cast<Addr>(0);
    mutable Page *cachedPage_ = nullptr;
    mutable Addr readFrame_ = ~static_cast<Addr>(0);
    mutable const Page *readPage_ = nullptr;
};

} // namespace kvmarm

#endif // KVMARM_MEM_PHYS_MEM_HH
