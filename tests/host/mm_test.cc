/** @file Host memory manager tests. */

#include <gtest/gtest.h>

#include <vector>

#include "host/mm.hh"
#include "sim/logging.hh"

namespace kvmarm {
namespace {

TEST(HostMm, AllocReturnsZeroedDistinctPages)
{
    PhysMem ram(0x80000000, kMiB);
    ram.write(0x80000000 + kMiB - kPageSize, 0xFF, 1);
    host::Mm mm(ram);
    Addr a = mm.allocPage();
    Addr b = mm.allocPage();
    EXPECT_NE(a, b);
    EXPECT_TRUE(isPageAligned(a));
    EXPECT_EQ(ram.read(a, 8), 0u); // zeroed even if previously dirty
    EXPECT_EQ(mm.refcount(a), 1u);
}

TEST(HostMm, RefcountLifecycle)
{
    PhysMem ram(0, kMiB);
    host::Mm mm(ram);
    Addr a = mm.allocPage();
    std::size_t free_before = mm.freePages();
    mm.getPage(a);
    mm.putPage(a);
    EXPECT_EQ(mm.refcount(a), 1u);
    EXPECT_EQ(mm.freePages(), free_before);
    mm.putPage(a + 123); // sub-page addresses resolve to the frame
    EXPECT_EQ(mm.refcount(a), 0u);
    EXPECT_EQ(mm.freePages(), free_before + 1);
}

TEST(HostMm, FreedPagesAreReused)
{
    PhysMem ram(0, 4 * kPageSize);
    host::Mm mm(ram);
    Addr a = mm.allocPage();
    mm.putPage(a);
    Addr b = mm.allocPage();
    EXPECT_EQ(a, b);
}

TEST(HostMm, ExhaustionIsFatal)
{
    PhysMem ram(0, 2 * kPageSize);
    host::Mm mm(ram);
    mm.allocPage();
    mm.allocPage();
    EXPECT_THROW(mm.allocPage(), FatalError);
}

TEST(HostMm, PutOnFreePagePanics)
{
    PhysMem ram(0, kMiB);
    host::Mm mm(ram);
    EXPECT_DEATH(mm.putPage(0x2000), "free page");
}

TEST(HostMm, GetUserPagesAllocates)
{
    PhysMem ram(0, kMiB);
    host::Mm mm(ram);
    Addr a = mm.getUserPages();
    EXPECT_EQ(mm.refcount(a), 1u);
}

TEST(HostMm, FirstAllocationsComeTopDown)
{
    PhysMem ram(0x80000000, 16 * kPageSize);
    host::Mm mm(ram);
    Addr top = ram.base() + ram.size();
    EXPECT_EQ(mm.allocPage(), top - kPageSize);
    EXPECT_EQ(mm.allocPage(), top - 2 * kPageSize);
    EXPECT_EQ(mm.allocPage(), top - 3 * kPageSize);
}

TEST(HostMm, RecycledPagesAreReusedLifoBeforeFreshOnes)
{
    PhysMem ram(0x80000000, 16 * kPageSize);
    host::Mm mm(ram);
    Addr a = mm.allocPage();
    Addr b = mm.allocPage();
    Addr c = mm.allocPage();
    mm.putPage(a);
    mm.putPage(c);
    EXPECT_EQ(mm.allocPage(), c);
    EXPECT_EQ(mm.allocPage(), a);
    // Recycled stack empty: back to the fresh watermark, below c.
    EXPECT_EQ(mm.allocPage(), c - kPageSize);
    EXPECT_EQ(mm.refcount(b), 1u);
}

TEST(HostMm, FreePagesCountsFreshAndRecycled)
{
    PhysMem ram(0, 16 * kPageSize);
    host::Mm mm(ram);
    EXPECT_EQ(mm.freePages(), 16u);
    Addr a = mm.allocPage();
    mm.allocPage();
    mm.allocPage();
    EXPECT_EQ(mm.freePages(), 13u);
    EXPECT_EQ(mm.usedPages(), 3u);
    mm.putPage(a);
    EXPECT_EQ(mm.freePages(), 14u);
    mm.allocPage(); // takes the recycled page
    EXPECT_EQ(mm.freePages(), 13u);
    while (mm.freePages() > 0)
        mm.allocPage();
    EXPECT_EQ(mm.usedPages(), 16u);
    EXPECT_THROW(mm.allocPage(), FatalError);
}

/** The allocator host::Mm replaced: one free-list entry per RAM page,
 *  filled low-to-high so pop_back hands out the top page first, with
 *  freed pages pushed on the back. Its allocation order is the contract
 *  every snapshot clone and golden relies on. */
class FreeListModel
{
  public:
    explicit FreeListModel(const PhysMem &ram)
    {
        for (Addr pa = ram.base(); pa < ram.base() + ram.size();
             pa += kPageSize)
            free_.push_back(pa);
    }
    Addr alloc()
    {
        Addr pa = free_.back();
        free_.pop_back();
        return pa;
    }
    void release(Addr pa) { free_.push_back(pa); }

  private:
    std::vector<Addr> free_;
};

TEST(HostMm, SnapshotRoundTripKeepsTheFreeListAllocationOrder)
{
    PhysMem ram(0x80000000, 256 * kPageSize);
    host::Mm mm(ram);
    FreeListModel model(ram);
    std::vector<Addr> live;
    for (int i = 0; i < 40; ++i) {
        Addr pa = mm.allocPage();
        EXPECT_EQ(pa, model.alloc());
        live.push_back(pa);
    }
    // Free an interleaved subset so recycled pages are outstanding and
    // not contiguous with the fresh watermark.
    for (std::size_t i = 3; i < live.size(); i += 4) {
        mm.putPage(live[i]);
        model.release(live[i]);
    }

    SnapshotWriter w;
    mm.saveState(w);
    SnapshotRecord rec = w.finish("mm");

    PhysMem ram2(0x80000000, 256 * kPageSize);
    host::Mm restored(ram2);
    SnapshotReader rd(rec);
    restored.restoreState(rd);
    EXPECT_TRUE(rd.done()) << "restore left unread bytes";
    EXPECT_EQ(restored.freePages(), mm.freePages());
    EXPECT_EQ(restored.usedPages(), mm.usedPages());
    EXPECT_EQ(restored.refcount(live[0]), 1u);
    EXPECT_EQ(restored.refcount(live[3]), 0u);

    for (int i = 0; i < 64; ++i) {
        Addr expect = model.alloc();
        ASSERT_EQ(mm.allocPage(), expect) << "original, allocation " << i;
        ASSERT_EQ(restored.allocPage(), expect) << "restored, allocation " << i;
    }
}

} // namespace
} // namespace kvmarm
