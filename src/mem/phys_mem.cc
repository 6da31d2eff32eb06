#include "mem/phys_mem.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace kvmarm {

namespace {

/** What pageBytes() serves for a frame nothing has written. */
const std::array<std::uint8_t, kPageSize> kZeroPage{};

} // namespace

PhysMem::PhysMem(Addr base, Addr size) : base_(base), size_(size)
{
    if (!isPageAligned(base) || !isPageAligned(size) || size == 0)
        fatal("PhysMem: base/size must be nonzero and page aligned");
}

bool
PhysMem::contains(Addr pa, unsigned len) const
{
    return pa >= base_ && pa + len <= base_ + size_ && pa + len > pa;
}

void
PhysMem::checkRange(Addr pa, Addr len) const
{
    if (!contains(pa, static_cast<unsigned>(len)))
        outOfRange(pa, len);
}

void
PhysMem::outOfRange(Addr pa, Addr len) const
{
    panic("PhysMem: access [%#llx,+%llu) outside RAM [%#llx,+%llu)",
              static_cast<unsigned long long>(pa), static_cast<unsigned long long>(len),
              static_cast<unsigned long long>(base_), static_cast<unsigned long long>(size_));
}

void
PhysMem::cachePrivate(Addr frame, Page *pg) const
{
    cachedFrame_ = frame;
    cachedPage_ = pg;
    // Keep the read cache coherent: it may still point at the shared image
    // copy of this frame, which just became stale for this machine.
    readFrame_ = frame;
    readPage_ = pg;
}

void
PhysMem::invalidateCaches() const
{
    cachedFrame_ = ~static_cast<Addr>(0);
    cachedPage_ = nullptr;
    readFrame_ = ~static_cast<Addr>(0);
    readPage_ = nullptr;
}

PhysMem::Page &
PhysMem::pageFor(Addr pa)
{
    Addr frame = pageAlignDown(pa);
    if (frame == cachedFrame_)
        return *cachedPage_;
    auto &slot = pages_[frame];
    if (!slot) {
        slot = std::make_unique<Page>();
        ++generation_; // the frame moved off the image or zero page
        const Page *shared = nullptr;
        if (image_) {
            auto it = image_->pages.find(frame);
            if (it != image_->pages.end())
                shared = it->second.get();
        }
        if (shared) {
            // COW fault: first write to a page still shared with the
            // snapshot image; copy it into a machine-private page.
            *slot = *shared;
            ++cowFaults_;
        } else {
            slot->fill(0);
        }
    }
    cachePrivate(frame, slot.get());
    return *slot;
}

PhysMem::Page &
PhysMem::pageForZero(Addr pa)
{
    // Like pageFor, but the caller is about to zero the whole page, so a
    // shared image page is *not* copied first.
    Addr frame = pageAlignDown(pa);
    if (frame == cachedFrame_)
        return *cachedPage_;
    auto &slot = pages_[frame];
    if (!slot) {
        slot = std::make_unique<Page>();
        ++generation_;
    }
    cachePrivate(frame, slot.get());
    return *slot;
}

const PhysMem::Page *
PhysMem::pageForRead(Addr pa) const
{
    Addr frame = pageAlignDown(pa);
    if (frame == readFrame_)
        return readPage_;
    auto it = pages_.find(frame);
    if (it != pages_.end()) {
        readFrame_ = frame;
        readPage_ = it->second.get();
        return readPage_;
    }
    if (image_) {
        auto jt = image_->pages.find(frame);
        if (jt != image_->pages.end()) {
            readFrame_ = frame;
            readPage_ = jt->second.get();
            return readPage_;
        }
    }
    return nullptr;
}

std::uint64_t
PhysMem::read(Addr pa, unsigned len) const
{
    if (std::optional<std::uint64_t> v = tryRead(pa, len))
        return *v;
    outOfRange(pa, len);
}

void
PhysMem::write(Addr pa, std::uint64_t value, unsigned len)
{
    if (!tryWrite(pa, value, len))
        outOfRange(pa, len);
}

std::optional<std::uint64_t>
PhysMem::tryRead(Addr pa, unsigned len) const
{
    if (!contains(pa, len))
        return std::nullopt;
    std::uint64_t v = 0;
    if ((pa & (len - 1)) == 0) {
        // Naturally aligned: cannot cross a page, skip the block loop.
        if (const Page *pg = pageForRead(pa))
            std::memcpy(&v, pg->data() + (pa & (kPageSize - 1)), len);
        return v;
    }
    readBlock(pa, &v, len);
    return v;
}

bool
PhysMem::tryWrite(Addr pa, std::uint64_t value, unsigned len)
{
    if (!contains(pa, len))
        return false;
    if ((pa & (len - 1)) == 0) {
        std::memcpy(pageFor(pa).data() + (pa & (kPageSize - 1)), &value, len);
        return true;
    }
    writeBlock(pa, &value, len);
    return true;
}

const std::uint8_t *
PhysMem::pageBytes(Addr frame) const
{
    const Page *pg = pageForRead(frame);
    return pg ? pg->data() : kZeroPage.data();
}

std::uint8_t *
PhysMem::privatePageBytes(Addr frame)
{
    auto it = pages_.find(frame);
    return it == pages_.end() ? nullptr : it->second->data();
}

void
PhysMem::readBlock(Addr pa, void *dst, Addr len) const
{
    checkRange(pa, len);
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        Addr off = pa & (kPageSize - 1);
        Addr chunk = std::min<Addr>(len, kPageSize - off);
        const Page *pg = pageForRead(pa);
        if (pg)
            std::memcpy(out, pg->data() + off, chunk);
        else
            std::memset(out, 0, chunk);
        pa += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
PhysMem::writeBlock(Addr pa, const void *src, Addr len)
{
    checkRange(pa, len);
    auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        Addr off = pa & (kPageSize - 1);
        Addr chunk = std::min<Addr>(len, kPageSize - off);
        std::memcpy(pageFor(pa).data() + off, in, chunk);
        pa += chunk;
        in += chunk;
        len -= chunk;
    }
}

void
PhysMem::zeroPage(Addr pa)
{
    checkRange(pa, kPageSize);
    if (!isPageAligned(pa))
        panic("PhysMem::zeroPage: unaligned %#llx", static_cast<unsigned long long>(pa));
    pageForZero(pa).fill(0);
}

std::size_t
PhysMem::touchedPages() const
{
    if (!image_)
        return pages_.size();
    std::size_t n = pages_.size();
    for (const auto &[frame, pg] : image_->pages) {
        if (!pages_.count(frame))
            ++n;
    }
    return n;
}

void
PhysMem::saveState(SnapshotWriter &w)
{
    // Publish every page this machine can currently see into one immutable
    // image: the previous image's pages (clone-of-clone chains flatten
    // here) overlaid with this machine's private pages. The private pages
    // move into the image without copying bytes, and this PhysMem becomes
    // a COW client of the new image — symmetric with every clone, so the
    // origin and its clones fault identically from here on.
    auto img = std::make_shared<SnapshotImage>();
    if (image_)
        img->pages = image_->pages;
    std::vector<Addr> frames;
    frames.reserve(pages_.size());
    // domlint: allow(unordered-iter) — snapshot is sorted below before any order-dependent use
    for (auto &[frame, pg] : pages_)
        frames.push_back(frame);
    std::sort(frames.begin(), frames.end());
    for (Addr frame : frames) {
        auto it = pages_.find(frame);
        img->pages[frame] = std::shared_ptr<const Page>(it->second.release());
    }
    pages_.clear();
    image_ = img;
    invalidateCaches();
    ++generation_;

    w.u64(base_);
    w.u64(size_);
    w.u64(cowFaults_);
    w.attach(std::static_pointer_cast<const void>(
        std::shared_ptr<const SnapshotImage>(img)));
}

void
PhysMem::restoreState(SnapshotReader &r)
{
    Addr base = r.u64();
    Addr size = r.u64();
    if (base != base_ || size != size_)
        fatal("PhysMem::restoreState: snapshot RAM [%#llx,+%llu) does not "
              "match this machine's [%#llx,+%llu)",
              static_cast<unsigned long long>(base),
              static_cast<unsigned long long>(size),
              static_cast<unsigned long long>(base_),
              static_cast<unsigned long long>(size_));
    cowFaults_ = r.u64();
    auto img = std::static_pointer_cast<const SnapshotImage>(r.attachment());
    if (!img)
        fatal("PhysMem::restoreState: record carries no page image");
    image_ = std::move(img);
    // Whatever this machine wrote before the restore (boot-time page-table
    // scribbles from its own construction) is superseded by the image.
    pages_.clear();
    invalidateCaches();
    ++generation_;
}

} // namespace kvmarm
