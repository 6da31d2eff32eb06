#include "host/mm.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace kvmarm::host {

Mm::Mm(PhysMem &ram, check::InvariantEngine *check_engine)
    : ram_(ram),
      checkEngine_(check_engine),
      fresh_(ram.base() + ram.size() / kPageSize * kPageSize)
{
}

Addr
Mm::allocPage()
{
    Addr pa;
    if (!recycled_.empty()) {
        pa = recycled_.back();
        recycled_.pop_back();
    } else if (fresh_ > ram_.base()) {
        fresh_ -= kPageSize;
        pa = fresh_;
    } else {
        fatal("host::Mm: out of memory (%zu pages in use)", usedPages());
    }
    ram_.zeroPage(pa);
    refcounts_[pa] = 1;
    return pa;
}

void
Mm::getPage(Addr pa)
{
    auto it = refcounts_.find(pageAlignDown(pa));
    if (it == refcounts_.end())
        panic("host::Mm::getPage on free page %#llx", static_cast<unsigned long long>(pa));
    ++it->second;
}

void
Mm::putPage(Addr pa)
{
    pa = pageAlignDown(pa);
    auto it = refcounts_.find(pa);
    if (it == refcounts_.end())
        panic("host::Mm::putPage on free page %#llx", static_cast<unsigned long long>(pa));
    if (--it->second == 0) {
        refcounts_.erase(it);
        recycled_.push_back(pa);
    }
}

unsigned
Mm::refcount(Addr pa) const
{
    auto it = refcounts_.find(pageAlignDown(pa));
    return it == refcounts_.end() ? 0 : it->second;
}

Addr
Mm::getUserPages()
{
    return allocPage();
}

void
Mm::saveState(SnapshotWriter &w)
{
    w.u64(fresh_);
    w.u64(recycled_.size());
    for (Addr pa : recycled_)
        w.u64(pa);
    std::vector<std::pair<Addr, unsigned>> rcs;
    rcs.reserve(refcounts_.size());
    // domlint: allow(unordered-iter) — snapshot is sorted below before any order-dependent use
    for (const auto &[pa, rc] : refcounts_)
        rcs.emplace_back(pa, rc);
    std::sort(rcs.begin(), rcs.end());
    w.u64(rcs.size());
    for (const auto &[pa, rc] : rcs) {
        w.u64(pa);
        w.u32(rc);
    }
}

void
Mm::restoreState(SnapshotReader &r)
{
    fresh_ = r.u64();
    recycled_.resize(r.u64());
    for (Addr &pa : recycled_)
        pa = r.u64();
    refcounts_.clear();
    std::uint64_t nrc = r.u64();
    for (std::uint64_t i = 0; i < nrc; ++i) {
        Addr pa = r.u64();
        refcounts_[pa] = r.u32();
    }
}

} // namespace kvmarm::host
