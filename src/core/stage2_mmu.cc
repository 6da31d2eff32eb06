#include "core/stage2_mmu.hh"

#include <algorithm>
#include <utility>

#include "check/invariants.hh"
#include "sim/logging.hh"

namespace kvmarm::core {

using arm::Perms;

Stage2Mmu::Stage2Mmu(host::Mm &mm, std::uint16_t vmid, Addr ipa_ram_base,
                     Addr ipa_ram_size)
    : mm_(mm), vmid_(vmid), ipaRamBase_(ipa_ram_base),
      ipaRamSize_(ipa_ram_size),
      editor_(arm::PtFormat::Stage2,
              [this](Addr pa) { return mm_.ram().read(pa, 8); },
              [this](Addr pa, std::uint64_t v) { mm_.ram().write(pa, v, 8); },
              [this] {
                  Addr pa = mm_.allocPage();
                  tablePages_.push_back(pa);
                  KVMARM_CHECK_ON(mm_.checkEngine(),
                                  protectPage(&mm_, pa, "stage2-table"));
                  return pa;
              })
{
    root_ = editor_.newRoot();
}

Stage2Mmu::~Stage2Mmu()
{
    releaseAll();
}

std::uint64_t
Stage2Mmu::vttbr() const
{
    return root_ | (std::uint64_t(vmid_ & 0xFF) << 48);
}

bool
Stage2Mmu::isGuestRam(Addr ipa) const
{
    return ipa >= ipaRamBase_ && ipa < ipaRamBase_ + ipaRamSize_;
}

bool
Stage2Mmu::handleRamFault(Addr ipa)
{
    if (!isGuestRam(ipa))
        return false;
    Addr page_ipa = pageAlignDown(ipa);
    if (ramPages_.count(page_ipa)) {
        // Already mapped: a racing VCPU resolved it; nothing to do.
        return true;
    }
    Addr pa = mm_.getUserPages();
    Perms p;
    p.user = true;
    editor_.map(root_, page_ipa, pa, p);
    ramPages_[page_ipa] = pa;
    KVMARM_CHECK_ON(mm_.checkEngine(),
                    stage2Map(&mm_, vmid_, page_ipa, pa, false));
    return true;
}

void
Stage2Mmu::mapDevicePage(Addr ipa, Addr pa)
{
    Perms p;
    p.user = true;
    p.exec = false;
    p.device = true;
    editor_.map(root_, pageAlignDown(ipa), pageAlignDown(pa), p);
    KVMARM_CHECK_ON(mm_.checkEngine(),
                    stage2Map(&mm_, vmid_, pageAlignDown(ipa),
                              pageAlignDown(pa), true));
}

bool
Stage2Mmu::unmapPage(Addr ipa)
{
    Addr page_ipa = pageAlignDown(ipa);
    auto it = ramPages_.find(page_ipa);
    if (it == ramPages_.end())
        return false;
    editor_.unmap(root_, page_ipa);
    KVMARM_CHECK_ON(mm_.checkEngine(),
                    stage2Unmap(&mm_, vmid_, page_ipa, it->second));
    mm_.putPage(it->second);
    ramPages_.erase(it);
    return true;
}

std::optional<Addr>
Stage2Mmu::ipaToPa(Addr ipa) const
{
    auto it = ramPages_.find(pageAlignDown(ipa));
    if (it == ramPages_.end())
        return std::nullopt;
    return it->second | (ipa & (kPageSize - 1));
}

std::string
Stage2Mmu::snapshotKey() const
{
    return "stage2-" + std::to_string(vmid_);
}

void
Stage2Mmu::saveState(SnapshotWriter &w)
{
    w.u64(ipaRamBase_);
    w.u64(ipaRamSize_);
    w.u64(root_);
    w.u64(tablePages_.size());
    for (Addr pa : tablePages_)
        w.u64(pa);
    std::vector<std::pair<Addr, Addr>> pages(
        // domlint: allow(unordered-iter) — snapshot is sorted below before any order-dependent use
        ramPages_.begin(), ramPages_.end());
    std::sort(pages.begin(), pages.end());
    w.u64(pages.size());
    for (const auto &[ipa, pa] : pages) {
        w.u64(ipa);
        w.u64(pa);
    }
}

void
Stage2Mmu::restoreState(SnapshotReader &r)
{
    if (r.u64() != ipaRamBase_ || r.u64() != ipaRamSize_)
        fatal("stage2 vmid=%u: snapshot RAM geometry differs from this "
              "VM's", vmid_);

    // Retract this instance's current state from the invariant engine, in
    // sorted order (same rationale as releaseAll), then declare the
    // restored state: protect the table pages before mapping through
    // them, mirroring the live build order. No Mm refcount traffic: Mm's
    // own restore carries the allocator state.
    std::vector<std::pair<Addr, Addr>> current(
        // domlint: allow(unordered-iter) — snapshot is sorted below before any order-dependent use
        ramPages_.begin(), ramPages_.end());
    std::sort(current.begin(), current.end());
    for ([[maybe_unused]] const auto &[ipa, pa] : current)
        KVMARM_CHECK_ON(mm_.checkEngine(),
                        stage2Unmap(&mm_, vmid_, ipa, pa));
    ramPages_.clear();
    for ([[maybe_unused]] Addr pa : tablePages_)
        KVMARM_CHECK_ON(mm_.checkEngine(), unprotectPage(&mm_, pa));
    tablePages_.clear();

    root_ = r.u64();
    std::uint64_t ntables = r.u64();
    tablePages_.reserve(ntables);
    for (std::uint64_t i = 0; i < ntables; ++i) {
        Addr pa = r.u64();
        tablePages_.push_back(pa);
        KVMARM_CHECK_ON(mm_.checkEngine(),
                        protectPage(&mm_, pa, "stage2-table"));
    }
    std::uint64_t nram = r.u64();
    for (std::uint64_t i = 0; i < nram; ++i) {
        Addr ipa = r.u64();
        Addr pa = r.u64();
        ramPages_[ipa] = pa;
        KVMARM_CHECK_ON(mm_.checkEngine(),
                        stage2Map(&mm_, vmid_, ipa, pa, false));
    }
}

void
Stage2Mmu::releaseAll()
{
    // Release in sorted IPA order, not hash-bucket order: putPage()
    // rebuilds the free list in release order, so bucket-order teardown
    // would make every post-teardown allocation address depend on the
    // hash map's internal layout.
    std::vector<std::pair<Addr, Addr>> pages(
        // domlint: allow(unordered-iter) — snapshot is sorted below before any order-dependent use
        ramPages_.begin(), ramPages_.end());
    std::sort(pages.begin(), pages.end());
    for (auto &[ipa, pa] : pages) {
        KVMARM_CHECK_ON(mm_.checkEngine(),
                        stage2Unmap(&mm_, vmid_, ipa, pa));
        mm_.putPage(pa);
    }
    ramPages_.clear();
    for (Addr pa : tablePages_) {
        KVMARM_CHECK_ON(mm_.checkEngine(), unprotectPage(&mm_, pa));
        mm_.putPage(pa);
    }
    tablePages_.clear();
    root_ = 0;
}

} // namespace kvmarm::core
