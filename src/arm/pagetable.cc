#include "arm/pagetable.hh"

#include "sim/logging.hh"

namespace kvmarm::arm {

const char *
faultTypeName(FaultType f)
{
    switch (f) {
      case FaultType::None: return "none";
      case FaultType::Translation: return "translation";
      case FaultType::AccessFlag: return "access-flag";
      case FaultType::Permission: return "permission";
      case FaultType::BadFormat: return "bad-format";
      case FaultType::Bus: return "bus";
    }
    return "?";
}

unsigned
ptIndex(Addr va, int level)
{
    switch (level) {
      case 1:
        return (va >> 30) & 0x3;
      case 2:
        return (va >> 21) & 0x1FF;
      case 3:
        return (va >> 12) & 0x1FF;
      default:
        panic("ptIndex: bad level %d", level);
    }
}

std::uint64_t
encodeLeaf(Addr pa, const Perms &p, PtFormat fmt)
{
    std::uint64_t d = desc::kValid | desc::kTable | (pa & desc::kAddrMask);
    switch (fmt) {
      case PtFormat::KernelLpae:
        d |= desc::kAf;
        if (p.user)
            d |= desc::kUserOrS2Read;
        if (!p.write)
            d |= desc::kRoOrS2Write;
        if (!p.exec)
            d |= desc::kXn;
        d |= (p.device ? 0ull : 1ull) << desc::kAttrShift;
        break;
      case PtFormat::HypLpae:
        // Hyp mode mandates AF set, no user bit, no nG (paper §2).
        if (p.user)
            panic("encodeLeaf: Hyp regime has no user mappings");
        d |= desc::kAf;
        if (!p.write)
            d |= desc::kRoOrS2Write;
        if (!p.exec)
            d |= desc::kXn;
        d |= (p.device ? 0ull : 1ull) << desc::kAttrShift;
        break;
      case PtFormat::Stage2:
        d |= desc::kAf;
        if (p.read)
            d |= desc::kUserOrS2Read;
        if (p.write)
            d |= desc::kRoOrS2Write;
        if (!p.exec)
            d |= desc::kXn;
        d |= (p.device ? 0ull : 0xFull) << desc::kAttrShift;
        break;
    }
    return d;
}

FaultType
decodeLeaf(std::uint64_t d, PtFormat fmt, Perms &out)
{
    std::uint64_t attr = (d & desc::kAttrMask) >> desc::kAttrShift;
    out = Perms{};
    out.exec = !(d & desc::kXn);
    out.device = attr == 0;

    switch (fmt) {
      case PtFormat::KernelLpae:
        if (!(d & desc::kAf))
            return FaultType::AccessFlag;
        out.user = d & desc::kUserOrS2Read;
        out.read = true;
        out.write = !(d & desc::kRoOrS2Write);
        break;
      case PtFormat::HypLpae:
        // The walker enforces the mandated bits: a descriptor built for
        // the kernel regime (user bit or nG set, or AF clear) is rejected.
        if (d & desc::kUserOrS2Read)
            return FaultType::BadFormat;
        if (d & desc::kNg)
            return FaultType::BadFormat;
        if (!(d & desc::kAf))
            return FaultType::BadFormat;
        out.user = false;
        out.read = true;
        out.write = !(d & desc::kRoOrS2Write);
        break;
      case PtFormat::Stage2:
        out.user = true;
        out.read = d & desc::kUserOrS2Read;
        out.write = d & desc::kRoOrS2Write;
        break;
    }
    return FaultType::None;
}

PageTableEditor::PageTableEditor(PtFormat fmt, Reader r, Writer w,
                                 PageAlloc alloc)
    : fmt_(fmt), read_(std::move(r)), write_(std::move(w)),
      alloc_(std::move(alloc))
{
}

Addr
PageTableEditor::newRoot()
{
    return alloc_();
}

Addr
PageTableEditor::ensureTable(Addr table, unsigned index)
{
    Addr entry_pa = table + index * 8;
    std::uint64_t d = read_(entry_pa);
    if (d & desc::kValid) {
        if (!(d & desc::kTable))
            fatal("PageTableEditor: page overlaps an existing 2M block");
        return d & desc::kAddrMask;
    }
    Addr next = alloc_();
    write_(entry_pa, desc::kValid | desc::kTable | (next & desc::kAddrMask));
    return next;
}

void
PageTableEditor::map(Addr root, Addr va, Addr pa, const Perms &p)
{
    if (!isPageAligned(va) || !isPageAligned(pa))
        fatal("PageTableEditor::map: unaligned va/pa");
    Addr l2 = ensureTable(root, ptIndex(va, 1));
    Addr l3 = ensureTable(l2, ptIndex(va, 2));
    write_(l3 + ptIndex(va, 3) * 8, encodeLeaf(pa, p, fmt_));
}

void
PageTableEditor::mapBlock2M(Addr root, Addr va, Addr pa, const Perms &p)
{
    if (va % kBlock2MSize || pa % kBlock2MSize)
        fatal("PageTableEditor::mapBlock2M: unaligned va/pa");
    Addr l2 = ensureTable(root, ptIndex(va, 1));
    std::uint64_t d = encodeLeaf(pa, p, fmt_);
    d &= ~desc::kTable; // block, not page
    write_(l2 + ptIndex(va, 2) * 8, d);
}

bool
PageTableEditor::unmap(Addr root, Addr va)
{
    std::uint64_t d1 = read_(root + ptIndex(va, 1) * 8);
    if (!(d1 & desc::kValid))
        return false;
    Addr l2 = d1 & desc::kAddrMask;
    std::uint64_t d2 = read_(l2 + ptIndex(va, 2) * 8);
    if (!(d2 & desc::kValid))
        return false;
    if (!(d2 & desc::kTable)) {
        // Unmapping inside a block: clear the whole block.
        write_(l2 + ptIndex(va, 2) * 8, 0);
        return true;
    }
    Addr l3 = d2 & desc::kAddrMask;
    Addr entry = l3 + ptIndex(va, 3) * 8;
    std::uint64_t d3 = read_(entry);
    if (!(d3 & desc::kValid))
        return false;
    write_(entry, 0);
    return true;
}

std::optional<Addr>
PageTableEditor::lookup(Addr root, Addr va) const
{
    WalkResult r = walkTable(root, va, fmt_,
                             [this](Addr pa) -> std::optional<std::uint64_t> {
                                 return read_(pa);
                             });
    if (!r.ok())
        return std::nullopt;
    return r.pa;
}

} // namespace kvmarm::arm
