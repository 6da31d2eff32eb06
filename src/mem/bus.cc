#include "mem/bus.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace kvmarm {

void
Bus::addDevice(Addr base, Addr size, MmioDevice *dev)
{
    if (size == 0 || base + size < base)
        fatal("Bus: bad region for %s", dev->name().c_str());
    if (base < ram_.base() + ram_.size() && base + size > ram_.base())
        fatal("Bus: region for %s overlaps RAM", dev->name().c_str());
    for (const Region &r : regions_) {
        if (base < r.base + r.size && base + size > r.base) {
            fatal("Bus: region for %s overlaps %s", dev->name().c_str(),
                  r.dev->name().c_str());
        }
    }
    auto pos = std::upper_bound(
        regions_.begin(), regions_.end(), base,
        [](Addr b, const Region &r) { return b < r.base; });
    regions_.insert(pos, {base, size, dev});
    lastRegion_.clear(); // insertion moved the Region objects
    ram_.bumpGeneration(); // CPUs drop the host targets they resolved
}

const Bus::Region *
Bus::regionAt(Addr pa) const
{
    // regions_ is sorted by base and non-overlapping: the only candidate is
    // the last region starting at or below pa.
    auto it = std::upper_bound(
        regions_.begin(), regions_.end(), pa,
        [](Addr a, const Region &r) { return a < r.base; });
    if (it == regions_.begin())
        return nullptr;
    --it;
    return pa - it->base < it->size ? &*it : nullptr;
}

const Bus::Region *
Bus::regionFor(CpuId cpu, Addr pa) const
{
    if (cpu < lastRegion_.size()) {
        const Region *r = lastRegion_[cpu];
        if (r && pa >= r->base && pa - r->base < r->size)
            return r;
    }
    const Region *r = regionAt(pa);
    if (r) {
        if (cpu >= lastRegion_.size())
            lastRegion_.resize(cpu + 1, nullptr);
        lastRegion_[cpu] = r;
    }
    return r;
}

MmioDevice *
Bus::deviceAt(Addr pa) const
{
    const Region *r = regionAt(pa);
    return r ? r->dev : nullptr;
}

std::optional<Addr>
Bus::regionBase(const MmioDevice *dev) const
{
    for (const Region &r : regions_) {
        if (r.dev == dev)
            return r.base;
    }
    return std::nullopt;
}

HostTarget
Bus::target(Addr frame)
{
    HostTarget t;
    if (ram_.contains(frame, kPageSize)) {
        t.read = ram_.pageBytes(frame);
        t.write = ram_.privatePageBytes(frame);
    } else if (const Region *r = regionAt(frame);
               r && frame + kPageSize - r->base <= r->size) {
        t.dev = r->dev;
        t.devOffset = frame - r->base;
    }
    return t;
}

BusAccess
Bus::read(CpuId cpu, Addr pa, unsigned len)
{
    if (std::optional<std::uint64_t> v = ram_.tryRead(pa, len))
        return {*v, kRamLatency, true};
    if (const Region *r = regionFor(cpu, pa)) {
        std::uint64_t v = r->dev->read(cpu, pa - r->base, len);
        return {v, r->dev->accessLatency(), true};
    }
    return {0, 0, false};
}

BusAccess
Bus::write(CpuId cpu, Addr pa, std::uint64_t value, unsigned len)
{
    if (ram_.tryWrite(pa, value, len))
        return {0, kRamLatency, true};
    if (const Region *r = regionFor(cpu, pa)) {
        r->dev->write(cpu, pa - r->base, value, len);
        return {0, r->dev->accessLatency(), true};
    }
    return {0, 0, false};
}

} // namespace kvmarm
