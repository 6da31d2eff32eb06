#include "arm/gic.hh"

#include "arm/machine.hh"
#include "sim/logging.hh"

namespace kvmarm::arm {

namespace {

/** Default priority for unconfigured interrupts. */
constexpr std::uint8_t kDefaultPrio = 0xA0;

} // namespace

GicDistributor::GicDistributor(ArmMachine &machine, unsigned num_cpus)
    : machine_(machine), numCpus_(num_cpus), banks_(num_cpus),
      pendingCache_(num_cpus)
{
    priority_.fill(kDefaultPrio);
    targets_.fill(0x01); // SPIs target CPU0 until reconfigured
    for (Bank &b : banks_)
        b.priority.fill(kDefaultPrio);
}

Cycles
GicDistributor::accessLatency() const
{
    return machine_.cost().gicdLatency;
}

void
GicDistributor::touch()
{
    ++version_;
    machine_.needAttentionAll();
}

void
GicDistributor::raiseSpi(IrqId irq, Cycles when)
{
    if (irq < kFirstSpi || irq >= kMaxIrqs)
        panic("GicDistributor::raiseSpi: bad irq %u", irq);
    CpuId target = routeSpi(irq);
    std::uint64_t token = nextInflightToken_++;
    std::uint64_t ev = machine_.cpuBase(target).events().schedule(
        when, [this, irq, token] { spiDelivered(irq, token); });
    inflight_.push_back({token, ev, target, false, irq, 0});
}

void
GicDistributor::spiDelivered(IrqId irq, std::uint64_t token)
{
    dropInflight(token);
    pending_[irq] = true;
    touch();
}

void
GicDistributor::sgiDelivered(CpuId target, IrqId sgi, CpuId src,
                             std::uint64_t token)
{
    dropInflight(token);
    setSgiPending(target, sgi, src);
}

void
GicDistributor::dropInflight(std::uint64_t token)
{
    for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
        if (it->token == token) {
            inflight_.erase(it);
            return;
        }
    }
    panic("GicDistributor: delivery fired for unknown in-flight token %llu",
          static_cast<unsigned long long>(token));
}

CpuId
GicDistributor::routeSpi(IrqId irq) const
{
    std::uint8_t mask = targets_[irq];
    for (CpuId c = 0; c < numCpus_; ++c) {
        if (mask & (1u << c))
            return c;
    }
    return 0;
}

void
GicDistributor::raisePpi(CpuId cpu, IrqId irq)
{
    if (irq >= kFirstSpi)
        panic("GicDistributor::raisePpi: %u is not a PPI/SGI", irq);
    banks_.at(cpu).ppiPending[irq] = true;
    touch();
}

void
GicDistributor::setSgiPending(CpuId target, IrqId sgi, CpuId source)
{
    banks_.at(target).sgiSources[sgi] |= (1u << source);
    touch();
}

void
GicDistributor::writeSgir(CpuId src, std::uint32_t value)
{
    unsigned filter = bits(value, 25, 24);
    std::uint8_t target_list = static_cast<std::uint8_t>(bits(value, 23, 16));
    IrqId sgi = static_cast<IrqId>(bits(value, 3, 0));

    std::uint8_t mask = 0;
    switch (filter) {
      case 0:
        mask = target_list;
        break;
      case 1: // all but self
        mask = static_cast<std::uint8_t>(((1u << numCpus_) - 1) & ~(1u << src));
        break;
      case 2: // self
        mask = static_cast<std::uint8_t>(1u << src);
        break;
      default:
        return;
    }

    Cycles now = machine_.cpuBase(src).now();
    for (CpuId t = 0; t < numCpus_; ++t) {
        if (!(mask & (1u << t)))
            continue;
        if (t == src) {
            setSgiPending(t, sgi, src);
        } else {
            std::uint64_t token = nextInflightToken_++;
            std::uint64_t ev = machine_.cpuBase(t).events().schedule(
                now + machine_.cost().ipiWire,
                [this, t, sgi, src, token] {
                    sgiDelivered(t, sgi, src, token);
                });
            inflight_.push_back({token, ev, t, true, sgi, src});
        }
    }
}

PendingIrq
GicDistributor::bestPending(CpuId cpu) const
{
    PendingCache &cache = pendingCache_.at(cpu);
    if (cache.version == version_)
        return cache.best;

    PendingIrq best;
    if (!enabled()) {
        cache = {version_, best};
        return best;
    }

    const Bank &bank = banks_.at(cpu);

    auto consider = [&](IrqId irq, std::uint8_t prio, CpuId source) {
        if (prio < best.priority ||
            (prio == best.priority && irq < best.irq)) {
            best = {irq, prio, source};
        }
    };

    for (IrqId sgi = 0; sgi < kNumSgis; ++sgi) {
        std::uint16_t sources = bank.sgiSources[sgi];
        if (sources && bank.enabled[sgi]) {
            CpuId src = 0;
            while (!(sources & (1u << src)))
                ++src;
            consider(sgi, bank.priority[sgi], src);
        }
    }
    forEachPending(bank.ppiPending, kFirstPpi, [&](IrqId ppi) {
        if (bank.enabled[ppi])
            consider(ppi, bank.priority[ppi], 0);
    });
    forEachPending(pending_, kFirstSpi, [&](IrqId spi) {
        if (enabled_[spi] && (targets_[spi] & (1u << cpu)))
            consider(spi, priority_[spi], 0);
    });
    cache = {version_, best};
    return best;
}

void
GicDistributor::acknowledge(CpuId cpu, IrqId irq, CpuId source)
{
    Bank &bank = banks_.at(cpu);
    if (irq < kNumSgis)
        bank.sgiSources[irq] &= static_cast<std::uint16_t>(~(1u << source));
    else if (irq < kFirstSpi)
        bank.ppiPending[irq] = false;
    else if (irq < kMaxIrqs)
        pending_[irq] = false;
    touch();
}

std::uint64_t
GicDistributor::read(CpuId cpu, Addr offset, unsigned len)
{
    (void)len;
    Bank &bank = banks_.at(cpu);
    if (offset == gicd::CTLR)
        return ctlr_;
    if (offset == gicd::TYPER)
        return ((numCpus_ - 1) << 5) | (kMaxIrqs / 32 - 1);
    if (offset >= gicd::ISENABLER && offset < gicd::ISENABLER + 0x80) {
        unsigned word = (offset - gicd::ISENABLER) / 4;
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 32; ++i) {
            IrqId irq = word * 32 + i;
            if (irq >= kMaxIrqs)
                break;
            bool en = irq < kFirstSpi ? bank.enabled[irq] : enabled_[irq];
            v |= en ? (1u << i) : 0;
        }
        return v;
    }
    if (offset >= gicd::IPRIORITYR && offset < gicd::IPRIORITYR + kMaxIrqs) {
        IrqId irq = static_cast<IrqId>(offset - gicd::IPRIORITYR);
        return irq < kFirstSpi ? bank.priority[irq] : priority_[irq];
    }
    if (offset >= gicd::ITARGETSR && offset < gicd::ITARGETSR + kMaxIrqs) {
        IrqId irq = static_cast<IrqId>(offset - gicd::ITARGETSR);
        return irq < kFirstSpi ? (1u << cpu) : targets_[irq];
    }
    if (offset >= gicd::ISPENDR && offset < gicd::ISPENDR + 0x80) {
        unsigned word = (offset - gicd::ISPENDR) / 4;
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 32; ++i) {
            IrqId irq = word * 32 + i;
            if (irq >= kMaxIrqs)
                break;
            bool p;
            if (irq < kNumSgis)
                p = bank.sgiSources[irq] != 0;
            else if (irq < kFirstSpi)
                p = bank.ppiPending[irq];
            else
                p = pending_[irq];
            v |= p ? (1u << i) : 0;
        }
        return v;
    }
    return 0;
}

void
GicDistributor::write(CpuId cpu, Addr offset, std::uint64_t value,
                      unsigned len)
{
    (void)len;
    touch(); // every register write may change what is pending for whom
    Bank &bank = banks_.at(cpu);
    std::uint32_t v = static_cast<std::uint32_t>(value);
    if (offset == gicd::CTLR) {
        ctlr_ = v;
        return;
    }
    if (offset == gicd::SGIR) {
        writeSgir(cpu, v);
        return;
    }
    if (offset >= gicd::ISENABLER && offset < gicd::ISENABLER + 0x80) {
        unsigned word = (offset - gicd::ISENABLER) / 4;
        for (unsigned i = 0; i < 32; ++i) {
            IrqId irq = word * 32 + i;
            if (irq >= kMaxIrqs || !(v & (1u << i)))
                continue;
            if (irq < kFirstSpi)
                bank.enabled[irq] = true;
            else
                enabled_[irq] = true;
        }
        return;
    }
    if (offset >= gicd::ICENABLER && offset < gicd::ICENABLER + 0x80) {
        unsigned word = (offset - gicd::ICENABLER) / 4;
        for (unsigned i = 0; i < 32; ++i) {
            IrqId irq = word * 32 + i;
            if (irq >= kMaxIrqs || !(v & (1u << i)))
                continue;
            if (irq < kFirstSpi)
                bank.enabled[irq] = false;
            else
                enabled_[irq] = false;
        }
        return;
    }
    if (offset >= gicd::ICPENDR && offset < gicd::ICPENDR + 0x80) {
        unsigned word = (offset - gicd::ICPENDR) / 4;
        for (unsigned i = 0; i < 32; ++i) {
            IrqId irq = word * 32 + i;
            if (irq >= kMaxIrqs || !(v & (1u << i)))
                continue;
            if (irq < kNumSgis)
                bank.sgiSources[irq] = 0;
            else if (irq < kFirstSpi)
                bank.ppiPending[irq] = false;
            else
                pending_[irq] = false;
        }
        return;
    }
    if (offset >= gicd::IPRIORITYR && offset < gicd::IPRIORITYR + kMaxIrqs) {
        IrqId irq = static_cast<IrqId>(offset - gicd::IPRIORITYR);
        std::uint8_t prio = static_cast<std::uint8_t>(v);
        if (irq < kFirstSpi)
            bank.priority[irq] = prio;
        else
            priority_[irq] = prio;
        return;
    }
    if (offset >= gicd::ITARGETSR && offset < gicd::ITARGETSR + kMaxIrqs) {
        IrqId irq = static_cast<IrqId>(offset - gicd::ITARGETSR);
        if (irq >= kFirstSpi)
            targets_[irq] = static_cast<std::uint8_t>(v);
        return;
    }
    // ICFGR and other writes accepted and ignored (edge/level config is
    // not modelled; sources behave as edge-triggered once pending).
}

void
GicDistributor::saveState(SnapshotWriter &w)
{
    w.u32(ctlr_);
    w.pod(enabled_);
    w.pod(pending_);
    w.pod(priority_);
    w.pod(targets_);
    w.u32(static_cast<std::uint32_t>(banks_.size()));
    for (const Bank &b : banks_)
        w.pod(b);
    w.u32(static_cast<std::uint32_t>(inflight_.size()));
    for (const Inflight &f : inflight_)
        w.pod(f);
    w.u64(nextInflightToken_);
}

void
GicDistributor::restoreState(SnapshotReader &r)
{
    ctlr_ = r.u32();
    r.pod(enabled_);
    r.pod(pending_);
    r.pod(priority_);
    r.pod(targets_);
    std::uint32_t nbanks = r.u32();
    if (nbanks != banks_.size())
        fatal("gicd: snapshot has %u banks, machine has %zu", nbanks,
              banks_.size());
    for (Bank &b : banks_)
        r.pod(b);
    inflight_.clear();
    std::uint32_t nflight = r.u32();
    for (std::uint32_t i = 0; i < nflight; ++i) {
        Inflight f;
        r.pod(f);
        inflight_.push_back(f);
    }
    nextInflightToken_ = r.u64();
    touch(); // drop any memoized bestPending from before the restore
}

void
GicDistributor::snapshotRebind()
{
    // The in-flight deliveries' events were recreated (callback-less) by
    // their target CPUs' queue restores; give each one back the exact
    // callback raiseSpi/writeSgir installed originally.
    for (const Inflight &f : inflight_) {
        auto &q = machine_.cpuBase(f.target).events();
        if (f.isSgi) {
            q.claim(f.eventId,
                    [this, t = f.target, sgi = f.irq, src = f.src,
                     token = f.token] { sgiDelivered(t, sgi, src, token); });
        } else {
            q.claim(f.eventId, [this, irq = f.irq, token = f.token] {
                spiDelivered(irq, token);
            });
        }
    }
}

GicCpuInterface::GicCpuInterface(ArmMachine &machine, GicDistributor &dist,
                                 unsigned num_cpus)
    : machine_(machine), dist_(dist), banks_(num_cpus)
{
}

void
GicCpuInterface::saveState(SnapshotWriter &w)
{
    w.u32(static_cast<std::uint32_t>(banks_.size()));
    for (const Bank &b : banks_) {
        w.b(b.enabled);
        w.u8(b.pmr);
        w.u32(static_cast<std::uint32_t>(b.activeStack.size()));
        for (const PendingIrq &p : b.activeStack)
            w.pod(p);
    }
}

void
GicCpuInterface::restoreState(SnapshotReader &r)
{
    std::uint32_t nbanks = r.u32();
    if (nbanks != banks_.size())
        fatal("gicc: snapshot has %u banks, machine has %zu", nbanks,
              banks_.size());
    for (Bank &b : banks_) {
        b.enabled = r.b();
        b.pmr = r.u8();
        b.activeStack.clear();
        std::uint32_t n = r.u32();
        for (std::uint32_t i = 0; i < n; ++i) {
            PendingIrq p;
            r.pod(p);
            b.activeStack.push_back(p);
        }
    }
    machine_.needAttentionAll();
}

Cycles
GicCpuInterface::accessLatency() const
{
    return machine_.cost().giccLatency;
}

std::uint8_t
GicCpuInterface::runningPriority(const Bank &b) const
{
    return b.activeStack.empty() ? 0xFF : b.activeStack.back().priority;
}

bool
GicCpuInterface::irqLineHigh(CpuId cpu) const
{
    const Bank &b = banks_.at(cpu);
    if (!b.enabled || !dist_.enabled())
        return false;
    PendingIrq best = dist_.bestPending(cpu);
    return best.irq != kSpuriousIrq && best.priority < b.pmr &&
           best.priority < runningPriority(b);
}

IrqId
GicCpuInterface::acknowledgeIrq(CpuId cpu)
{
    Bank &b = banks_.at(cpu);
    PendingIrq best = dist_.bestPending(cpu);
    if (best.irq == kSpuriousIrq || best.priority >= b.pmr ||
        best.priority >= runningPriority(b)) {
        return kSpuriousIrq;
    }
    dist_.acknowledge(cpu, best.irq, best.source);
    b.activeStack.push_back(best);
    machine_.needAttentionAll();
    // IAR encodes the source CPU of an SGI in bits [12:10].
    return best.irq | (best.irq < kNumSgis ? (best.source << 10) : 0);
}

void
GicCpuInterface::endOfInterrupt(CpuId cpu, std::uint32_t value)
{
    Bank &b = banks_.at(cpu);
    IrqId irq = value & 0x3FF;
    for (auto it = b.activeStack.rbegin(); it != b.activeStack.rend(); ++it) {
        if (it->irq == irq) {
            b.activeStack.erase(std::next(it).base());
            machine_.needAttentionAll();
            return;
        }
    }
    warn("gicc: EOI for inactive irq %u on cpu%u", irq, cpu);
}

std::uint64_t
GicCpuInterface::read(CpuId cpu, Addr offset, unsigned len)
{
    (void)len;
    Bank &b = banks_.at(cpu);
    switch (offset) {
      case gicc::CTLR:
        return b.enabled ? 1 : 0;
      case gicc::PMR:
        return b.pmr;
      case gicc::IAR:
        return acknowledgeIrq(cpu);
      case gicc::RPR:
        return runningPriority(b);
      case gicc::HPPIR:
        return dist_.bestPending(cpu).irq;
      default:
        return 0;
    }
}

void
GicCpuInterface::write(CpuId cpu, Addr offset, std::uint64_t value,
                       unsigned len)
{
    (void)len;
    Bank &b = banks_.at(cpu);
    machine_.needAttentionAll();
    switch (offset) {
      case gicc::CTLR:
        b.enabled = value & 1;
        break;
      case gicc::PMR:
        b.pmr = static_cast<std::uint8_t>(value);
        break;
      case gicc::EOIR:
        endOfInterrupt(cpu, static_cast<std::uint32_t>(value));
        break;
      default:
        break;
    }
}

} // namespace kvmarm::arm
