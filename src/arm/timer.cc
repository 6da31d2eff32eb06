#include "arm/timer.hh"

#include <utility>

#include "arm/cpu.hh"
#include "arm/gic.hh"
#include "arm/machine.hh"
#include "sim/logging.hh"

namespace kvmarm::arm {

GenericTimer::GenericTimer(ArmMachine &machine, unsigned num_cpus)
    : machine_(machine), banks_(num_cpus)
{
}

std::uint64_t
GenericTimer::physCount(CpuId cpu) const
{
    // The counter ticks at CPU frequency in this model (CNTFRQ == clk).
    return machine_.cpuBase(cpu).now();
}

std::uint64_t
GenericTimer::virtCount(CpuId cpu) const
{
    return physCount(cpu) - std::as_const(machine_.cpu(cpu)).hyp().cntvoff;
}

void
GenericTimer::setPhys(CpuId cpu, const TimerRegs &regs)
{
    banks_.at(cpu).phys = regs;
    armOne(cpu, false);
}

void
GenericTimer::setVirt(CpuId cpu, const TimerRegs &regs)
{
    banks_.at(cpu).virt = regs;
    armOne(cpu, true);
}

bool
GenericTimer::physIstatus(CpuId cpu) const
{
    const Bank &b = banks_.at(cpu);
    return b.phys.enable && physCount(cpu) >= b.phys.cval;
}

bool
GenericTimer::virtIstatus(CpuId cpu) const
{
    const Bank &b = banks_.at(cpu);
    return b.virt.enable && virtCount(cpu) >= b.virt.cval;
}

void
GenericTimer::reprogram(CpuId cpu)
{
    armOne(cpu, false);
    armOne(cpu, true);
}

void
GenericTimer::armOne(CpuId cpu, bool virt_timer)
{
    Bank &b = banks_.at(cpu);
    TimerRegs &t = virt_timer ? b.virt : b.phys;
    std::uint64_t &event = virt_timer ? b.virtEvent : b.physEvent;
    auto &q = machine_.cpuBase(cpu).events();

    if (event) {
        q.cancel(event);
        event = 0;
    }
    if (!t.enable || t.imask)
        return;

    // Absolute cycle at which the compare fires: the physical counter is
    // the CPU clock; the virtual timer's deadline is shifted by CNTVOFF.
    std::uint64_t offset =
        virt_timer ? std::as_const(machine_.cpu(cpu)).hyp().cntvoff : 0;
    Cycles deadline = t.cval + offset;
    Cycles now = machine_.cpuBase(cpu).now();
    if (deadline < now)
        deadline = now;

    event = q.schedule(deadline, [this, cpu, virt_timer] {
        fire(cpu, virt_timer);
    });
}

void
GenericTimer::saveState(SnapshotWriter &w)
{
    w.u32(static_cast<std::uint32_t>(banks_.size()));
    for (const Bank &b : banks_)
        w.pod(b);
}

void
GenericTimer::restoreState(SnapshotReader &r)
{
    std::uint32_t nbanks = r.u32();
    if (nbanks != banks_.size())
        fatal("timer: snapshot has %u banks, machine has %zu", nbanks,
              banks_.size());
    for (Bank &b : banks_)
        r.pod(b);
}

void
GenericTimer::snapshotRebind()
{
    for (CpuId cpu = 0; cpu < banks_.size(); ++cpu) {
        const Bank &b = banks_[cpu];
        auto &q = machine_.cpuBase(cpu).events();
        if (b.physEvent)
            q.claim(b.physEvent, [this, cpu] { fire(cpu, false); });
        if (b.virtEvent)
            q.claim(b.virtEvent, [this, cpu] { fire(cpu, true); });
    }
}

void
GenericTimer::fire(CpuId cpu, bool virt_timer)
{
    Bank &b = banks_.at(cpu);
    std::uint64_t &event = virt_timer ? b.virtEvent : b.physEvent;
    event = 0;
    bool status = virt_timer ? virtIstatus(cpu) : physIstatus(cpu);
    const TimerRegs &t = virt_timer ? b.virt : b.phys;
    if (status && !t.imask) {
        machine_.gicd().raisePpi(cpu,
                                 virt_timer ? kVirtTimerPpi : kPhysTimerPpi);
    }
}

} // namespace kvmarm::arm
