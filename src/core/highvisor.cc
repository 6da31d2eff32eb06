#include "core/highvisor.hh"

#include "arm/cpu.hh"
#include "arm/machine.hh"
#include "core/kvm.hh"
#include "sim/logging.hh"

namespace kvmarm::core {

using arm::ArmCpu;
using arm::ArmMachine;
using arm::ExcClass;
using arm::Hsr;
using arm::SensitiveOp;

Highvisor::Highvisor(Kvm &kvm) : kvm_(kvm)
{
}

void
Highvisor::handleExit(ArmCpu &cpu, VCpu &vcpu, const Hsr &hsr)
{
    cpu.compute(kvm_.config().exitDispatchCost);

    switch (hsr.ec) {
      case ExcClass::DataAbort:
      case ExcClass::PrefetchAbort:
        handleDataAbort(cpu, vcpu, hsr);
        return;
      case ExcClass::Wfi:
        handleWfi(cpu, vcpu);
        return;
      case ExcClass::Cp15Trap:
      case ExcClass::Cp14Trap:
        handleSysTrap(cpu, vcpu, hsr);
        return;
      case ExcClass::TimerTrap:
        kvm_.vtimer().emulateTrappedAccess(
            cpu, vcpu, static_cast<arm::TimerAccess>(hsr.iss), hsr.sysValue,
            hsr.sysValue64);
        return;
      case ExcClass::Hvc:
        handleHvc(cpu, vcpu, hsr);
        return;
      case ExcClass::Smc:
        // Emulated as an architecturally-undefined no-op: KVM/ARM traps
        // SMC so a guest cannot reach the secure monitor (Table 1).
        vcpu.stats.counter("emul.smc").inc();
        return;
      case ExcClass::Irq:
        // The host kernel serviced the physical interrupt the moment the
        // world switch re-enabled interrupts; nothing further to do.
        return;
      default:
        panic("highvisor: unexpected exit class %s",
              arm::excClassName(hsr.ec));
    }
}

void
Highvisor::handleDataAbort(ArmCpu &cpu, VCpu &vcpu, const Hsr &hsr)
{
    Addr ipa = hsr.hpfar | (hsr.hdfar & (kPageSize - 1));

    if (vcpu.vm().stage2().isGuestRam(ipa)) {
        // Stage-2 page fault on normal memory: allocate through the host
        // kernel (get_user_pages) and map it — paper §3.3.
        vcpu.hotStats.faultStage2.inc(vcpu.stats, "fault.stage2");
        cpu.compute(host::Mm::kGetUserPagesCost);
        vcpu.vm().stage2().handleRamFault(ipa);
        return;
    }

    handleMmio(cpu, vcpu, ipa, hsr);
}

void
Highvisor::handleMmio(ArmCpu &cpu, VCpu &vcpu, Addr ipa, const Hsr &hsr)
{
    const KvmConfig &cfg = kvm_.config();
    cpu.compute(cfg.mmioFaultCost);
    KVMARM_TRACE(Debug, "cpu%u: MMIO %s at ipa %#llx", cpu.id(),
                 hsr.isWrite ? "write" : "read",
                 static_cast<unsigned long long>(ipa));

    if (!hsr.isv) {
        // The instruction did not populate the syndrome register; load
        // and decode it in software (the out-of-tree decoder, paper §4).
        if (!cfg.mmioDecodeFallback) {
            panic("highvisor: MMIO at %#llx without syndrome and decode "
                  "support disabled", static_cast<unsigned long long>(ipa));
        }
        vcpu.hotStats.mmioDecoded.inc(vcpu.stats, "mmio.decoded");
        cpu.compute(cfg.mmioDecodeCost);
    }

    VgicDistEmul &vdist = vcpu.vm().vdist();

    // The virtual distributor: in-kernel when the VGIC is in use,
    // emulated in user space (QEMU's GIC model) otherwise.
    if (ipa >= ArmMachine::kGicdBase &&
        ipa < ArmMachine::kGicdBase + ArmMachine::kGicRegionSize) {
        Addr off = ipa - ArmMachine::kGicdBase;
        std::uint64_t result = 0;
        if (cfg.useVgic) {
            vcpu.hotStats.mmioVdist.inc(vcpu.stats, "mmio.vdist");
            result = vdist.handleMmio(cpu, vcpu, off, hsr.isWrite,
                                      hsr.sysValue, hsr.accessLen);
        } else {
            vcpu.stats.counter("mmio.user.gicd").inc();
            kvm_.host().runInUserspace(cpu, [&] {
                cpu.compute(cfg.qemuGicCost); // QEMU GIC device model
                result = vdist.handleMmio(cpu, vcpu, off, hsr.isWrite,
                                          hsr.sysValue, hsr.accessLen);
            });
        }
        cpu.completeMmio(result);
        return;
    }

    // The CPU interface only faults when there is no VGIC (otherwise
    // Stage-2 maps it straight onto the hardware GICV); ACK and EOI are
    // then emulated in user space — the dominant cost of the paper's
    // no-VGIC configuration.
    if (ipa >= ArmMachine::kGiccBase &&
        ipa < ArmMachine::kGiccBase + ArmMachine::kGicRegionSize) {
        Addr off = ipa - ArmMachine::kGiccBase;
        std::uint64_t result = 0;
        vcpu.stats.counter("mmio.user.gicc").inc();
        kvm_.host().runInUserspace(cpu, [&] {
            cpu.compute(cfg.qemuGicCost); // QEMU GIC device model
            if (!hsr.isWrite && off == arm::gicc::IAR)
                result = vdist.softAck(vcpu);
            else if (hsr.isWrite && off == arm::gicc::EOIR)
                vdist.softEoi(vcpu, static_cast<std::uint32_t>(hsr.sysValue));
            else if (!hsr.isWrite && off == arm::gicc::CTLR)
                result = 1;
            // CTLR/PMR writes accepted.
        });
        cpu.completeMmio(result);
        return;
    }

    // In-kernel emulated devices (KVM_CREATE_DEVICE-shaped).
    Addr dev_off = 0;
    if (auto *handler = vcpu.vm().kernelDeviceAt(ipa, dev_off)) {
        vcpu.hotStats.mmioKernel.inc(vcpu.stats, "mmio.kernel");
        std::uint64_t result =
            (*handler)(hsr.isWrite, dev_off, hsr.sysValue, hsr.accessLen);
        cpu.completeMmio(result);
        return;
    }

    // Everything else exits to user space (QEMU), paper §3.4.
    vcpu.hotStats.mmioUser.inc(vcpu.stats, "mmio.user");
    MmioExit exit;
    exit.ipa = ipa;
    exit.isWrite = hsr.isWrite;
    exit.len = hsr.accessLen;
    exit.data = hsr.sysValue;
    auto &handler = vcpu.vm().userMmioHandler();
    if (!handler) {
        warn("highvisor: MMIO exit at %#llx with no user-space emulator",
             static_cast<unsigned long long>(ipa));
        cpu.completeMmio(0);
        return;
    }
    kvm_.host().runInUserspace(cpu,
                               [&] { handler(cpu, vcpu, exit); });
    if (!exit.handled)
        warn("qemu: unhandled MMIO %s at %#llx",
             exit.isWrite ? "write" : "read", static_cast<unsigned long long>(ipa));
    cpu.completeMmio(exit.data);
}

void
Highvisor::handleWfi(ArmCpu &cpu, VCpu &vcpu)
{
    // Block the VCPU thread on the host scheduler until a virtual
    // interrupt is deliverable (paper §3.2: WFI "should only be performed
    // by the hypervisor to maintain control of the hardware").
    vcpu.hotStats.emulWfi.inc(vcpu.stats, "emul.wfi");
    vcpu.blocked = true;
    VgicDistEmul &vdist = vcpu.vm().vdist();
    kvm_.host().blockUntil(cpu, [&] {
        return vcpu.kicked || vcpu.stopRequested || vcpu.softVirqPending ||
               vdist.hasPendingFor(vcpu);
    });
    vcpu.blocked = false;
    vcpu.kicked = false;
}

void
Highvisor::handleSysTrap(ArmCpu &cpu, VCpu &vcpu, const Hsr &hsr)
{
    auto op = static_cast<SensitiveOp>(hsr.iss);
    vcpu.hotStats.emulSysreg.inc(vcpu.stats, "emul.sysreg");
    switch (op) {
      case SensitiveOp::ActlrRead:
        cpu.setTrappedReadValue(vcpu.shadowActlr);
        return;
      case SensitiveOp::ActlrWrite:
        // The shadow ACTLR is read-only to guests; writes are ignored.
        return;
      case SensitiveOp::CacheSetWay:
        // Emulated by cleaning the affected guest pages; modelled as its
        // processing cost.
        cpu.compute(900);
        return;
      case SensitiveOp::L2ctlrRead: {
        // Report the VM's core count, not the host's.
        std::uint32_t ncpu =
            static_cast<std::uint32_t>(vcpu.vm().vcpus().size());
        cpu.setTrappedReadValue(((ncpu - 1) << 24) | 0x020000);
        return;
      }
      case SensitiveOp::L2ctlrWrite:
        return;
      case SensitiveOp::L2ectlrRead:
        cpu.setTrappedReadValue(0);
        return;
      case SensitiveOp::Cp14Read:
        cpu.setTrappedReadValue(vcpu.shadowCp14);
        return;
      case SensitiveOp::Cp14Write:
        vcpu.shadowCp14 = hsr.sysValue;
        return;
    }
    panic("highvisor: unknown sensitive op %u", hsr.iss);
}

void
Highvisor::handleHvc(ArmCpu &cpu, VCpu &vcpu, const Hsr &hsr)
{
    switch (hsr.iss) {
      case hvc::kTestHypercall:
        // Table 3 "Hypercall": two world switches and no work.
        vcpu.hotStats.emulHypercall.inc(vcpu.stats, "emul.hypercall");
        return;
      case hvc::kPsciOff:
        // PSCI SYSTEM_OFF: request every VCPU of the VM to stop.
        for (auto &v : vcpu.vm().vcpus()) {
            v->stopRequested = true;
            if (v->blocked)
                cpu.machine().cpuBase(v->physCpu()).kickAt(cpu.now());
        }
        return;
      default:
        vcpu.stats.counter("emul.hvc.unknown").inc();
        return;
    }
}

} // namespace kvmarm::core
