#include "core/vm.hh"

#include "arm/machine.hh"
#include "core/kvm.hh"
#include "sim/logging.hh"

namespace kvmarm::core {

using arm::ArmMachine;

Vm::Vm(Kvm &kvm, std::uint16_t vmid, Addr guest_ram_size)
    : kvm_(kvm), vmid_(vmid), ramSize_(guest_ram_size),
      stage2_(kvm.host().mm(), vmid, ArmMachine::kRamBase, guest_ram_size),
      vdist_(*this)
{
    if (!kvm.enabled())
        fatal("Vm: KVM/ARM is not initialized (no Hyp mode?)");
    if (kvm_.config().useVgic) {
        // The VM sees the VGIC virtual CPU interface at the address where
        // it expects the GIC CPU interface (paper §3.5); the hypervisor
        // control interface stays unmapped and inaccessible.
        stage2_.mapDevicePage(ArmMachine::kGiccBase, ArmMachine::kGicvBase);
    }
    kvm_.registerVm(this);
    kvm_.machine().registerSnapshottable(&stage2_);
    kvm_.machine().registerSnapshottable(&vdist_);
    kvm_.machine().registerSnapshottable(this);
}

Vm::~Vm()
{
    kvm_.machine().unregisterSnapshottable(this);
    kvm_.machine().unregisterSnapshottable(&vdist_);
    kvm_.machine().unregisterSnapshottable(&stage2_);
    kvm_.unregisterVm(this);
}

std::string
Vm::snapshotKey() const
{
    return "vm-" + std::to_string(vmid_);
}

void
Vm::saveState(SnapshotWriter &w)
{
    w.u32(vmid_);
    w.u64(ramSize_);
    w.u32(static_cast<std::uint32_t>(vcpus_.size()));
    w.u32(static_cast<std::uint32_t>(kernelDevices_.size()));
    for (const KernelDevice &d : kernelDevices_) {
        w.u64(d.base);
        w.u64(d.size);
    }
    w.b(static_cast<bool>(userMmio_));
}

void
Vm::restoreState(SnapshotReader &r)
{
    if (r.u32() != vmid_)
        fatal("vm-%u: snapshot vmid differs — clone VMs in origin order",
              vmid_);
    if (r.u64() != ramSize_)
        fatal("vm-%u: snapshot guest RAM size differs", vmid_);
    std::uint32_t nvcpus = r.u32();
    if (nvcpus != vcpus_.size())
        fatal("vm-%u: snapshot has %u VCPUs, this VM has %zu — addVcpu "
              "before restoring", vmid_, nvcpus, vcpus_.size());
    std::uint32_t ndevs = r.u32();
    if (ndevs != kernelDevices_.size())
        fatal("vm-%u: snapshot has %u kernel devices, this VM has %zu — "
              "addKernelDevice before restoring", vmid_, ndevs,
              kernelDevices_.size());
    for (std::uint32_t i = 0; i < ndevs; ++i) {
        Addr base = r.u64();
        Addr size = r.u64();
        if (base != kernelDevices_[i].base || size != kernelDevices_[i].size)
            fatal("vm-%u: kernel device %u region differs from snapshot",
                  vmid_, i);
    }
    bool had_user_mmio = r.b();
    if (had_user_mmio && !userMmio_)
        fatal("vm-%u: snapshot expects a user-space MMIO handler — "
              "setUserMmioHandler before restoring", vmid_);
}

Addr
Vm::ramBase() const
{
    return ArmMachine::kRamBase;
}

VCpu &
Vm::addVcpu(CpuId phys_cpu)
{
    if (phys_cpu >= kvm_.machine().numCpus())
        fatal("Vm::addVcpu: no physical cpu %u", phys_cpu);
    auto vcpu = std::make_unique<VCpu>(
        *this, static_cast<unsigned>(vcpus_.size()), phys_cpu);
    // Guest virtual time starts at zero: CNTVCT = CNTPCT - CNTVOFF.
    vcpu->cntvoff = kvm_.machine().cpuBase(phys_cpu).now();
    vcpus_.push_back(std::move(vcpu));
    return *vcpus_.back();
}

void
Vm::addKernelDevice(Addr base, Addr size, KernelDeviceHandler handler)
{
    kernelDevices_.push_back({base, size, std::move(handler)});
}

Vm::KernelDeviceHandler *
Vm::kernelDeviceAt(Addr ipa, Addr &offset_out)
{
    for (KernelDevice &d : kernelDevices_) {
        if (ipa >= d.base && ipa < d.base + d.size) {
            offset_out = ipa - d.base;
            return &d.handler;
        }
    }
    return nullptr;
}

void
Vm::irqLine(arm::ArmCpu &current_cpu, IrqId spi)
{
    vdist_.injectSpi(current_cpu, spi);
}

} // namespace kvmarm::core
