/**
 * @file
 * A virtual machine: guest memory geometry, Stage-2 tables, the virtual
 * distributor, in-kernel device regions, the user-space (QEMU) MMIO exit
 * handler, and the KVM_IRQ_LINE injection entry point.
 */

#ifndef KVMARM_CORE_VM_HH
#define KVMARM_CORE_VM_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/stage2_mmu.hh"
#include "core/types.hh"
#include "core/vcpu.hh"
#include "core/vgic_emul.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace kvmarm::core {

class Kvm;

/** One guest virtual machine. */
class Vm : public Snapshottable
{
  public:
    Vm(Kvm &kvm, std::uint16_t vmid, Addr guest_ram_size);
    ~Vm();

    Vm(const Vm &) = delete;
    Vm &operator=(const Vm &) = delete;

    Kvm &kvm() { return kvm_; }
    std::uint16_t vmid() const { return vmid_; }

    /** Guest RAM window in IPA space (mirrors the machine's layout). */
    Addr ramBase() const;
    Addr ramSize() const { return ramSize_; }

    Stage2Mmu &stage2() { return stage2_; }
    VgicDistEmul &vdist() { return vdist_; }

    /** Create a VCPU pinned to physical CPU @p phys_cpu. */
    VCpu &addVcpu(CpuId phys_cpu);
    std::vector<std::unique_ptr<VCpu>> &vcpus() { return vcpus_; }
    VCpu *vcpu(unsigned idx) { return vcpus_.at(idx).get(); }

    /// @name Device plumbing
    /// @{
    using KernelDeviceHandler =
        std::function<std::uint64_t(bool is_write, Addr offset,
                                    std::uint64_t value, unsigned len)>;

    /** Register an in-kernel emulated device (KVM_CREATE_DEVICE-shaped);
     *  MMIO to [base, base+size) is handled without exiting to user
     *  space. */
    void addKernelDevice(Addr base, Addr size, KernelDeviceHandler handler);

    /** Find an in-kernel device covering @p ipa. */
    KernelDeviceHandler *kernelDeviceAt(Addr ipa, Addr &offset_out);

    using UserMmioHandler =
        std::function<void(arm::ArmCpu &, VCpu &, MmioExit &)>;

    /** Install the user-space (QEMU) MMIO exit handler. */
    void setUserMmioHandler(UserMmioHandler handler) {
        userMmio_ = std::move(handler);
    }
    UserMmioHandler &userMmioHandler() { return userMmio_; }

    /** User-space virtual interrupt injection (KVM_IRQ_LINE, paper §3.5):
     *  emulated devices raise SPIs through the virtual distributor. */
    void irqLine(arm::ArmCpu &current_cpu, IrqId spi);
    /// @}

    /** Guest-physical address of the in-kernel test device used by the
     *  Table 3 "I/O Kernel" micro-benchmark. */
    static constexpr Addr kKernelTestDevBase = 0x0B000000;

    /// @name Snapshottable
    ///
    /// A VM's serializable state lives in its registered components
    /// (stage2, vdist, vcpus); what the Vm record itself carries is the
    /// *skeleton* — vmid, RAM geometry, VCPU count, in-kernel device
    /// regions — which restoreState() cross-checks against this instance,
    /// because a clone must rebuild the skeleton (createVm / addVcpu /
    /// addKernelDevice, in origin order) before restoring. Device handler
    /// and user-MMIO closures cannot be serialized; the rebuild supplies
    /// them.
    /// @{
    std::string snapshotKey() const override;
    void saveState(SnapshotWriter &w) override;
    void restoreState(SnapshotReader &r) override;
    /// @}

  private:
    struct KernelDevice
    {
        Addr base;
        Addr size;
        KernelDeviceHandler handler;
    };

    Kvm &kvm_;
    std::uint16_t vmid_;
    Addr ramSize_;
    Stage2Mmu stage2_;
    VgicDistEmul vdist_;
    std::vector<std::unique_ptr<VCpu>> vcpus_;
    std::vector<KernelDevice> kernelDevices_;
    UserMmioHandler userMmio_;
};

} // namespace kvmarm::core

#endif // KVMARM_CORE_VM_HH
