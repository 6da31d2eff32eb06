#include "common.hh"

#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "sim/logging.hh"
#include "workload/microbench.hh"
#include "workload/microbench_x86.hh"

namespace perfbench {

using namespace kvmarm;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(std::ceil(q * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

// ---------------------------------------------------------------- tracer

std::atomic<bool> Tracer::on_{false};
std::atomic<std::uint64_t> Tracer::nextId_{0};
std::mutex Tracer::mutex_;
std::vector<std::shared_ptr<std::vector<Span>>> Tracer::buffers_;

std::int64_t
Tracer::nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

void
Tracer::record(const Span &s)
{
    // The list keeps each buffer alive after its thread exits.
    thread_local std::shared_ptr<std::vector<Span>> buffer = [] {
        auto b = std::make_shared<std::vector<Span>>();
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(b);
        return b;
    }();
    buffer->push_back(s);
}

std::vector<Span>
Tracer::spans()
{
    std::vector<Span> all;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &b : buffers_)
        all.insert(all.end(), b->begin(), b->end());
    return all;
}

std::vector<double>
Tracer::spanMs(const char *name)
{
    std::vector<double> out;
    for (const Span &s : spans())
        if (std::string_view(s.name) == name)
            out.push_back(double(s.t1 - s.t0) / 1e6);
    return out;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer()
{
    std::vector<Span> all = spans();
    std::unordered_map<std::uint64_t, std::int64_t> childNs;
    for (const Span &s : all)
        if (s.parent)
            childNs[s.parent] += s.t1 - s.t0;
    std::map<std::string, double> out;
    for (const Span &s : all) {
        auto it = childNs.find(s.id);
        std::int64_t self =
            (s.t1 - s.t0) - (it == childNs.end() ? 0 : it->second);
        out[s.layer] += double(std::max<std::int64_t>(self, 0)) / 1e9;
    }
    return out;
}

bool
Tracer::writeJsonl(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : spans()) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%" PRId64
                     ",\"end_ns\":%" PRId64 ",\"id\":%" PRIu64
                     ",\"parent\":%" PRIu64 ",\"job\":%" PRIu64 "}\n",
                     s.name, s.layer, s.t0, s.t1, s.id, s.parent, s.job);
    }
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- refs

RefMap
loadRefs(const std::string &path)
{
    RefMap refs;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t sp = line.find(' ');
        if (sp == std::string::npos)
            continue;
        refs[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return refs;
}

bool
writeRefs(const std::string &path, const RefMap &refs,
          const std::string &header)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "# %s\n", header.c_str());
    for (const auto &[key, values] : refs)
        std::fprintf(f, "%s %s\n", key.c_str(), values.c_str());
    return std::fclose(f) == 0;
}

std::string
formatValues(const std::vector<double> &values)
{
    std::string out;
    char buf[64];
    for (double v : values) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
        if (!out.empty())
            out += ' ';
        out += buf;
    }
    return out;
}

// ---------------------------------------------------------------- stack

double
runArmGuest(const arm::ArmMachine::Config &mc, const core::KvmConfig &kc,
            Addr vmRam,
            const std::function<void(arm::ArmCpu &, core::Vm &)> &body,
            arm::OsVectors *guestOs, std::uint64_t parent, std::uint64_t job)
{
    const Clock::time_point entry = Clock::now();
    double spawnMs = 0;
    arm::ArmMachine machine(mc);
    host::HostKernel hostk(machine);
    core::Kvm kvm(hostk, kc);
    NullOs os;

    machine.cpu(0).setEntry([&] {
        arm::ArmCpu &cpu = machine.cpu(0);
        {
            ScopedSpan s("host.boot", "host", parent, job);
            hostk.boot(0);
        }
        bool ok;
        {
            ScopedSpan s("core.init_cpu", "core", parent, job);
            ok = kvm.initCpu(cpu);
        }
        if (!ok)
            fatal("perfbench: KVM init failed");
        std::unique_ptr<core::Vm> vm;
        core::VCpu *vcpu;
        {
            ScopedSpan s("core.create_vm", "core", parent, job);
            vm = kvm.createVm(vmRam);
            vcpu = &vm->addVcpu(0);
        }
        vcpu->setGuestOs(guestOs ? guestOs : &os);
        vcpu->run(cpu, [&](arm::ArmCpu &c) {
            spawnMs = secondsBetween(entry, Clock::now()) * 1e3;
            ScopedSpan s("core.guest", "core", parent, job);
            body(c, *vm);
        });
    });
    machine.run();
    return spawnMs;
}

void
SetUpSampler::sample()
{
    const Clock::time_point t0 = Clock::now();
    unit_();
    last_ = Clock::now();
    seconds_.push_back(secondsBetween(t0, last_));
}

void
SetUpSampler::maybeSample()
{
    if (secondsBetween(last_, Clock::now()) >= 1.0)
        sample();
}

arm::ArmMachine::Config
smallMachine()
{
    arm::ArmMachine::Config mc;
    mc.numCpus = 1;
    mc.ramSize = 128 * kMiB;
    return mc;
}

std::uint64_t
counterSum(const StatGroup &g, const std::string &prefix)
{
    std::uint64_t n = 0;
    for (auto it = g.counters().lower_bound(prefix);
         it != g.counters().end() && it->first.rfind(prefix, 0) == 0; ++it)
        n += it->second.value();
    return n;
}

double
peakRssMb()
{
    // VmHWM is this address space's high-water mark. getrusage's
    // ru_maxrss would also count the parent's pages at fork time, since
    // Linux keeps it across execve.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB -> MB
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

const std::vector<double> &
table3Paper()
{
    static const std::vector<double> paper = {
        5326,  2270,  1336,  1638,  // Hypercall
        27,    27,    632,   821,   // Trap
        5990,  2850,  3190,  3291,  // I/O Kernel
        10119, 6704,  10985, 12218, // I/O User
        14366, 32951, 17138, 21177, // IPI
        427,   13726, 2043,  2305,  // EOI+ACK
    };
    return paper;
}

double
table3ErrorPct(const std::vector<double> &sim)
{
    const std::vector<double> &paper = table3Paper();
    double sum = 0;
    for (std::size_t i = 0; i < paper.size(); ++i)
        sum += std::fabs(sim.at(i) - paper[i]) / paper[i];
    return 100.0 * sum / double(paper.size());
}

std::vector<double>
runTable3()
{
    const wl::MicroResults cols[4] = {
        wl::runArmMicrobench({true, true, 64}),
        wl::runArmMicrobench({false, false, 64}),
        wl::runX86Microbench({x86::X86Platform::Laptop, 64}),
        wl::runX86Microbench({x86::X86Platform::Server, 64}),
    };
    std::vector<double> v;
    for (Cycles wl::MicroResults::*row :
         {&wl::MicroResults::hypercall, &wl::MicroResults::trap,
          &wl::MicroResults::ioKernel, &wl::MicroResults::ioUser,
          &wl::MicroResults::ipi, &wl::MicroResults::eoiAck}) {
        for (const wl::MicroResults &c : cols)
            v.push_back(double(c.*row));
    }
    return v;
}

void
reportSelfTimes(Result &res)
{
    std::map<std::string, double> self = Tracer::selfSecondsByLayer();
    double total = 0;
    for (const auto &[layer, s] : self)
        total += s;
    for (const char *layer : {"workload", "arm", "mem", "sim", "core", "vdev",
                              "host", "baremetal", "power", "bench"}) {
        auto it = self.find(layer);
        double share = it == self.end() || total <= 0 ? 0 : it->second / total;
        res.layer(std::string("self.") + layer + "_share", share, "ratio");
    }
}

} // namespace perfbench
