/**
 * @file
 * Shared pieces of the perfbench binary: options, the result sink, the
 * in-memory span tracer, reference-file handling and the one ARM KVM
 * stack bring-up every workload reuses.
 *
 * Spans carry an explicit parent id instead of a thread-local stack: a
 * span opened inside guest code can be suspended with its fiber and
 * resumed on another fleet worker, so nesting is recorded, not inferred.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "arm/machine.hh"
#include "core/kvm.hh"
#include "core/vm.hh"
#include "host/kernel.hh"
#include "sim/stats.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in [0, 1] (0 when empty). */
double percentile(std::vector<double> v, double q);

/** FNV-1a over @p s, continuing from @p h. */
std::uint64_t fnv1a(const std::string &s,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string refsDir;    //!< directory holding <workload>.ref
    std::string goldenPath; //!< bench/golden/table3_micro.txt
    std::string outDir;     //!< where the span trace is written
    bool writeRefs = false; //!< regenerate <workload>.ref and exit
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run reports. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> mismatches; //!< first few, for stderr
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;

    void
    fail(std::uint64_t ops, std::string why)
    {
        failed += ops;
        if (mismatches.size() < 8)
            mismatches.push_back(std::move(why));
    }
    void
    e2e(std::string name, double value, std::string unit)
    {
        endToEnd.push_back({std::move(name), value, std::move(unit)});
    }
    void
    layer(std::string name, double value, std::string unit)
    {
        perLayer.push_back({std::move(name), value, std::move(unit)});
    }
};

/// @name Span tracer
/// @{

/** One closed span; times are ns since the tracer's epoch. */
struct Span
{
    const char *name;
    const char *layer;
    std::int64_t t0;
    std::int64_t t1;
    std::uint64_t id;
    std::uint64_t parent; //!< 0 = root
    std::uint64_t job;    //!< experiment / VM job id
};

/** Process-wide span store. Off by default; everything is a no-op then. */
class Tracer
{
  public:
    static bool on() { return on_.load(std::memory_order_relaxed); }
    static void setOn(bool on) { on_.store(on, std::memory_order_relaxed); }

    static std::uint64_t newId() { return nextId_.fetch_add(1) + 1; }
    static std::int64_t nowNs();

    /** Append to the calling thread's buffer (no lock). */
    static void record(const Span &s);

    /// Readers: call only while no traced code runs (spans are appended
    /// to per-thread buffers without synchronization).
    static std::vector<Span> spans();
    /** Durations (ms) of every span called @p name. */
    static std::vector<double> spanMs(const char *name);

    /** Self time per layer: span duration minus the time its children
     *  cover, summed over the layer's spans (seconds). */
    static std::map<std::string, double> selfSecondsByLayer();

    /** Write every span as one JSON object per line. */
    static bool writeJsonl(const std::string &path);

  private:
    static std::atomic<bool> on_;
    static std::atomic<std::uint64_t> nextId_;
    /** Guards the buffer list; each buffer is written by one thread. */
    static std::mutex mutex_;
    static std::vector<std::shared_ptr<std::vector<Span>>> buffers_;
};

/** RAII span; records only while the tracer is on. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *layer, std::uint64_t parent = 0,
               std::uint64_t job = 0)
    {
        if (Tracer::on()) {
            span_ = {name, layer, Tracer::nowNs(), 0, Tracer::newId(),
                     parent, job};
        }
    }
    ~ScopedSpan()
    {
        if (span_.id) {
            span_.t1 = Tracer::nowNs();
            Tracer::record(span_);
        }
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    Span span_{nullptr, nullptr, 0, 0, 0, 0, 0};
};
/// @}

/// @name Reference files
/// @{

/** key -> space-separated canonical values. */
using RefMap = std::map<std::string, std::string>;

RefMap loadRefs(const std::string &path);
bool writeRefs(const std::string &path, const RefMap &refs,
               const std::string &header);

/** Canonical text of a value list ("%.17g" each, space separated). */
std::string formatValues(const std::vector<double> &values);
/// @}

/// @name ARM KVM stack bring-up
/// @{

/** A guest OS with no interrupt, syscall or fault handling. */
class NullOs : public kvmarm::arm::OsVectors
{
  public:
    void irq(kvmarm::arm::ArmCpu &) override {}
    void svc(kvmarm::arm::ArmCpu &, std::uint32_t) override {}
    bool
    pageFault(kvmarm::arm::ArmCpu &, kvmarm::Addr, bool, bool) override
    {
        return false;
    }
    const char *name() const override { return "perfbench-null"; }
};

/**
 * Build a one-VM ARM KVM stack (machine, host kernel, KVM), boot the host
 * on CPU 0, create a VM with one VCPU and run @p body as guest code
 * under @p guestOs (a NullOs when null); spans go under @p parent.
 * Returns the spawn time: host ms from the call to the first guest op.
 */
double runArmGuest(const kvmarm::arm::ArmMachine::Config &mc,
                   const kvmarm::core::KvmConfig &kc, kvmarm::Addr vmRam,
                   const std::function<void(kvmarm::arm::ArmCpu &,
                                            kvmarm::core::Vm &)> &body,
                   kvmarm::arm::OsVectors *guestOs = nullptr,
                   std::uint64_t parent = 0, std::uint64_t job = 0);

/** The default single-CPU machine the fleet workloads use. */
kvmarm::arm::ArmMachine::Config smallMachine();
/// @}

/** Sum of every counter of @p g whose name starts with @p prefix. */
std::uint64_t counterSum(const kvmarm::StatGroup &g,
                         const std::string &prefix);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** Table 3 paper values, row-major: 6 rows x 4 columns
 *  (ARM, ARM-noVGIC, x86-laptop, x86-server). */
const std::vector<double> &table3Paper();

/** Mean absolute relative error (%) of 24 simulated Table 3 cycle counts
 *  (same layout as table3Paper()) against the paper. */
double table3ErrorPct(const std::vector<double> &sim);

/** Run the four Table 3 microbenchmarks: 24 values, table3Paper() layout. */
std::vector<double> runTable3();

/**
 * Times a workload's set-up unit: once before the timed part, then again
 * between batches, at most once a second, outside any batch's time. The
 * median therefore samples the whole run's host speed, not only its
 * first few hundred milliseconds.
 */
class SetUpSampler
{
  public:
    explicit SetUpSampler(std::function<void()> unit)
        : unit_(std::move(unit))
    {
    }

    void sample();
    void maybeSample();
    double medianSeconds() const { return median(seconds_); }

  private:
    std::function<void()> unit_;
    std::vector<double> seconds_;
    Clock::time_point last_{};
};

/// @name Workloads
/// @{
void runPaperSuite(const Options &opt, Result &res);
void runRingFleet(const Options &opt, Result &res);
void runSpawnFleet(const Options &opt, Result &res);
/// @}

/** Shared per-layer reporting: self time shares by layer, and the
 *  ops/s of the untraced and traced halves of a traced run. */
void reportSelfTimes(Result &res);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
