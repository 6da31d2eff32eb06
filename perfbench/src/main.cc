/**
 * @file
 * perfbench binary: runs one workload for a fixed host time, checks every
 * simulated output against the committed references, and prints the
 * result as one JSON object on the last line of stdout.
 *
 *   perfbench --workload <paper_suite|ring_fleet|spawn_fleet> --seed N
 *             --seconds S --trace 0|1 --refs DIR --golden FILE --out DIR
 *   perfbench --workload W --refs DIR --write-refs
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 spends half the run
 * untraced and half traced, and reports the per-layer metrics plus the
 * tracing overhead; the spans go to DIR/trace-<workload>-<seed>.jsonl.
 * A metric a workload does not exercise is reported as 0.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "check/invariants.hh"
#include "common.hh"

namespace {

using namespace perfbench;

/** Every per-layer metric, so each workload prints the full set. */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"workload.arm_kvm_s", "s"},
    {"workload.arm_native_s", "s"},
    {"workload.x86_kvm_s", "s"},
    {"workload.x86_native_s", "s"},
    {"workload.micro_s", "s"},
    {"workload.smp_share", "ratio"},
    {"core.hvc_ns", "ns"},
    {"core.mmio_kernel_ns", "ns"},
    {"vdev.mmio_user_ns", "ns"},
    {"core.vgic_mmio_ns", "ns"},
    {"core.stage2_fault_ns", "ns"},
    {"arm.load_hit_ns", "ns"},
    {"mem.cow_write_ns", "ns"},
    {"arm.tlb.hit_ratio", "ratio"},
    {"core.exits_per_op", "count"},
    {"check.events_per_op", "count"},
    {"check.violations", "count"},
    {"check.failed_ratio", "ratio"},
    {"sim.snapshot.take_ms", "ms"},
    {"sim.snapshot.restore_ms", "ms"},
    {"sim.snapshot.bytes", "bytes"},
    {"mem.phys_mem.cow_faults_per_clone", "count"},
    {"mem.phys_mem.private_pages_per_clone", "count"},
    {"host.boot_ms", "ms"},
    {"core.create_vm_ms", "ms"},
    {"sim.fleet.queue_wait_ms_p50", "ms"},
    {"sim.fleet.busy_ratio", "ratio"},
    {"sim.fleet.steal_ratio", "ratio"},
    {"sim.fleet.scaling_ceiling", "ratio"},
    {"sim.ring_channel.step_us", "us"},
    {"sim.ring_channel.msgs_per_window", "count"},
    {"sim.fleet.parks_per_msg", "count"},
    {"core.irq_injected_per_msg", "count"},
    {"sim.sim_cycles", "cycles"},
    {"trace.ops_per_s_untraced", "1/s"},
    {"trace.ops_per_s_traced", "1/s"},
    {"trace.overhead_pct", "%"},
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --refs DIR --golden FILE --out DIR "
                 "[--write-refs]\n");
    std::exit(2);
}

const Metric *
find(const std::vector<Metric> &ms, const std::string &name)
{
    for (const Metric &m : ms)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
printMetrics(const std::vector<Metric> &ms)
{
    bool first = true;
    for (const Metric &m : ms) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = next();
        else if (a == "--seed")
            opt.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(next().c_str());
        else if (a == "--trace")
            opt.trace = next() != "0";
        else if (a == "--refs")
            opt.refsDir = next();
        else if (a == "--golden")
            opt.goldenPath = next();
        else if (a == "--out")
            opt.outDir = next();
        else if (a == "--write-refs")
            opt.writeRefs = true;
        else
            usage();
    }
    if (opt.refsDir.empty() || opt.seconds <= 0)
        usage();
    if (opt.outDir.empty())
        opt.outDir = ".";

    const bool enforce = opt.workload == "spawn_fleet";
    kvmarm::check::engine().setMode(enforce
                                        ? kvmarm::check::CheckMode::Enforce
                                        : kvmarm::check::CheckMode::Off);

    Result res;
    try {
        if (opt.workload == "paper_suite")
            runPaperSuite(opt, res);
        else if (opt.workload == "ring_fleet")
            runRingFleet(opt, res);
        else if (opt.workload == "spawn_fleet")
            runSpawnFleet(opt, res);
        else
            usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (opt.writeRefs) {
        for (const std::string &m : res.mismatches)
            std::fprintf(stderr, "perfbench: %s\n", m.c_str());
        return res.failed ? 1 : 0;
    }
    for (const std::string &m : res.mismatches)
        std::fprintf(stderr, "perfbench: check failed: %s\n", m.c_str());

    const double failedRatio =
        res.attempted ? double(res.failed) / double(res.attempted) : 1.0;
    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = res.endToEnd;
        metrics.push_back({"ok_ratio", 1.0 - failedRatio, "ratio"});
    } else {
        reportSelfTimes(res);
        const Metric *plain = find(res.perLayer, "trace.ops_per_s_untraced");
        const Metric *traced = find(res.perLayer, "trace.ops_per_s_traced");
        if (plain && traced && traced->value > 0)
            res.layer("trace.overhead_pct",
                      100.0 * (plain->value / traced->value - 1.0), "%");
        res.layer("check.failed_ratio", failedRatio, "ratio");
        metrics = res.perLayer;
        for (const auto &[name, unit] : kPerLayer)
            if (!find(metrics, name))
                metrics.push_back({name, 0, unit});
        const std::string trace = opt.outDir + "/trace-" + opt.workload +
                                  "-" + std::to_string(opt.seed) + ".jsonl";
        if (!Tracer::writeJsonl(trace))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace.c_str());
    }

    std::printf("{\"meta\": {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %g, \"trace\": %d, \"host_cpus\": %u, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"check_mode\": \"%s\"}}\n",
                opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
                std::thread::hardware_concurrency(), __VERSION__,
                PERFBENCH_BUILD_TYPE, enforce ? "enforce" : "off");
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                res.failed == 0 ? "true" : "false", res.attempted,
                res.failed);
    printMetrics(metrics);
    std::printf("}}\n");
    return 0;
}
