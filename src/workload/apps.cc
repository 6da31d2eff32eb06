#include "workload/apps.hh"

#include <memory>

#include "power/energy.hh"
#include "sim/logging.hh"
#include "workload/linux_model.hh"

namespace kvmarm::wl {

namespace {

constexpr unsigned kNetSlot = 0;
constexpr unsigned kDiskSlot = 1;
constexpr unsigned kRemoteSlot = 2;

/** Cross-CPU pipeline state of one app run. */
struct AppShared
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    bool done = false;
};

/** NOHZ-style wait: re-arm the tick and idle until @p pred holds. */
void
waitFor(SysPort &port, const LinuxCosts &costs,
        const std::function<bool()> &pred)
{
    while (!pred()) {
        (void)port.schedClock();
        port.timerProgram(costs.tickInterval);
        if (!pred()) {
            port.idle();
            port.timerProgram(costs.tickInterval); // idle-exit re-arm
        }
    }
}

/** Wait until device @p slot has delivered @p count completions to this
 *  CPU. */
void
waitDev(SysPort &port, const LinuxCosts &costs, unsigned slot,
        std::uint64_t count)
{
    waitFor(port, costs,
            [&] { return port.devCompletions(slot) >= count; });
}

/** Queue a work item without waiting (pipelined server); the wakeup IPI
 *  is suppressed when the worker is already running through its backlog
 *  (try_to_wake_up only interrupts idle CPUs). */
void
dispatchAsync(SysPort &port, AppShared &sh, bool smp,
              const LinuxCosts &costs, LmbenchOps &ops,
              const std::function<void(SysPort &)> &item)
{
    if (!smp) {
        ops.switchTo();
        item(port);
        ops.switchTo();
        return;
    }
    ++sh.submitted;
    port.kernelCompute(costs.wakeup);
    if (sh.submitted - sh.completed <= 1)
        port.sendRescheduleIpi(1);
}

/** Worker (CPU1) loop: consume submitted items until done. */
void
workerLoop(SysPort &port, AppShared &sh, const LinuxCosts &costs,
           const std::function<void(SysPort &)> &item)
{
    std::uint64_t handled = 0;
    while (true) {
        waitFor(port, costs,
                [&] { return sh.done || sh.submitted > handled; });
        if (sh.submitted <= handled && sh.done)
            break;
        item(port);
        ++handled;
        sh.completed = handled;
        port.kernelCompute(costs.wakeup);
        // Notify the frontend only when the backlog drains (it only
        // sleeps when everything it queued is outstanding).
        if (sh.completed >= sh.submitted)
            port.sendRescheduleIpi(0);
    }
}

/** Per-app transaction counts (warm-up + measured). */
struct AppCounts
{
    unsigned warm;
    unsigned measured;
};

AppCounts
countsFor(App app)
{
    switch (app) {
      case App::Apache: return {8, 40};
      case App::Mysql: return {6, 30};
      case App::Memcached: return {20, 100};
      case App::KernelCompile: return {2, 8};
      case App::Untar: return {8, 40};
      case App::Curl1K: return {4, 20};
      case App::Curl1G: return {8, 40};
      case App::Hackbench: return {3, 15};
    }
    return {4, 20};
}

/** The worker-side body of one transaction. */
std::function<void(SysPort &)>
workerItem(App app)
{
    LinuxCosts costs;
    switch (app) {
      case App::Apache:
        return [costs](SysPort &p) {
            // Apache worker: parse the request, stat + read the GCC
            // manual page from the page cache, run the output filters and
            // send the response (~0.15 ms of application work per request
            // on a Cortex-A15, matching ~850 req/s across two cores).
            for (int s = 0; s < 10; ++s) {
                p.syscallEdge();
                p.kernelCompute(1800);
            }
            p.userCompute(150000);
            p.kernelCompute(3 * costs.tcpWork); // TCP segmentation
            // Two TX doorbells per response (two TSO segments); virtio
            // notification suppression coalesces the rest.
            p.devKick(kNetSlot, 3000);
            p.devKick(kNetSlot, 3000);
        };
      case App::Mysql:
        return [costs](SysPort &p) {
            // OLTP transaction: parse, optimize, execute over the buffer
            // pool, write the redo log, return the result set.
            for (int s = 0; s < 18; ++s) {
                p.syscallEdge();
                p.kernelCompute(1500);
            }
            p.userCompute(520000);
            p.fpCompute(2500); // aggregate arithmetic
            p.devKick(kDiskSlot, 4096); // redo log write
            p.kernelCompute(costs.tcpWork);
            p.devKick(kNetSlot, 800); // result TX
        };
      case App::Memcached:
        return [costs, pendingTx = 0u](SysPort &p) mutable {
            p.syscallEdge();
            p.kernelCompute(costs.tcpWork); // UDP/TCP rx path
            p.userCompute(42000); // hash + LRU + memcpy
            p.kernelCompute(costs.tcpWork);
            // TX doorbell coalescing (virtio notification suppression):
            // one kick per four responses under memslap load.
            if (++pendingTx == 4) {
                p.devKick(kNetSlot, 4 * 400);
                pendingTx = 0;
            }
        };
      case App::KernelCompile:
        return [](SysPort &p) {
            // One compilation unit: fork+exec cc1, fault in its image,
            // then burn compute.
            LmbenchOps ops(p);
            ops.forkOp(false);
            ops.execOp(false);
            for (int f = 0; f < 24; ++f)
                p.demandFault();
            p.userCompute(2400000);
            p.fpCompute(1500);
        };
      case App::Hackbench:
        return [costs](SysPort &p) {
            p.syscallEdge();
            p.kernelCompute(costs.sockWork);
        };
      default:
        return [](SysPort &) {};
    }
}

/** Frontend (CPU0) body: runs @p txns transactions; returns at the end. */
void
frontend(App app, SysPort &port, AppShared &sh, bool smp, unsigned txns)
{
    LinuxCosts costs;
    LmbenchOps ops(port, costs);
    auto item = workerItem(app);

    // Completion counters on CPU0 at entry (devices route IRQs here).
    std::uint64_t net = port.devCompletions(kNetSlot);
    std::uint64_t disk = port.devCompletions(kDiskSlot);
    std::uint64_t remote = port.devCompletions(kRemoteSlot);

    for (unsigned i = 0; i < txns; ++i) {
        switch (app) {
          case App::Apache: {
            // ~850 req/s is far below NAPI coalescing rates: every
            // request arrives with its own RX interrupt; the 100-way
            // ApacheBench keeps a backlog so worker dispatch pipelines.
            constexpr unsigned kBatch = 4;
            for (unsigned b = 0; b < kBatch; ++b) {
                port.devKick(kNetSlot, 300);
                waitDev(port, costs, kNetSlot, ++net);
                port.kernelCompute(2800); // softirq + accept
                (void)port.schedClock();
                (void)port.schedClock();
                dispatchAsync(port, sh, smp, costs, ops, item);
            }
            if (smp) {
                waitFor(port, costs,
                        [&] { return sh.completed >= sh.submitted; });
            }
            net += 2 * kBatch; // two TX segments per request
            waitDev(port, costs, kNetSlot, net);
            break;
          }

          case App::Mysql: {
            constexpr unsigned kBatch = 4;
            for (unsigned b = 0; b < kBatch; ++b) {
                port.devKick(kNetSlot, 150);
                waitDev(port, costs, kNetSlot, ++net);
                port.kernelCompute(2000);
                (void)port.schedClock();
                dispatchAsync(port, sh, smp, costs, ops, item);
            }
            if (smp) {
                waitFor(port, costs,
                        [&] { return sh.completed >= sh.submitted; });
            }
            disk += kBatch; // group-committed redo log
            waitDev(port, costs, kDiskSlot, disk);
            net += kBatch;
            waitDev(port, costs, kNetSlot, net);
            break;
          }

          case App::Memcached: {
            // memslap's rate is high enough that pairs of requests share
            // an RX interrupt, but not more.
            constexpr unsigned kBatch = 8;
            for (unsigned b = 0; b < kBatch; b += 2) {
                port.devKick(kNetSlot, 200);
                waitDev(port, costs, kNetSlot, ++net);
                port.kernelCompute(900);
                (void)port.schedClock();
                dispatchAsync(port, sh, smp, costs, ops, item);
                dispatchAsync(port, sh, smp, costs, ops, item);
            }
            if (smp) {
                waitFor(port, costs,
                        [&] { return sh.completed >= sh.submitted; });
            }
            net += kBatch / 4; // coalesced TX doorbells
            waitDev(port, costs, kNetSlot, net);
            break;
          }

          case App::KernelCompile:
            if (smp) {
                // Make -j2: one unit on the worker, one locally.
                ++sh.submitted;
                port.kernelCompute(costs.wakeup);
                port.sendRescheduleIpi(1);
                item(port);
                waitFor(port, costs,
                        [&] { return sh.completed >= sh.submitted; });
            } else {
                item(port);
                item(port);
            }
            if (i % 4 == 3) {
                port.devKick(kDiskSlot, 65536); // source/object I/O
                waitDev(port, costs, kDiskSlot, ++disk);
            }
            break;

          case App::Untar:
            port.devKick(kDiskSlot, 65536); // read a compressed block
            waitDev(port, costs, kDiskSlot, ++disk);
            for (int s = 0; s < 20; ++s) {
                port.syscallEdge();
                port.kernelCompute(300);
            }
            port.userCompute(160000); // bunzip2 of the block
            port.devKick(kDiskSlot, 65536); // write extracted file
            waitDev(port, costs, kDiskSlot, ++disk); // writeback
            break;

          case App::Curl1K:
            port.devKick(kRemoteSlot, 100); // connect
            waitDev(port, costs, kRemoteSlot, ++remote);
            port.devKick(kRemoteSlot, 1124); // request + 1 KB response
            waitDev(port, costs, kRemoteSlot, ++remote);
            for (int s = 0; s < 6; ++s)
                port.syscallEdge();
            port.userCompute(2000);
            break;

          case App::Curl1G:
            // One 64 KiB chunk of the stream; wire bound.
            port.devKick(kNetSlot, 65536);
            waitDev(port, costs, kNetSlot, ++net);
            port.kernelCompute(2200); // softirq + checksum
            port.userCompute(5000);
            if (i % 8 == 7)
                port.syscallEdge(); // write to /dev/null
            break;

          case App::Hackbench: {
            // One loop: a burst of socket messages across the groups.
            for (int m = 0; m < 30; ++m) {
                port.kernelCompute(costs.sockWork);
                port.kernelCompute(costs.wakeup);
                if (smp && (m % 4 == 0)) {
                    ++sh.submitted;
                    if (sh.submitted - sh.completed <= 1)
                        port.sendRescheduleIpi(1);
                } else {
                    ops.switchTo();
                    port.syscallEdge();
                }
            }
            if (smp) {
                waitFor(port, costs,
                        [&] { return sh.completed >= sh.submitted; });
            }
            break;
          }
        }
    }
}

} // namespace

const char *
appName(App app)
{
    switch (app) {
      case App::Apache: return "apache";
      case App::Mysql: return "mysql";
      case App::Memcached: return "memcached";
      case App::KernelCompile: return "kernel compile";
      case App::Untar: return "untar";
      case App::Curl1K: return "curl 1K";
      case App::Curl1G: return "curl 1G";
      case App::Hackbench: return "hackbench";
    }
    return "?";
}

std::vector<App>
allApps()
{
    return {App::Apache,  App::Mysql,  App::Memcached,
            App::KernelCompile, App::Untar, App::Curl1K,
            App::Curl1G,  App::Hackbench};
}

bool
isCpuBound(App app)
{
    switch (app) {
      case App::Memcached:
      case App::Untar:
      case App::Curl1K:
      case App::Curl1G:
        return false;
      default:
        return true;
    }
}

Experiment
makeAppExperiment(App app, Platform platform, bool smp)
{
    Experiment exp;
    exp.platform = platform;
    exp.numCpus = smp ? 2 : 1;
    exp.devices.net = true;
    exp.devices.disk = true;
    exp.devices.remote = true;

    auto shared = std::make_shared<AppShared>();
    AppCounts counts = countsFor(app);

    exp.prepare = [shared] { *shared = AppShared{}; };

    exp.work = [app, shared, smp, counts](SysPort &port) -> Cycles {
        frontend(app, port, *shared, smp, counts.warm);
        Cycles t0 = port.now();
        frontend(app, port, *shared, smp, counts.measured);
        Cycles elapsed = port.now() - t0;
        shared->done = true;
        if (smp)
            port.sendRescheduleIpi(1);
        return elapsed;
    };
    if (smp) {
        exp.side = [app, shared](SysPort &port) {
            LinuxCosts costs;
            workerLoop(port, *shared, costs, workerItem(app));
        };
    }
    return exp;
}

AppOutcome
runApp(App app, Platform platform, bool smp)
{
    Experiment exp = makeAppExperiment(app, platform, smp);
    AppOutcome out;
    out.native = runNative(exp);
    out.virt = runVirt(exp);
    out.overhead = out.native.elapsed
                       ? double(out.virt.elapsed) / double(out.native.elapsed)
                       : 0;
    bool arm = platform == Platform::ArmVgic ||
               platform == Platform::ArmNoVgic;
    power::PowerProfile profile =
        arm ? power::arndaleProfile() : power::x86LaptopProfile();
    double en = power::energyJoules(profile, out.native.seconds,
                                    out.native.cpuUtil);
    double ev =
        power::energyJoules(profile, out.virt.seconds, out.virt.cpuUtil);
    out.energyOverhead = en > 0 ? ev / en : 0;
    return out;
}

} // namespace kvmarm::wl
