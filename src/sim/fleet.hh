/**
 * @file
 * Fleet executor: runs many machine simulations concurrently on a pool of
 * host threads.
 *
 * Each job is one whole VM/machine run — the machine keeps its existing
 * single-threaded fiber scheduler and runs on exactly one worker thread at
 * a time, so its simulated cycle counts, stats, and event interleavings
 * are bit-identical no matter how many host threads the fleet uses. The
 * executor only decides *which* host thread runs *which* machine, never
 * how a machine executes internally.
 *
 * The fleet is a long-lived worker pool with a thread-safe submission
 * channel. submit() is legal before start() (jobs queue until workers
 * exist), while the pool runs, and — crucially — from inside a running job
 * body: a running VM may take a COW snapshot of itself (DESIGN.md §4.9)
 * and submit clone jobs mid-run, "VMs spawning VMs". drain() blocks until
 * every submitted job (including transitively spawned ones) has finished
 * and returns that epoch's results; shutdown() drains and retires the
 * workers, after which submission is a diagnosed hard error.
 *
 * Determinism does not come from arrival order — concurrent spawns race,
 * so arrival order differs run to run. Instead every submission is stamped
 * with a (submitter-id, submission-seq) key: the submitter is the
 * deterministic 64-bit id of the job that called submit() (0 for the
 * external owner thread), and the seq is that submitter's private
 * submission counter. Both are pure functions of simulated execution, so
 * the key — and everything dealt or ordered by it — is identical at any
 * worker count. Jobs are dealt to a home worker derived from the key, and
 * drain() orders results by key path (a parent's spawns sort directly
 * after the parent, in spawn order), never by completion or arrival order.
 * Per-VM sim_cycles and stat dumps therefore gate bit-identical across
 * serial and 1/2/4/8 workers (bench/fleet_pool), the same way fleet_tput
 * and fleet_clone already gate.
 *
 * Scheduling is a per-worker deque with job stealing: jobs are dealt by
 * key, a worker pops its own deque from the front, and a worker that runs
 * dry steals from the back of another worker's deque. Heterogeneous fleets
 * (a world-switch storm VM next to a compute-bound VM) therefore keep
 * every host thread busy until the global queue is empty instead of idling
 * behind a static partition.
 *
 * Communicating fleets (DESIGN.md §4.10) use *resumable* jobs: a StepFn
 * advances its machine until it must wait for a peer (e.g. a RingPacer
 * window blocked on the peer's horizon) and returns Blocked. The fleet
 * parks the job without occupying a worker; notify() — typically wired to
 * a RingChannel wake hook — re-queues it. A notify from inside a job body
 * hands the woken job to the front of the notifying worker's own deque, so
 * it runs there next without a cross-thread wake. A notify that races the
 * step (arriving while the job runs) is latched and converts the park into
 * an immediate re-queue, so wakeups are never lost. At one worker thread this
 * degrades to serial round-robin between the communicating jobs, which is
 * exactly the reference schedule the determinism gates compare against.
 * While a drain is in progress, a job parked with every worker idle and
 * nothing queued or running can never be woken (drain means the owner has
 * stopped submitting, and wakes otherwise only come from running jobs):
 * those jobs are failed with a rendezvous-deadlock error instead of
 * hanging the drain. Between drains, parked jobs legitimately wait for
 * future submissions or external notify() calls and are left alone.
 *
 * A pool starts once and shuts down once. A one-shot batch is submit()
 * for every job, then start() and shutdown(), which returns the results.
 * Per-job bookkeeping lives only for its epoch: drain() retires it, so a
 * long-lived pool's memory is bounded by its largest epoch.
 */

#ifndef KVMARM_SIM_FLEET_HH
#define KVMARM_SIM_FLEET_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/thread_annotations.hh"

namespace kvmarm {

/** A pool of host threads executing machine jobs with work stealing. */
class Fleet
{
  public:
    /** A job body: typically builds a machine, sets CPU entries, and calls
     *  machine.run(). Runs entirely on one worker thread. */
    using JobFn = std::function<void()>;

    /** What one step of a resumable job did. */
    enum class StepOutcome
    {
        Done,    //!< job complete; never stepped again
        Blocked, //!< waiting on a peer; park until notify()
    };

    /** A resumable job body: advances until done or blocked. Steps of one
     *  job never overlap, but successive steps may run on different
     *  workers. */
    using StepFn = std::function<StepOutcome()>;

    /** Outcome of one job. */
    struct JobResult
    {
        std::string name;
        bool ok = false;
        std::string error;      //!< exception text when !ok
        double wallSeconds = 0; //!< host wall-clock total across steps
        unsigned worker = 0;    //!< worker thread that ran the last step
        bool stolen = false;    //!< some step was stolen from another
                                //!< worker's deque
        std::uint64_t steps = 0; //!< times the body was entered
        /** Deterministic submission key: the id of the submitting job
         *  (kExternalSubmitter for the owner thread) and that submitter's
         *  private submission sequence number. Identical at any worker
         *  count. */
        std::uint64_t submitter = 0;
        std::uint64_t seq = 0;
    };

    /** Pool-level counters over the pool's whole life. */
    struct Stats
    {
        std::uint64_t jobsRun = 0;
        std::uint64_t jobsStolen = 0;
        std::uint64_t jobsParked = 0;  //!< Blocked returns (park events)
        std::uint64_t jobsSpawned = 0; //!< submissions from job bodies
        std::uint64_t epochs = 0;      //!< completed drain() epochs
    };

    /** Submitter id reported for jobs submitted from outside any job body
     *  (the pool owner's thread, or any non-worker thread). */
    static constexpr std::uint64_t kExternalSubmitter = 0;

    /** @param threads Worker count; 0 means one per host hardware thread. */
    explicit Fleet(unsigned threads);

    /** Retires the workers if the pool is still live (any unfinished
     *  parked jobs are failed by the implicit drain; results are
     *  discarded). Prefer an explicit shutdown(). */
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    unsigned threads() const { return threads_; }

    /// @name Long-lived pool API
    /// @{

    /**
     * Spin up the worker pool. Jobs already submitted are picked up
     * immediately; subsequent submissions feed the running workers. Hard
     * error if the pool was already started.
     */
    void start();

    /** True from start() until shutdown() retires the workers. */
    bool poolLive() const
    {
        return workersLive_.load(std::memory_order_acquire);
    }

    /**
     * Submit a job through the channel (thread-safe). Legal before
     * start() — the job queues until workers exist — and at any point
     * while the pool runs, including from inside a running job body (the
     * spawn case: the submission is stamped with the running job's id as
     * its submitter). Hard error after shutdown(). Returns the job's
     * handle for notify(), valid until the drain() that returns the job.
     */
    std::size_t submit(std::string name, JobFn fn);

    /** Submit a resumable job (same rules as submit()). */
    std::size_t submitResumable(std::string name, StepFn fn);

    /**
     * Wait until every submitted job — including jobs spawned while the
     * drain is in flight — has finished, then return the results of all
     * jobs completed since the previous drain (one *epoch*), ordered by
     * deterministic submission key. Jobs parked with no runnable peer
     * left to wake them are failed with a rendezvous-deadlock error (the
     * caller declared the submission channel idle by draining). The pool
     * stays live; submit() + drain() may be repeated. Must be called from
     * a non-worker thread; one drain at a time.
     */
    std::vector<JobResult> drain();

    /**
     * Drain the current epoch, retire the workers, and close the
     * submission channel: any later submit()/start() is a diagnosed hard
     * error. Returns the final epoch's results. Idempotent-hostile by
     * design — shutting down twice is also a hard error.
     */
    std::vector<JobResult> shutdown();

    /** Completed drain() epochs (published at each drain boundary;
     *  readable from any thread). */
    std::uint64_t epoch() const
    {
        return epochsDone_.load(std::memory_order_acquire);
    }
    /// @}

    /**
     * Wake a parked job (thread-safe; callable from job bodies — the
     * usual caller is a RingChannel wake hook running on a peer's
     * worker). Called from a job body, the woken job goes to the front of
     * that worker's deque (waker-local handoff); otherwise to its home
     * worker. If the job is mid-step, the wake is latched so the
     * subsequent Blocked return re-queues instead of parking. No-op for
     * queued/finished jobs, for handles of drained epochs, or while no
     * workers are live.
     */
    void notify(std::size_t handle);

    /** Counters since construction. Quiesced-only: valid once shutdown()
     *  has returned (or between drains with no external submitter
     *  racing), when no worker is mutating them — the analysis is waived
     *  here for the same reason. */
    const Stats &
    stats() const KVMARM_NO_THREAD_SAFETY_ANALYSIS
    {
        return stats_;
    }

  private:
    /** A queued/parked job instance. */
    struct Job
    {
        std::string name;
        StepFn fn;
        std::size_t slot;  //!< index into this epoch's bookkeeping arrays
        unsigned home;     //!< worker the job was dealt to
    };

    /** Per-slot metadata that outlives the queued Job instance. The key
     *  path is the submitter chain's seq numbers (external jobs have a
     *  one-element path); lexicographic path order is the deterministic
     *  result order. */
    struct JobMeta
    {
        std::uint64_t id = 0;        //!< deterministic id (key hash chain)
        std::uint64_t submitter = 0; //!< submitter's id (0 = external)
        std::uint64_t seq = 0;       //!< submitter-private sequence
        std::uint64_t childSeq = 0;  //!< next seq this job hands a spawn
        std::vector<std::uint64_t> path; //!< key path for result ordering
    };

    /** Lifecycle of one job. */
    enum class JobState : std::uint8_t
    {
        Queued,   //!< in some worker's deque
        Running,  //!< a worker is inside the body
        Parked,   //!< Blocked; held in parked_ awaiting notify()
        Woken,    //!< Running with a latched notify()
        Finished, //!< done or failed
    };

    /** One worker's deque; the mutex covers only deque operations (job
     *  bodies run outside any lock). Lock order: schedMutex_ before any
     *  Worker::mutex, never the reverse. */
    struct Worker
    {
        Mutex mutex;
        std::deque<Job> jobs KVMARM_GUARDED_BY(mutex);
        /** Host thread identity, for resolving which job is submitting
         *  (written under schedMutex_ in start() before any job body can
         *  run; read under schedMutex_ by submit()). */
        std::thread::id tid;
        /** Slot of the job this worker is currently stepping, or npos. */
        std::size_t currentSlot = kNoSlot;
    };

    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    std::size_t submitLocked(std::string name, StepFn fn)
        KVMARM_REQUIRES(schedMutex_);
    /** The worker whose job body is running on this thread, if any. */
    Worker *steppingWorker() KVMARM_REQUIRES(schedMutex_);
    bool popOwn(unsigned w, Job &out);
    bool stealFrom(unsigned thief, Job &out);
    void enqueue(Job job) KVMARM_REQUIRES(schedMutex_);
    void failDeadlockedParked() KVMARM_REQUIRES(schedMutex_);
    std::vector<JobResult> collectEpoch() KVMARM_REQUIRES(schedMutex_);
    std::vector<JobResult> drainLocked(CondLock &lock)
        KVMARM_REQUIRES(schedMutex_);
    void retireWorkers();
    void workerMain(unsigned w);

    unsigned threads_;
    /** True while the worker pool is live. Atomic so notify()/poolLive()
     *  from job bodies (worker threads) stay race-free. */
    std::atomic<bool> workersLive_{false};
    std::atomic<std::uint64_t> epochsDone_{0};
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> pool_;

    /** Scheduling state shared by workers, submitters and notify(), one
     *  slot per job of the current epoch; drain() clears them. Deques,
     *  not vectors: slots grow while workers hold references to existing
     *  elements, and deque growth never moves them. */
    Mutex schedMutex_;
    /** Workers sleep on cvWork_ (signalled by submissions and wakes);
     *  drain() sleeps on cvDone_ (signalled when unfinished_ hits zero).
     *  Separate so a submission's notify_one can never be swallowed by
     *  the draining thread instead of a worker. */
    std::condition_variable_any cvWork_;
    std::condition_variable_any cvDone_;
    std::deque<JobState> state_ KVMARM_GUARDED_BY(schedMutex_);
    std::deque<Job> parked_ KVMARM_GUARDED_BY(schedMutex_);
    std::deque<JobMeta> meta_ KVMARM_GUARDED_BY(schedMutex_);
    std::deque<JobResult> results_ KVMARM_GUARDED_BY(schedMutex_);
    /** Handle of slot 0: the jobs of all drained epochs. */
    std::size_t slotBase_ KVMARM_GUARDED_BY(schedMutex_) = 0;
    std::uint64_t externalSeq_ KVMARM_GUARDED_BY(schedMutex_) = 0;
    std::size_t unfinished_ KVMARM_GUARDED_BY(schedMutex_) = 0;
    std::size_t queuedCount_ KVMARM_GUARDED_BY(schedMutex_) = 0;
    unsigned runningCount_ KVMARM_GUARDED_BY(schedMutex_) = 0;
    unsigned idleWorkers_ KVMARM_GUARDED_BY(schedMutex_) = 0;
    bool draining_ KVMARM_GUARDED_BY(schedMutex_) = false;
    bool stopping_ KVMARM_GUARDED_BY(schedMutex_) = false;
    bool shutdown_ KVMARM_GUARDED_BY(schedMutex_) = false;

    Mutex statsMutex_;
    Stats stats_ KVMARM_GUARDED_BY(statsMutex_);
};

} // namespace kvmarm

#endif // KVMARM_SIM_FLEET_HH
