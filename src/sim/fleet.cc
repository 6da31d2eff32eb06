#include "sim/fleet.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "sim/logging.hh"

namespace kvmarm {

namespace {

// Deterministic job ids are an FNV-1a chain over the (submitter-id,
// submission-seq) key: a job's id hashes its submitter's id with its seq,
// so the id of any job — however deep the spawn tree — is a pure function
// of the submission key path and identical at any worker count.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t
fnvChain(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

} // namespace

Fleet::Fleet(unsigned threads) : threads_(threads)
{
    if (threads_ == 0) {
        threads_ = std::thread::hardware_concurrency();
        if (threads_ == 0)
            threads_ = 1;
    }
    // The Worker structs (deques + identity) exist for the Fleet's whole
    // life so submissions can be dealt to their home deque before the
    // worker threads are spawned; start()/retireWorkers() only manage the
    // threads.
    workers_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w)
        workers_.push_back(std::make_unique<Worker>());
}

Fleet::~Fleet()
{
    if (!workersLive_.load(std::memory_order_acquire))
        return;
    {
        CondLock lock(schedMutex_);
        drainLocked(lock); // results discarded; parked jobs are failed
        shutdown_ = true;
    }
    retireWorkers();
}

std::size_t
Fleet::submit(std::string name, JobFn fn)
{
    if (!fn)
        fatal("Fleet::submit: job '%s' has no body", name.c_str());
    return submitResumable(std::move(name),
                           [f = std::move(fn)]() -> StepOutcome {
                               f();
                               return StepOutcome::Done;
                           });
}

std::size_t
Fleet::submitResumable(std::string name, StepFn fn)
{
    if (!fn)
        fatal("Fleet::submit: job '%s' has no body", name.c_str());
    CondLock lock(schedMutex_);
    return submitLocked(std::move(name), std::move(fn));
}

std::size_t
Fleet::submitLocked(std::string name, StepFn fn)
{
    if (shutdown_) {
        fatal("Fleet::submit: job '%s' submitted after shutdown() — the "
              "submission channel is closed; create a new Fleet",
              name.c_str());
    }

    // Resolve the submitter: a submission from a worker thread that is
    // inside a job body is a spawn stamped with that job's id; anything
    // else (the owner thread, before start() or mid-run) is external.
    // Worker tids are recorded under schedMutex_ by each worker before it
    // pops any job, so by the time a job body can call submit() its own
    // worker's tid is visible here.
    const Worker *parent = steppingWorker();
    const std::size_t parentSlot = parent ? parent->currentSlot : kNoSlot;

    JobMeta meta;
    unsigned home = 0;
    if (parentSlot != kNoSlot) {
        JobMeta &pm = meta_[parentSlot];
        meta.submitter = pm.id;
        meta.seq = pm.childSeq++;
        meta.id = fnvChain(pm.id, meta.seq);
        meta.path = pm.path;
        meta.path.push_back(meta.seq);
        // Spawn arrival order races across workers; the id does not.
        home = static_cast<unsigned>(meta.id % threads_);
    } else {
        meta.submitter = kExternalSubmitter;
        meta.seq = externalSeq_++;
        meta.id = fnvChain(kFnvOffset, meta.seq);
        meta.path = {meta.seq};
        // Round-robin deal by external submission order.
        home = static_cast<unsigned>(meta.seq % threads_);
    }

    std::size_t slot = state_.size();
    state_.push_back(JobState::Queued);
    parked_.emplace_back();
    JobResult res;
    res.name = name;
    res.submitter = meta.submitter;
    res.seq = meta.seq;
    results_.push_back(std::move(res));
    meta_.push_back(std::move(meta));
    ++unfinished_;
    enqueue(Job{std::move(name), std::move(fn), slot, home});
    cvWork_.notify_one();

    if (parentSlot != kNoSlot) {
        MutexLock stats(statsMutex_);
        ++stats_.jobsSpawned;
    }
    return slotBase_ + slot;
}

bool
Fleet::popOwn(unsigned w, Job &out)
{
    Worker &worker = *workers_[w];
    MutexLock lock(worker.mutex);
    if (worker.jobs.empty())
        return false;
    out = std::move(worker.jobs.front());
    worker.jobs.pop_front();
    return true;
}

bool
Fleet::stealFrom(unsigned thief, Job &out)
{
    // Scan the other workers starting just past the thief so steal traffic
    // spreads instead of always hammering worker 0. Victims are popped
    // from the back: the front is what the owner takes next, so stealing
    // the tail minimizes contention on the same job slot.
    for (unsigned off = 1; off < threads_; ++off) {
        Worker &victim = *workers_[(thief + off) % threads_];
        MutexLock lock(victim.mutex);
        if (victim.jobs.empty())
            continue;
        out = std::move(victim.jobs.back());
        victim.jobs.pop_back();
        return true;
    }
    return false;
}

void
Fleet::enqueue(Job job)
{
    ++queuedCount_;
    Worker &home = *workers_[job.home];
    MutexLock lock(home.mutex);
    home.jobs.push_back(std::move(job));
}

Fleet::Worker *
Fleet::steppingWorker()
{
    const auto self = std::this_thread::get_id();
    for (const auto &wp : workers_) {
        if (wp->tid == self && wp->currentSlot != kNoSlot)
            return wp.get();
    }
    return nullptr;
}

void
Fleet::notify(std::size_t handle)
{
    if (!workersLive_.load(std::memory_order_acquire))
        return;
    CondLock lock(schedMutex_);
    // Handles of earlier epochs were retired by drain(); their jobs are
    // finished, so waking them is a no-op like any finished job.
    if (handle < slotBase_ || handle - slotBase_ >= state_.size())
        return;
    const std::size_t index = handle - slotBase_;
    switch (state_[index]) {
      case JobState::Parked:
        state_[index] = JobState::Queued;
        if (Worker *waker = steppingWorker()) {
            // Waker-local handoff: the waker is a job body on one of our
            // workers, which will pop its own deque as soon as its step
            // returns. Run the woken job there next instead of paying a
            // cross-thread wake; an awake thief can still steal it.
            ++queuedCount_;
            MutexLock wlock(waker->mutex);
            waker->jobs.push_front(std::move(parked_[index]));
        } else {
            enqueue(std::move(parked_[index]));
            cvWork_.notify_one();
        }
        break;
      case JobState::Running:
        // Mid-step wake: latch it so a Blocked return re-queues instead
        // of parking. Without the latch this wake would be lost.
        state_[index] = JobState::Woken;
        break;
      case JobState::Queued:
      case JobState::Woken:
      case JobState::Finished:
        break;
    }
}

void
Fleet::failDeadlockedParked()
{
    // Only meaningful mid-drain: the owner has declared the channel idle,
    // so a parked job with no queued or running peer left has no possible
    // waker (wakes come from running jobs or from an owner that is now
    // blocked in drain()). Between drains a fully parked fleet is simply
    // waiting for future submissions or an external notify() and is left
    // alone.
    if (!draining_ || idleWorkers_ != threads_ || queuedCount_ != 0 ||
        runningCount_ != 0 || unfinished_ == 0) {
        return;
    }
    for (std::size_t i = 0; i < state_.size(); ++i) {
        if (state_[i] != JobState::Parked)
            continue;
        results_[i].ok = false;
        results_[i].error =
            "fleet rendezvous deadlock: job parked with no "
            "runnable peer left to wake it";
        state_[i] = JobState::Finished;
        parked_[i] = Job{};
        --unfinished_;
    }
    cvDone_.notify_all();
}

void
Fleet::workerMain(unsigned w)
{
    {
        CondLock lock(schedMutex_);
        workers_[w]->tid = std::this_thread::get_id();
    }
    while (true) {
        Job job;
        bool stolen = false;
        bool got = popOwn(w, job);
        if (!got && stealFrom(w, job)) {
            got = true;
            stolen = true;
        }
        if (!got) {
            CondLock lock(schedMutex_);
            ++idleWorkers_;
            // If this was the last worker to go idle during a drain, any
            // survivors are unwakeable parked jobs — fail them so the
            // drain completes instead of hanging.
            failDeadlockedParked();
            while (!stopping_ && queuedCount_ == 0)
                cvWork_.wait(lock.native());
            --idleWorkers_;
            if (stopping_ && queuedCount_ == 0)
                return;
            continue;
        }

        std::size_t slot = job.slot;
        JobResult *res = nullptr;
        {
            CondLock lock(schedMutex_);
            // Parked->Queued and the deal both count the job as queued;
            // it is now running.
            --queuedCount_;
            ++runningCount_;
            state_[slot] = JobState::Running;
            workers_[w]->currentSlot = slot;
            res = &results_[slot];
        }

        res->worker = w;
        res->stolen |= stolen;
        ++res->steps;

        // domlint: allow(wall-clock) — measurement only, never feeds sim state
        auto t0 = std::chrono::steady_clock::now();
        StepOutcome out = StepOutcome::Done;
        bool failed = false;
        try {
            out = job.fn();
            if (out == StepOutcome::Done)
                res->ok = true;
        } catch (const std::exception &e) {
            res->error = e.what();
            failed = true;
        } catch (...) {
            res->error = "unknown exception";
            failed = true;
        }
        // domlint: allow(wall-clock) — measurement only, never feeds sim state
        auto t1 = std::chrono::steady_clock::now();
        res->wallSeconds += std::chrono::duration<double>(t1 - t0).count();

        bool finished = failed || out == StepOutcome::Done;
        bool parkedNow = false;
        {
            CondLock lock(schedMutex_);
            --runningCount_;
            workers_[w]->currentSlot = kNoSlot;
            if (finished) {
                state_[slot] = JobState::Finished;
                --unfinished_;
                if (unfinished_ == 0)
                    cvDone_.notify_all();
            } else if (state_[slot] == JobState::Woken) {
                // notify() landed while the step ran; go straight back to
                // the queue.
                state_[slot] = JobState::Queued;
                enqueue(std::move(job));
                cvWork_.notify_one();
            } else {
                state_[slot] = JobState::Parked;
                parked_[slot] = std::move(job);
                parkedNow = true;
            }
        }

        {
            MutexLock lock(statsMutex_);
            stats_.jobsRun += finished;
            stats_.jobsStolen += stolen;
            stats_.jobsParked += parkedNow;
        }
    }
}

void
Fleet::start()
{
    {
        CondLock lock(schedMutex_);
        if (shutdown_)
            fatal("Fleet::start: the pool was shut down — create a new "
                  "Fleet");
        if (workersLive_.load(std::memory_order_acquire))
            fatal("Fleet::start: the worker pool is already live");
        workersLive_.store(true, std::memory_order_release);
    }
    pool_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w)
        pool_.emplace_back([this, w] { workerMain(w); });
}

std::vector<Fleet::JobResult>
Fleet::collectEpoch()
{
    // Deterministic result order: lexicographic on the submission key
    // path, so external jobs come out in submission order and a parent's
    // spawns sort directly after the parent in spawn order — never in
    // completion or arrival order.
    std::vector<std::pair<const std::vector<std::uint64_t> *, std::size_t>>
        order;
    for (std::size_t i = 0; i < meta_.size(); ++i)
        order.emplace_back(&meta_[i].path, i);
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) { return *a.first < *b.first; });
    std::vector<JobResult> out;
    out.reserve(order.size());
    for (const auto &entry : order)
        out.push_back(std::move(results_[entry.second]));
    return out;
}

std::vector<Fleet::JobResult>
Fleet::drainLocked(CondLock &lock)
{
    if (draining_)
        fatal("Fleet::drain: a drain is already in progress");
    if (steppingWorker())
        fatal("Fleet::drain: called from inside a job body — only the "
              "pool owner may quiesce the fleet");
    draining_ = true;
    failDeadlockedParked(); // every worker may already be asleep
    while (unfinished_ != 0) {
        cvDone_.wait(lock.native());
        failDeadlockedParked();
    }
    draining_ = false;
    auto out = collectEpoch();
    // Every job of the epoch is finished and returned: retire its slots
    // so the bookkeeping stays bounded by one epoch, not the pool's life.
    slotBase_ += state_.size();
    state_.clear();
    parked_.clear();
    meta_.clear();
    results_.clear();
    epochsDone_.fetch_add(1, std::memory_order_release);
    {
        MutexLock stats(statsMutex_);
        ++stats_.epochs;
    }
    return out;
}

std::vector<Fleet::JobResult>
Fleet::drain()
{
    CondLock lock(schedMutex_);
    if (!workersLive_.load(std::memory_order_acquire))
        fatal("Fleet::drain: the worker pool is not live — start() it "
              "first");
    return drainLocked(lock);
}

std::vector<Fleet::JobResult>
Fleet::shutdown()
{
    std::vector<JobResult> out;
    {
        CondLock lock(schedMutex_);
        if (shutdown_)
            fatal("Fleet::shutdown: the pool was already shut down");
        if (!workersLive_.load(std::memory_order_acquire))
            fatal("Fleet::shutdown: the worker pool is not live — start() "
                  "it first");
        out = drainLocked(lock);
        shutdown_ = true;
    }
    retireWorkers();
    return out;
}

void
Fleet::retireWorkers()
{
    {
        CondLock lock(schedMutex_);
        stopping_ = true;
        cvWork_.notify_all();
    }
    for (std::thread &t : pool_)
        t.join();
    pool_.clear();
    workersLive_.store(false, std::memory_order_release);
}

} // namespace kvmarm
