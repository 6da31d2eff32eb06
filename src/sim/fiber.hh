/**
 * @file
 * Cooperative fibers, one per simulated CPU.
 *
 * Simulated software — guest kernels, the hypervisor, the host kernel — runs
 * as ordinary synchronous C++ on a fiber. The machine scheduler resumes the
 * runnable CPU with the smallest cycle clock, so multicore interactions
 * (IPIs, spinning on shared memory, WFI wakeups) interleave deterministically
 * without threads.
 *
 * A switch is a register-only stack swap (fiber.cc): it saves the
 * callee-saved registers, MXCSR and the x87 control word, and never enters
 * the kernel. The signal mask is not part of a fiber's context.
 */

#ifndef KVMARM_SIM_FIBER_HH
#define KVMARM_SIM_FIBER_HH

#include <cstddef>
#include <functional>
#include <memory>

namespace kvmarm {

/** A single cooperative fiber with its own stack. */
class Fiber
{
  public:
    /**
     * @param fn Entry function; the fiber is finished when it returns.
     * @param stack_size Stack bytes; simulated software nests deeply
     *        (guest op -> trap -> world switch -> host -> QEMU), so the
     *        default is generous. The stack is not zero-filled.
     */
    explicit Fiber(std::function<void()> fn,
                   std::size_t stack_size = 1024 * 1024);

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;
    ~Fiber();

    /** Switch from the caller into the fiber. Must not be called from a
     *  fiber (no nesting of resumes). */
    void resume();

    /** Yield from inside the currently running fiber back to its resumer. */
    static void yield();

    /** True once the entry function has returned. */
    bool finished() const { return finished_; }

    /** The fiber currently executing, or nullptr if in the scheduler. */
    static Fiber *current();

  private:
    static void trampoline();

    /** Switch from the fiber back to its resumer. */
    void switchOut();

    std::function<void()> fn_;
    std::unique_ptr<unsigned char[]> stack_;
    std::size_t stackSize_;
    /** Saved stack pointers: the fiber's while it is suspended, the
     *  resumer's while the fiber runs. */
    void *sp_ = nullptr;
    void *returnSp_ = nullptr;
    bool started_ = false;
    bool finished_ = false;

    /** Sanitizer fiber state (always present so the layout does not depend
     *  on the sanitizer config; only touched under TSan/ASan). Neither
     *  sanitizer can follow a hand-written stack switch, so fiber.cc
     *  announces every switch through their fiber interfaces. */
    void *tsanFiber_ = nullptr;
    void *tsanReturn_ = nullptr;
    const void *asanReturnBottom_ = nullptr;
    std::size_t asanReturnSize_ = 0;
};

} // namespace kvmarm

#endif // KVMARM_SIM_FIBER_HH
