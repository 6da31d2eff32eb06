#include "sim/fiber.hh"

#include <cstdint>

#include <sys/mman.h>

#include "sim/logging.hh"

#if !defined(__x86_64__)
#error "src/sim/fiber.cc: kvmarm_fiber_switch is x86-64 only; port it (and Fiber::resume's first frame) to this host architecture"
#endif

// Neither ThreadSanitizer nor AddressSanitizer can see through the raw stack
// switch below: TSan would keep attributing execution to the old stack and
// report spurious races (or lose real ones), and ASan would check accesses
// against the wrong stack bounds. Both have a fiber API for exactly this
// kind of user-level scheduler, so every switch is announced to them.
#if defined(__SANITIZE_THREAD__)
#define KVMARM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define KVMARM_TSAN_FIBERS 1
#endif
#endif
#ifndef KVMARM_TSAN_FIBERS
#define KVMARM_TSAN_FIBERS 0
#endif

#if defined(__SANITIZE_ADDRESS__)
#define KVMARM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KVMARM_ASAN_FIBERS 1
#endif
#endif
#ifndef KVMARM_ASAN_FIBERS
#define KVMARM_ASAN_FIBERS 0
#endif

#if KVMARM_TSAN_FIBERS
extern "C" {
void *__tsan_get_current_fiber(void);
void *__tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void *fiber);
void __tsan_switch_to_fiber(void *fiber, unsigned flags);
}
#endif

#if KVMARM_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void **fake_stack_save, const void *bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void *fake_stack_save,
                                     const void **bottom_old,
                                     std::size_t *size_old);
}
#endif

/**
 * Save the running context's callee-saved state on its own stack, store its
 * stack pointer to *save_sp, and continue the context whose stack pointer is
 * load_sp. Everything the System V ABI lets a callee clobber is dead across
 * a call, so the saved set is rbp, rbx, r12-r15, MXCSR and the x87 control
 * word. The frame, from the saved stack pointer upwards:
 *   +0 x87 control word, +8 MXCSR, +16 r15, r14, r13, r12, rbx, +56 rbp,
 *   +64 return address.
 */
extern "C" void kvmarm_fiber_switch(void **save_sp, void *load_sp);

asm(".text\n"
    ".p2align 4\n"
    ".globl kvmarm_fiber_switch\n"
    ".hidden kvmarm_fiber_switch\n"
    ".type kvmarm_fiber_switch, @function\n"
    "kvmarm_fiber_switch:\n"
    "    pushq %rbp\n"
    "    pushq %rbx\n"
    "    pushq %r12\n"
    "    pushq %r13\n"
    "    pushq %r14\n"
    "    pushq %r15\n"
    "    subq $16, %rsp\n"
    "    stmxcsr 8(%rsp)\n"
    "    fnstcw (%rsp)\n"
    "    movq %rsp, (%rdi)\n"
    "    movq %rsi, %rsp\n"
    "    fldcw (%rsp)\n"
    "    ldmxcsr 8(%rsp)\n"
    "    addq $16, %rsp\n"
    "    popq %r15\n"
    "    popq %r14\n"
    "    popq %r13\n"
    "    popq %r12\n"
    "    popq %rbx\n"
    "    popq %rbp\n"
    "    ret\n"
    ".size kvmarm_fiber_switch, .-kvmarm_fiber_switch\n");

namespace kvmarm {

namespace {
// domlint: allow(ownership-static) — per-thread fiber context: each worker thread runs one machine, so this is machine-owned by construction
thread_local Fiber *currentFiber = nullptr;
} // namespace

Fiber::Fiber(std::function<void()> fn, std::size_t stack_size)
    : fn_(std::move(fn)), stack_(new unsigned char[stack_size]),
      stackSize_(stack_size)
{
}

Fiber::~Fiber()
{
#if KVMARM_TSAN_FIBERS
    // Destruction happens from the scheduler context, never from inside
    // the fiber itself, so this is never the current TSan fiber (this
    // also covers fibers abandoned mid-run by MachineBase::requestStop).
    if (tsanFiber_)
        __tsan_destroy_fiber(tsanFiber_);
#endif
    // Give the stack's pages back to the kernel before freeing it, all but
    // the top few that a fiber's usual call depth touches. The stack is a 1 MiB chunk
    // of the malloc arena of the thread that first resumed the fiber, often
    // laid over pages that earlier objects left resident. Freed as is,
    // those pages stay resident while the arena reuses the chunk for small
    // objects, and on a long-lived worker pool the footprint creeps up by
    // an amount that depends on how fibers happened to spread over threads.
    // Keeping the top pages spares the next fiber placed here a page fault.
    constexpr std::uintptr_t kPage = 4096;
    constexpr std::uintptr_t kKeptTop = 4 * kPage;
    const auto base = reinterpret_cast<std::uintptr_t>(stack_.get());
    const std::uintptr_t lo = (base + kPage - 1) & ~(kPage - 1);
    const std::uintptr_t hi = ((base + stackSize_) & ~(kPage - 1)) - kKeptTop;
    if (hi > lo)
        madvise(reinterpret_cast<void *>(lo), hi - lo, MADV_DONTNEED);
}

Fiber *
Fiber::current()
{
    return currentFiber;
}

void
Fiber::trampoline()
{
    Fiber *self = currentFiber;
#if KVMARM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(nullptr, &self->asanReturnBottom_,
                                    &self->asanReturnSize_);
#endif
    self->fn_();
    self->finished_ = true;
    self->switchOut();
    panic("Fiber: resumed a finished fiber");
}

void
Fiber::switchOut()
{
#if KVMARM_TSAN_FIBERS
    __tsan_switch_to_fiber(tsanReturn_, 0);
#endif
#if KVMARM_ASAN_FIBERS
    // A finished fiber never runs again: a null save slot tells ASan to
    // release its fake stack.
    void *fake = nullptr;
    __sanitizer_start_switch_fiber(finished_ ? nullptr : &fake,
                                   asanReturnBottom_, asanReturnSize_);
#endif
    kvmarm_fiber_switch(&sp_, returnSp_);
#if KVMARM_ASAN_FIBERS
    // The next resumer may run on another thread's stack.
    __sanitizer_finish_switch_fiber(fake, &asanReturnBottom_,
                                    &asanReturnSize_);
#endif
}

void
Fiber::resume()
{
    if (finished_)
        panic("Fiber::resume on finished fiber");
    if (currentFiber)
        panic("Fiber::resume from inside a fiber (no nesting)");

    Fiber *prev = currentFiber;
    currentFiber = this;

    if (!started_) {
        started_ = true;
        // Hand-build the frame kvmarm_fiber_switch pops: zeroed callee-saved
        // registers (rbp = 0 ends frame-pointer walks), the resumer's MXCSR
        // and x87 control word, and Fiber::trampoline as the return address.
        // The trampoline's slot is 16-byte aligned so the trampoline starts
        // with the stack alignment of a function just called; the null
        // word above it ends unwinds and backtraces.
        auto top = reinterpret_cast<std::uintptr_t>(stack_.get() + stackSize_) &
                   ~std::uintptr_t{15};
        auto *frame = reinterpret_cast<std::uint64_t *>(top) - 10;
        std::uint16_t fpucw = 0;
        std::uint32_t mxcsr = 0;
        asm volatile("fnstcw %0" : "=m"(fpucw));
        asm volatile("stmxcsr %0" : "=m"(mxcsr));
        frame[0] = fpucw;
        frame[1] = mxcsr;
        for (int i = 2; i < 8; ++i)
            frame[i] = 0;
        frame[8] = reinterpret_cast<std::uintptr_t>(&Fiber::trampoline);
        frame[9] = 0;
        sp_ = frame;
    }
#if KVMARM_TSAN_FIBERS
    if (!tsanFiber_)
        tsanFiber_ = __tsan_create_fiber(0);
    tsanReturn_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
#if KVMARM_ASAN_FIBERS
    void *fake = nullptr;
    __sanitizer_start_switch_fiber(&fake, stack_.get(), stackSize_);
#endif
    kvmarm_fiber_switch(&returnSp_, sp_);
#if KVMARM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
    currentFiber = prev;
}

void
Fiber::yield()
{
    Fiber *self = currentFiber;
    if (!self)
        panic("Fiber::yield outside any fiber");
    self->switchOut();
}

} // namespace kvmarm
