/*
 * SIGPROF sampler, loaded with LD_PRELOAD by tools/profile.sh.
 *
 * ITIMER_PROF fires on user + system CPU time of the whole process, so a
 * sample lands in libc and behind syscalls too (the PC is then the libc
 * syscall site). Each sample records the PC and a frame-pointer walk.
 * Frames are read with process_vm_readv, which fails cleanly on an
 * unmapped address: a walk that leaves a fiber stack or meets a frame
 * without a frame pointer stops instead of faulting. At exit the samples
 * ("S pc ret ret ...", hex) and /proc/self/maps ("M ...") are written to
 * profile-samples.<pid>.txt in the working directory.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

enum { kDepth = 32, kMaxWords = 1 << 21, kPeriodUs = 1000 };

static uintptr_t *words; /* per sample: depth, pc, return addresses */
static size_t used;      /* reserved atomically by concurrent handlers */
static pid_t self;

static int
readFrame(uintptr_t fp, uintptr_t out[2])
{
    struct iovec local = {out, 2 * sizeof(uintptr_t)};
    struct iovec remote = {(void *)fp, 2 * sizeof(uintptr_t)};
    return process_vm_readv(self, &local, 1, &remote, 1, 0) ==
           (ssize_t)(2 * sizeof(uintptr_t));
}

static void
onProf(int sig, siginfo_t *info, void *uc_void)
{
    (void)sig;
    (void)info;
    const mcontext_t *mc = &((ucontext_t *)uc_void)->uc_mcontext;
    size_t at = __atomic_fetch_add(&used, kDepth + 2, __ATOMIC_RELAXED);
    if (at + kDepth + 2 > kMaxWords)
        return;
    uintptr_t *s = words + at, n = 0, fp = mc->gregs[REG_RBP], f[2];
    s[1] = mc->gregs[REG_RIP];
    while (n < kDepth && fp && !(fp & 7) && readFrame(fp, f) && f[1]) {
        s[2 + n++] = f[1];
        if (f[0] <= fp) /* callers live at higher addresses */
            break;
        fp = f[0];
    }
    s[0] = n + 1; /* published last; 0 marks a slot still being filled */
}

__attribute__((constructor)) static void
start(void)
{
    self = getpid();
    words = calloc(kMaxWords, sizeof(uintptr_t));
    struct sigaction sa = {0};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, kPeriodUs}, {0, kPeriodUs}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void
finish(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64], line[512];
    snprintf(path, sizeof path, "profile-samples.%d.txt", (int)self);
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    size_t end = used < kMaxWords ? used : kMaxWords;
    for (size_t at = 0; at + kDepth + 2 <= end; at += kDepth + 2) {
        fputc('S', out);
        for (uintptr_t i = 0; i < words[at]; ++i)
            fprintf(out, " %lx", (unsigned long)words[at + 1 + i]);
        fputc('\n', out);
    }
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    fclose(maps);
    fclose(out);
}
