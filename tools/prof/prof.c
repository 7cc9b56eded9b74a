/* Sampling profiler for hosts with no perf, valgrind or gdb: preload it and
 * the process samples its own program counter on a CPU-time timer.
 *
 *   cc -O2 -shared -fPIC -o prof.so prof.c
 *   ALC_PROF_OUT=run.prof LD_PRELOAD=./prof.so ./program args..
 *
 * At exit it writes the memory map ("M <line of /proc/self/maps>") and the
 * samples ("S <hex pc>") to $ALC_PROF_OUT (default alc.prof); sym.py turns
 * those into functions and lines. The handler does one atomic add and one
 * store, so it is safe in any thread at any point. Preload it into the
 * program itself, not a wrapper script: every process that inherits
 * LD_PRELOAD writes the same file when it exits.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)

static unsigned long samples[MAX_SAMPLES];
static unsigned long taken;

static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("ALC_PROF_OUT");
    FILE *out = fopen(path ? path : "alc.prof", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "S %lx\n", samples[i]);
    fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction act = {0};
    act.sa_sigaction = on_tick;
    act.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &act, NULL);
    /* Asks for 1 ms; the kernel rounds up to its tick (10 ms in the
     * container this was written in), so run for 40 s or more. */
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
