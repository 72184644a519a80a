// A SIGPROF sampler to LD_PRELOAD into one process (tools/profile.sh
// builds and drives it). ITIMER_PROF fires on consumed CPU time; each
// tick records the interrupted instruction pointer. At exit the process
// writes its /proc/self/maps, then one "sample 0x<rip>" line per tick,
// to the file named by SAMPLER_OUT.
//
//   cc -shared -fPIC -O2 -o sampler.so tools/sampler.c
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)

static unsigned long samples[MAX_SAMPLES];
static volatile unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void sampler_start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    // Asks for 1 kHz; the kernel delivers at its tick rate, which may
    // be coarser (profile.sh states the granularity it saw).
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void sampler_dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    fclose(maps);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "sample 0x%lx\n", samples[i]);
    fclose(out);
}
