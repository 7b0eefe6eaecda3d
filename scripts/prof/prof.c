// A sampling profiler for a box with no perf and no gdb (scripts/profile.sh).
//
//   cc -O2 -shared -fPIC -o prof.so prof.c
//   PROF_OUT=run.prof LD_PRELOAD=./prof.so ./perf/target/release/lsm_perf ...
//
// The constructor arms ITIMER_PROF at 1 ms of process CPU time; the SIGPROF
// handler stores the interrupted thread's backtrace(); at exit the profiled
// binary's identity (path, size, mtime), the process's /proc/self/maps and
// every stack go to $PROF_OUT, for report.py to rebase and resolve — against
// that binary and no other: a rebuild moves every address, and a report over
// kept dumps would name the wrong functions without complaint. Nothing is
// written while the program runs.
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 17)
#define MAX_DEPTH 48
// backtrace() from a handler starts with the handler and the signal
// trampoline; the interrupted instruction is the third frame.
#define HANDLER_FRAMES 2

static void *stacks[MAX_SAMPLES][MAX_DEPTH];
static int depths[MAX_SAMPLES];
static int taken;

static void on_prof(int sig) {
    (void)sig;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        depths[i] = backtrace(stacks[i], MAX_DEPTH);
}

static void set_timer(long usec) {
    struct itimerval every = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &every, NULL);
}

static void dump(void) {
    set_timer(0);
    const char *path = getenv("PROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out)
        return;
    char line[4096];
    struct stat exe;
    ssize_t len = readlink("/proc/self/exe", line, sizeof line - 1);
    if (len < 0 || stat("/proc/self/exe", &exe) != 0) {
        fclose(out);
        return;
    }
    line[len] = 0;
    fprintf(out, "BINARY %lld %lld.%09ld %s\n", (long long)exe.st_size,
            (long long)exe.st_mtim.tv_sec, exe.st_mtim.tv_nsec, line);
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        fputs(line, out);
    if (maps)
        fclose(maps);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "STACKS %d taken %d kept\n", taken, n);
    for (int i = 0; i < n; i++) {
        for (int f = HANDLER_FRAMES; f < depths[i]; f++)
            fprintf(out, "%s%lx", f > HANDLER_FRAMES ? " " : "", (unsigned long)stacks[i][f]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    // The first backtrace() loads the unwinder and may allocate: not from
    // a signal handler.
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction act;
    memset(&act, 0, sizeof act);
    act.sa_handler = on_prof;
    act.sa_flags = SA_RESTART;
    sigemptyset(&act.sa_mask);
    sigaction(SIGPROF, &act, NULL);
    atexit(dump);
    set_timer(1000);
}
