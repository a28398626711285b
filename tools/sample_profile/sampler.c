/* SIGPROF stack sampler, loaded with LD_PRELOAD (EXPERIMENTS.md, "Sampling
 * profiler", has the recipe).
 *
 * Every SAMPLE_PROFILE_HZ (default 997) per second of process CPU time the
 * kernel sends SIGPROF; the handler records the interrupted PC and walks the
 * frame-pointer chain (x86-64, code built with -fno-omit-frame-pointer),
 * accepting only 8-byte-aligned frames that move up the stack and stay
 * within 8 MiB above the interrupted stack pointer. At exit the samples, one
 * line of hex addresses per sample (leaf first), and a copy of
 * /proc/self/maps go to SAMPLE_PROFILE_OUT (default sample_profile.out). */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define BUF_WORDS (1u << 22) /* 32 MiB of bss; pages are touched only as used */
#define STACK_SPAN (8u << 20)

static uint64_t buf[BUF_WORDS];
static uint64_t used; /* words; bumped atomically, so any thread may sample */
static uint64_t lost;

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig, (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
  uint64_t frames[MAX_DEPTH];
  unsigned depth = 0;
  frames[depth++] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
  const uint64_t lo = (uint64_t)uc->uc_mcontext.gregs[REG_RSP];
  uint64_t fp = (uint64_t)uc->uc_mcontext.gregs[REG_RBP];
  while (depth < MAX_DEPTH && fp >= lo && fp < lo + STACK_SPAN && (fp & 7) == 0) {
    const uint64_t* frame = (const uint64_t*)fp;
    if (frame[1] == 0) break;
    frames[depth++] = frame[1]; /* return address */
    if (frame[0] <= fp) break;  /* the chain must move up the stack */
    fp = frame[0];
  }
  const uint64_t at = __atomic_fetch_add(&used, depth + 1, __ATOMIC_RELAXED);
  if (at + depth + 1 > BUF_WORDS) {
    __atomic_fetch_add(&lost, 1, __ATOMIC_RELAXED);
    return;
  }
  buf[at] = depth;
  for (unsigned i = 0; i < depth; ++i) buf[at + 1 + i] = frames[i];
}

__attribute__((constructor)) static void sampler_start(void) {
  const char* hz_env = getenv("SAMPLE_PROFILE_HZ");
  const long hz = hz_env ? atol(hz_env) : 997;
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, 1000000 / (hz > 0 ? hz : 997)}, {0, 1000000 / (hz > 0 ? hz : 997)}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char* path = getenv("SAMPLE_PROFILE_OUT");
  FILE* out = fopen(path ? path : "sample_profile.out", "w");
  if (out == NULL) return;
  const uint64_t end = used < BUF_WORDS ? used : BUF_WORDS;
  for (uint64_t at = 0; at < end && at + buf[at] < end; at += buf[at] + 1) {
    for (uint64_t i = 1; i <= buf[at]; ++i) fprintf(out, i > 1 ? " %lx" : "%lx", buf[at + i]);
    fputc('\n', out);
  }
  fprintf(out, "# lost %lu\n# maps\n", lost);
  FILE* maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps != NULL && fgets(line, sizeof line, maps) != NULL) fputs(line, out);
  if (maps != NULL) fclose(maps);
  fclose(out);
}
