// What the operating system says the process did: per-thread CPU ticks from
// /proc/self/task, process CPU from getrusage, peak RSS from VmHWM. Thread
// counts come from here, never from a configured width, so a change in how
// many threads really run shows up as a change in the count.
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "perfbench.h"

namespace perfbench {

ThreadTicks read_thread_ticks() {
  ThreadTicks out;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    const std::string path =
        std::string("/proc/self/task/") + e->d_name + "/stat";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;  // the thread exited meanwhile
    char buf[1024];
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    // Fields after the parenthesised command name: state is field 3, utime
    // field 14 and stime field 15 (1-based, proc(5)).
    const char* p = std::strrchr(buf, ')');
    if (p == nullptr) continue;
    p += 1;
    std::uint64_t utime = 0;
    std::uint64_t stime = 0;
    int field = 2;
    while (*p != '\0' && field < 15) {
      while (*p == ' ') ++p;
      ++field;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(p, &end, 10);
      if (field == 14) utime = v;
      if (field == 15) stime = v;
      while (*p != '\0' && *p != ' ') ++p;
    }
    out.ticks.emplace_back(std::atoi(e->d_name), utime + stime);
  }
  ::closedir(dir);
  return out;
}

std::size_t threads_that_ran(const ThreadTicks& before,
                             const ThreadTicks& after) {
  std::map<int, std::uint64_t> prior(before.ticks.begin(),
                                     before.ticks.end());
  std::size_t ran = 0;
  for (const auto& [tid, ticks] : after.ticks) {
    const auto it = prior.find(tid);
    const std::uint64_t base = it == prior.end() ? 0 : it->second;
    if (ticks > base) ++ran;
  }
  return ran;
}

double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::size_t online_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

}  // namespace perfbench
