// antalloc_daemon: the engine as a long-running service. Binds a loopback
// port, accepts campaign jobs over the net/protocol.h wire format, runs
// them on the process-global work-stealing executor, and streams live
// snapshot+delta metric feeds to subscribers — docs/SERVICE.md is the
// protocol guide, examples/antalloc_client.cpp the matching client.
//
//   ./build/examples/antalloc_daemon --port=7077
//   ./build/examples/antalloc_daemon --port=0            # ephemeral, printed
//   ./build/examples/antalloc_daemon --port=7077 --jobs=8
//
// Runs in the foreground until SIGINT/SIGTERM, then drains running jobs and
// exits 0 — safe to drive from scripts (the CI daemon smoke job does).
#include <cstdio>

#include "daemon_mode.h"
#include "io/args.h"
#include "parallel/task_graph.h"

using namespace antalloc;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto port = args.get_int("port", 7077);
  const auto jobs = args.get_int("jobs", -1);
  const auto max_queue = args.get_int("max-queue-bytes", 4 << 20);
  const auto sndbuf = args.get_int("sndbuf", 0);
  const bool help = args.get_bool("help", false);
  if (help) {
    std::printf("%s\n", args.help().c_str());
    std::printf("Serves the antalloc wire protocol (docs/SERVICE.md) on "
                "127.0.0.1:<port> (0 = ephemeral; the bound port is "
                "printed). --jobs pins the executor width; "
                "--max-queue-bytes bounds each subscriber's unsent backlog "
                "(crossing it evicts the connection); --sndbuf shrinks the "
                "kernel send buffer (mostly for tests).\n");
    return 0;
  }
  args.check_unknown();

  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "error: --port must be in [0, 65535]\n");
    return 2;
  }
  if (jobs >= 0) set_global_task_graph_threads(static_cast<std::size_t>(jobs));

  DaemonOptions opts;
  opts.port = static_cast<std::uint16_t>(port);
  opts.max_queue_bytes = static_cast<std::size_t>(max_queue);
  opts.send_buffer_bytes = static_cast<int>(sndbuf);
  return run_daemon_mode(opts);
}
