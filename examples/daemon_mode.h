// Shared foreground driver for the daemon (docs/SERVICE.md), reachable two
// ways — antalloc_daemon as a standalone binary and antalloc_cli
// --serve=PORT as a mode of the one-stop CLI — like fleet_modes.h does for
// the coordinator and worker. One loop, so the exit codes and output cannot
// drift between the two spellings.
#pragma once

#include <cstdio>

#include "net/server.h"

namespace antalloc {

// Starts the daemon and serves until SIGINT/SIGTERM, then drains running
// jobs, prints the stats and returns 0. Returns 2 when the port cannot be
// bound (e.g. already in use).
inline int run_daemon_mode(const DaemonOptions& opts) {
  block_termination_signals();  // before start(): threads inherit the mask
  DaemonServer server(opts);
  try {
    server.start();
  } catch (const ProtocolError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("antalloc daemon listening on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);

  const int sig = wait_for_termination();
  std::fprintf(stderr, "[daemon] signal %d: draining jobs and stopping\n",
               sig);
  server.stop();
  const DaemonServer::Stats stats = server.stats();
  std::fprintf(stderr,
               "[daemon] %llu connections, %llu jobs accepted, %llu "
               "rejected, %llu evictions\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.jobs_accepted),
               static_cast<unsigned long long>(stats.jobs_rejected),
               static_cast<unsigned long long>(stats.evictions));
  return 0;
}

}  // namespace antalloc
