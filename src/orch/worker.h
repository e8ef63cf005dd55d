// The fleet worker: the computing half of src/orch/ (the leasing half is
// coordinator.h).
//
// run_worker connects to a coordinator and sends a LeaseRequest. Each
// LeaseGrant names a range of cells of the campaign whose declarative
// JobSpec rides along: the worker rebuilds the EXACT campaign from it
// (campaign_from_job, once per distinct job — the build is cached by the
// spec's wire encoding), verifies campaign_config_hash against every grant
// and refuses a mismatch, so a skewed binary can never contribute numbers,
// then runs the leased cells as an explicit-cell ShardSpec through the
// ordinary run_campaign and ships every cell the moment it folds as a
// CellResult frame. When a grant comes back done=1 the campaign is complete;
// the worker asks for nothing more and returns once its running leases end.
//
// Leases in flight: a worker runs up to two leases at once, so the executor
// keeps working through a lease's last replicates and the next lease's
// round trip. As soon as a grant starts running, and again whenever a lease
// ends, the worker sends its next LeaseRequest if the replicate tasks of the
// leases it holds (cell_count × replicates each) are fewer than twice the
// executor's width. At most one request is in flight: the coordinator parks
// one per connection. The rule reads only the executor's width and the
// lease size.
//
// A LeaseRevoked (the coordinator decided this worker is straggling and
// leased the cells again) sets the cooperative cancel flag of the lease it
// names and no other: that run stops at the next replicate boundary
// (CampaignCancelledError), already-shipped cells remain valid — they fold
// coordinator-side as verified duplicates at worst — and the freed slot
// asks for fresh work. Determinism makes all of this safe: a leased cell's
// numbers depend only on the campaign spec and the cell's matrix
// coordinate, never on which worker computes it or how often.
//
// Threading: the calling thread dispatches. It claims each granted lease,
// builds its config and submits the lease to the executor as one task whose
// body is a plain run_campaign, the way the daemon runs a job; the lease's
// replicate tasks nest under it, so leases in flight compute on exactly the
// executor's threads and the worker adds none. One watcher thread is the
// connection's only reader: it registers each granted lease before it is
// claimed, so a revocation that follows the grant always finds it. Sends are
// mutex-serialized because both leases' progress callbacks ship results from
// executor threads while requests go out too; the shipped count lives under
// the same mutex.
#pragma once

#include <cstdint>
#include <string>

#include "sim/campaign.h"

namespace antalloc {

struct WorkerOptions {
  // Display identity in LeaseRequests (coordinator logs/bookkeeping only).
  std::string name = "worker";
  // TEST HOOK — simulated worker death: after shipping this many cells
  // (across all leases), cancel every running lease, drop the connection
  // and return with WorkerReport::died set. The coordinator sees an
  // ordinary disconnect and releases every lease with unfinished cells.
  // 0 = never.
  std::size_t fail_after_cells = 0;
  // nullptr = the process-global pool.
  ThreadPool* pool = nullptr;
};

struct WorkerReport {
  std::uint64_t leases_completed = 0;  // ran every owned cell to the end
  std::uint64_t leases_revoked = 0;    // cancelled by LeaseRevoked
  std::uint64_t cells_shipped = 0;     // CellResult frames sent
  bool died = false;                   // fail_after_cells triggered
};

// Works for the coordinator at host:port until the campaign completes (or
// fail_after_cells triggers). Throws the net/protocol.h error types on a
// lost/damaged connection or a coordinator whose grants contradict
// themselves (hash mismatch, unexpected reply).
WorkerReport run_worker(const std::string& host, std::uint16_t port,
                        const WorkerOptions& opts = {});

}  // namespace antalloc
