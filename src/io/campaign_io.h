// Per-cell campaign results on disk: shard files and the coordinator
// journal are one format, the CellJournal file.
//
// A CellJournal file is a log of the wire protocol's own checksummed frames
// (net/protocol.h):
//
//   hello            the 8-byte protocol magic and version;
//   seq 0 Snapshot   the campaign's identity: campaign_config_hash,
//                    cells_total, replicates and the resolved metric
//                    selection; no cells;
//   seq 1, 2, ...    one CellResult frame per cell (lease_id 0): labels,
//                    engine and the full RunningStats state of every
//                    selected metric scalar, so a merge restores the exact
//                    Welford state of each cell.
//
// Shard format v3 (antalloc-campaign-shard-v3): a shard process
// (run_campaign with a ShardSpec) writes the cells it owns as
// shard-<i>-of-<N>.journal. The fleet coordinator (src/orch/) appends every
// folded cell to its --journal file as it lands. merge_campaign_dir reads
// every *.journal in a directory, whichever of the two wrote it, and
// reassembles the full CampaignResult bit-identical to an unsharded run of
// the same config; campaign_shard_test pins the byte equality. A v1 or v2
// shard directory (text rows plus a key-value .manifest) gets a version
// error: re-run those shards with this version.
//
// The files hold no per-replicate rows. Run the shards with trace_dir
// (antalloc_cli --trace-dir) and replay the traces (antalloc_cli --replay,
// replay_trace in io/trace_reader.h); a replay is bit-equal to the live
// run.
//
// docs/CAMPAIGNS.md walks the end-to-end workflows (single machine, CI
// matrix, ad-hoc cluster); the partition/seeding design is in
// src/sim/campaign.h and the sharding section of docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "net/protocol.h"
#include "sim/campaign.h"

namespace antalloc {

// Writes `result` (the cells cfg.shard owns) into `dir` (created if missing)
// as shard-<i>-of-<N>.journal, replacing an earlier file of that name.
// `cfg` must be the config the shard ran: write refuses a result whose cells
// or metric selection are not cfg's slice (std::invalid_argument). Returns
// the file's path. Throws std::runtime_error on I/O failure.
std::string write_campaign_shard(const std::string& dir,
                                 const CampaignConfig& cfg,
                                 const CampaignResult& result);

struct MergedCampaign {
  CampaignResult result;
  std::uint64_t config_hash = 0;
  std::size_t files = 0;  // journal files merged
  std::size_t total_cells = 0;
};

// Merges every *.journal file in `dir` through an IncrementalMerger
// (Duplicates::kReject). Never writes to the files. Refuses, with a
// std::runtime_error naming the file or the cells: no journal files (a
// directory of v1/v2 .manifest files gets a version error); a file
// read_cell_journal refuses, or one that ends in a torn frame; files that
// disagree on config hash, cells_total, replicates or metric selection;
// flat indices in [0, cells_total) that are missing or appear more than
// once. cells_total sizes nothing until the files' cell count equals it.
MergedCampaign merge_campaign_dir(const std::string& dir);

// One CellJournal file, decoded without writing to it.
struct JournalContents {
  Snapshot identity;                // the seq-0 frame
  std::vector<CampaignCell> cells;  // one per whole frame, in file order
  std::size_t whole_bytes = 0;      // the prefix made of whole frames
  std::size_t torn_bytes = 0;       // an incomplete final frame after it
};

// Reads the journal at `path`. Errors name the file: std::runtime_error when
// it cannot be read or names metrics this build does not register, and the
// frame decoder's ProtocolError subtypes otherwise — a wrong hello, a
// checksum mismatch, or ProtocolTornPayloadError for a first frame that is
// not a seq-0 identity Snapshot, a sequence gap, a frame that is not a
// CellResult, or a cell that contradicts the identity (config hash, flat
// index >= cells_total, scalar count).
JournalContents read_cell_journal(const std::string& path);

// CellJournal: the coordinator's resumable log. ------------------------------
//
// Appends the frames above, each flushed to the OS before append() returns,
// so the journal survives a process crash (not a power loss: there is no
// fsync). A coordinator that crashes and restarts opens the same path,
// recovers every appended cell, and re-leases ONLY the missing ones —
// together with first-completion-wins folding this makes a restart
// indistinguishable (bit-for-bit) from an uninterrupted run.
//
// Crash tolerance: a crash can leave only an incomplete final frame; recovery
// drops it (that cell is simply recomputed) and cuts the file back to the
// last whole frame. Everything else is refused and the file left untouched:
// a header naming a different campaign throws std::runtime_error (a stale
// journal must never seed another campaign's numbers), and damage after it
// throws read_cell_journal's named errors.
class CellJournal {
 public:
  // Opens (or resumes) the journal at `path`. On resume the header must
  // match all four identity fields; recovered cells are decoded eagerly.
  CellJournal(std::string path, std::uint64_t config_hash,
              std::vector<std::string> metrics, std::size_t total_cells,
              std::int64_t replicates);

  // Cells recovered from a pre-existing file, in file order (empty for a
  // fresh journal). Feed them to an IncrementalMerger before leasing.
  std::vector<CampaignCell>& recovered() { return recovered_; }

  // Appends one folded cell as a CellResult frame and flushes it to the OS
  // before returning. Throws std::invalid_argument when the cell's scalar
  // count does not match the metric selection.
  void append(const CampaignCell& cell);

 private:
  std::string path_;
  std::uint64_t config_hash_;
  std::size_t n_scalars_;
  std::uint32_t next_seq_ = 1;
  std::vector<CampaignCell> recovered_;
  std::ofstream out_;
};

}  // namespace antalloc
