// Campaign shard files: the disk form of a sharded campaign run.
//
// A shard process (run_campaign with a ShardSpec) persists its slice of the
// matrix as a self-describing pair in an output directory:
//
//   shard-<i>-of-<N>.csv        one row per cell: labels + the full
//                               RunningStats accumulator state of every
//                               selected metric scalar (columns
//                               "<scalar>_{count,mean,m2,min,max}", named
//                               after the campaign's metric selection),
//                               doubles printed with %.17g so they parse
//                               back bit-identical;
//   shard-<i>-of-<N>.manifest   key-value provenance: the campaign config
//                               hash, shard coordinates, the metric
//                               selection, row counts and an FNV-1a
//                               checksum of each data file;
//   shard-<i>-of-<N>.results.csv one row per replicate with the SimResult
//                               scalar fields, final loads, and one column
//                               per selected metric scalar. Produced when
//                               the campaign set trace_dir (rows REPLAYED
//                               from the binary traces, bit-equal to the
//                               live run) or the deprecated keep_results
//                               (rows from the in-memory results).
//
// Format v2 (the streaming-metrics redesign): columns are named by the
// metric selection, which is itself folded into campaign_config_hash —
// shards computed with different metric sets can never merge. A v1
// (pre-redesign) shard directory is rejected up front with a version
// error, not a checksum mismatch: re-run those shards with this version.
//
// merge_campaign_dir scans a directory for manifests, refuses anything
// inconsistent (mismatched config hashes, wrong or duplicate shard indices,
// missing shards, checksum failures) and reassembles the full
// CampaignResult bit-identical to an unsharded run of the same config —
// campaign_shard_test pins the byte-equality. The one non-round-tripped
// field is SimResult::trace: traces are in-memory payloads (consume them in
// the shard process, or re-run the cell locally — it is deterministic).
//
// docs/CAMPAIGNS.md walks the end-to-end workflows (single machine, CI
// matrix, ad-hoc cluster); the partition/seeding design is in
// src/sim/campaign.h and the sharding section of docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "sim/campaign.h"

namespace antalloc {

// Parsed manifest of one shard. File names are relative to the directory
// the manifest lives in.
struct ShardManifest {
  std::uint64_t config_hash = 0;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t total_cells = 0;
  std::size_t shard_cells = 0;
  std::int64_t replicates = 1;
  // Resolved metric family selection the shard was computed with — the key
  // to the data files' dynamic columns.
  std::vector<std::string> metrics;
  bool keep_results = false;
  std::string rows_file;
  std::uint64_t rows_checksum = 0;  // FNV-1a over the file's bytes
  std::string results_file;         // empty unless keep_results
  std::uint64_t results_checksum = 0;
};

// Writes `result` (the cells cfg.shard owns) as the CSV/manifest pair into
// `dir` (created if missing); `cfg` must be the config the shard ran —
// write refuses a result whose cell count does not match the shard's slice
// of cfg. Returns the manifest path. Throws std::runtime_error on I/O
// failure, std::invalid_argument on a cfg/result mismatch.
std::string write_campaign_shard(const std::string& dir,
                                 const CampaignConfig& cfg,
                                 const CampaignResult& result);

// Parses one manifest file. Throws std::runtime_error on missing keys or a
// format line this version does not understand.
ShardManifest read_shard_manifest(const std::string& path);

// Reads one shard's cells back, verifying the data files against the
// manifest checksums. Throws std::runtime_error on corruption.
CampaignResult read_campaign_shard(const std::string& dir,
                                   const ShardManifest& manifest);

struct MergedCampaign {
  CampaignResult result;
  std::uint64_t config_hash = 0;
  std::size_t shard_count = 0;
  std::size_t total_cells = 0;
};

// Scans `dir` for *.manifest files and merges the complete shard set.
// Refuses (std::runtime_error): no manifests; manifests disagreeing on
// config_hash, shard_count, total_cells, replicates or keep_results; a
// shard_count other than the number of manifests, or shard_cells that do
// not sum to total_cells (both checked before anything is sized by them);
// duplicate shard indices; checksum mismatches. The merged result is
// bit-identical to the unsharded run of the same config.
MergedCampaign merge_campaign_dir(const std::string& dir);

// CellJournal: the coordinator's resumable manifest. ------------------------
//
// An append-only file of the wire protocol's own frames (net/protocol.h):
// the 8-byte hello, a seq-0 Snapshot frame naming the campaign (config hash,
// total cells, replicates, metric selection; no cells), then one CellResult
// frame per folded cell, seq 1, 2, ... — the frame a worker sends, with
// lease_id 0. Each append is flushed to the OS before append() returns, so
// the journal survives a process crash (not a power loss: there is no
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
// throws the frame decoder's named ProtocolError subtype — a checksum
// mismatch, or ProtocolTornPayloadError for a sequence gap, a frame that is
// not a CellResult, or a cell that contradicts the campaign's shape.
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
