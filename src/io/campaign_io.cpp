#include "io/campaign_io.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/feed.h"

namespace antalloc {
namespace {

namespace fs = std::filesystem;

constexpr const char* kShardFormat = "antalloc-campaign-shard-v3";

// How many missing ranges or duplicated cells a merge error lists.
constexpr std::size_t kListed = 8;

std::string fmt_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

// Re-raises a decoder error as the same subtype with the file named first.
template <typename... Errors>
[[noreturn]] void rethrow_naming(const std::string& path,
                                 const ProtocolError& e) {
  const std::string what = path + ": " + e.what();
  ((dynamic_cast<const Errors*>(&e) != nullptr ? throw Errors(what)
                                               : void()),
   ...);
  throw ProtocolError(what);
}

bool same_identity(const Snapshot& a, const Snapshot& b) {
  return a.config_hash == b.config_hash && a.cells_total == b.cells_total &&
         a.replicates == b.replicates && a.metrics == b.metrics;
}

// "0, 3..5, 9": the flat indices in [0, total) absent from `present`, which
// is sorted and free of duplicates. Sizes nothing by `total`.
std::string missing_cells(
    const std::vector<std::pair<std::size_t, std::size_t>>& present,
    std::size_t total) {
  std::string list;
  std::size_t ranges = 0;
  const auto add = [&](std::size_t lo, std::size_t hi) {
    if (++ranges > kListed) return;
    if (!list.empty()) list += ", ";
    list += std::to_string(lo);
    if (hi > lo) list += ".." + std::to_string(hi);
  };
  std::size_t next = 0;
  for (const auto& [flat, file] : present) {
    if (flat > next) add(next, flat - 1);
    next = flat + 1;
  }
  if (next < total) add(next, total - 1);
  if (ranges > kListed) list += ", ... (" + std::to_string(ranges) + " ranges)";
  return list;
}

}  // namespace

JournalContents read_cell_journal(const std::string& path) {
  const std::string content = read_file(path);
  std::span<const std::uint8_t> rest(
      reinterpret_cast<const std::uint8_t*>(content.data()), content.size());
  JournalContents out;
  try {
    check_hello(rest);
    rest = rest.subspan(kHelloBytes);
    std::size_t used = 0;
    const std::optional<Frame> head = try_decode_frame(rest, &used);
    if (!head) {
      throw ProtocolTruncatedError("the file ends inside its identity frame");
    }
    Message identity = decode_message(*head);
    auto* snapshot = std::get_if<Snapshot>(&identity);
    if (head->header.seq != 0 || snapshot == nullptr ||
        !snapshot->cells.empty()) {
      throw ProtocolTornPayloadError(
          "the first frame is not a seq-0 campaign identity Snapshot");
    }
    out.identity = std::move(*snapshot);
    rest = rest.subspan(used);
    const std::size_t n_scalars =
        metric_scalar_columns(out.identity.metrics).size();
    // Decode whole frames until only an incomplete one (a torn final append)
    // or nothing is left.
    std::uint32_t seq = 1;
    while (const std::optional<Frame> next = try_decode_frame(rest, &used)) {
      const Message m = decode_message(*next);
      const auto* res = std::get_if<CellResult>(&m);
      if (next->header.seq != seq || res == nullptr ||
          res->config_hash != out.identity.config_hash ||
          res->cell.flat_index >= out.identity.cells_total ||
          res->cell.stats.size() != n_scalars) {
        throw ProtocolTornPayloadError(
            "journal frame seq " + std::to_string(next->header.seq) +
            " (expected " + std::to_string(seq) +
            ") is not a CellResult of this campaign's shape");
      }
      out.cells.push_back(cell_from_update(res->cell));
      rest = rest.subspan(used);
      ++seq;
    }
  } catch (const ProtocolError& e) {
    rethrow_naming<ProtocolBadMagicError, ProtocolVersionError,
                   ProtocolTruncatedError, ProtocolOversizeError,
                   ProtocolChecksumError, ProtocolTornPayloadError,
                   ProtocolUnknownTypeError>(path, e);
  } catch (const std::invalid_argument& e) {
    // An unregistered metric name, or a negative count in a cell's stats.
    throw std::runtime_error(path + ": " + e.what());
  }
  out.torn_bytes = rest.size();
  out.whole_bytes = content.size() - rest.size();
  return out;
}

// CellJournal. ---------------------------------------------------------------

CellJournal::CellJournal(std::string path, std::uint64_t config_hash,
                         std::vector<std::string> metrics,
                         std::size_t total_cells, std::int64_t replicates)
    : path_(std::move(path)),
      config_hash_(config_hash),
      n_scalars_(metric_scalar_columns(metrics).size()) {
  Snapshot identity;
  identity.config_hash = config_hash;
  identity.cells_total = total_cells;
  identity.replicates = replicates;
  identity.metrics = std::move(metrics);

  if (!fs::exists(path_)) {
    const auto hello = encode_hello();
    const std::vector<std::uint8_t> frame =
        encode_frame(Message{std::move(identity)}, 0);
    std::ofstream header(path_, std::ios::binary);
    header.write(reinterpret_cast<const char*>(hello.data()),
                 static_cast<std::streamsize>(hello.size()));
    header.write(reinterpret_cast<const char*>(frame.data()),
                 static_cast<std::streamsize>(frame.size()));
    if (!header.good()) throw std::runtime_error("cannot write " + path_);
  } else {
    JournalContents found = read_cell_journal(path_);
    if (!same_identity(found.identity, identity)) {
      // A stale journal must be refused loudly, never silently overwritten.
      throw std::runtime_error(
          path_ + ": existing journal does not match this campaign "
          "(config hash, shape, or metric selection differ) — move it "
          "aside or pass a fresh path");
    }
    recovered_ = std::move(found.cells);
    next_seq_ = static_cast<std::uint32_t>(recovered_.size() + 1);
    // Cut the torn tail in place: a rewrite would truncate first, and a crash
    // during it could empty the journal.
    if (found.torn_bytes != 0) fs::resize_file(path_, found.whole_bytes);
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) throw std::runtime_error("cannot open " + path_ + " for append");
}

void CellJournal::append(const CampaignCell& cell) {
  if (cell.metric_stats.size() != n_scalars_) {
    throw std::invalid_argument(
        "CellJournal::append: cell " + std::to_string(cell.flat_index) +
        " carries " + std::to_string(cell.metric_stats.size()) +
        " scalars, the journal's layout has " + std::to_string(n_scalars_));
  }
  const std::vector<std::uint8_t> frame = encode_frame(
      Message{CellResult{.lease_id = 0,
                         .config_hash = config_hash_,
                         .cell = cell_update_from(cell)}},
      next_seq_++);
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
  out_.flush();
  if (!out_.good()) throw std::runtime_error("cannot append to " + path_);
}

// Shard files. ---------------------------------------------------------------

std::string write_campaign_shard(const std::string& dir,
                                 const CampaignConfig& cfg,
                                 const CampaignResult& result) {
  const std::size_t total = campaign_total_cells(cfg);
  const auto expected = shard_cell_indices(total, cfg.shard);
  const std::string shard = std::to_string(cfg.shard.index) + "-of-" +
                            std::to_string(cfg.shard.count);
  if (result.cells.size() != expected.size()) {
    throw std::invalid_argument(
        "write_campaign_shard: result has " +
        std::to_string(result.cells.size()) + " cells, shard " + shard +
        " owns " + std::to_string(expected.size()));
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (result.cells[i].flat_index != expected[i]) {
      throw std::invalid_argument(
          "write_campaign_shard: cell " + std::to_string(i) +
          " has flat index " + std::to_string(result.cells[i].flat_index) +
          ", shard expects " + std::to_string(expected[i]) +
          " (was the result produced by this config's shard?)");
    }
  }
  const std::vector<std::string> families =
      resolve_metric_names(cfg.metrics.names);
  if (result.metrics != families) {
    throw std::invalid_argument(
        "write_campaign_shard: the result's metric selection does not match "
        "the config's");
  }

  fs::create_directories(dir);
  const std::string path =
      (fs::path(dir) / ("shard-" + shard + ".journal")).string();
  // Replace, never resume: opening an earlier run's file would append every
  // cell a second time.
  fs::remove(path);
  CellJournal journal(path, campaign_config_hash(cfg), families, total,
                      cfg.replicates);
  for (const CampaignCell& cell : result.cells) journal.append(cell);
  return path;
}

MergedCampaign merge_campaign_dir(const std::string& dir) {
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("merge_campaign_dir: " + dir +
                             " is not a directory");
  }
  std::vector<std::string> paths;
  std::string manifest;  // a v1/v2 shard file, for the version error
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == ".journal") {
      paths.push_back(entry.path().string());
    } else if (entry.path().extension() == ".manifest") {
      manifest = entry.path().string();
    }
  }
  if (paths.empty() && !manifest.empty()) {
    std::ifstream in(manifest);
    std::string format;
    std::getline(in, format);
    throw std::runtime_error(
        manifest + ": '" + format + "' is an older shard format; this "
        "version reads " + kShardFormat + " (shard-<i>-of-<N>.journal "
        "files) — re-run the shards with the current binary (cell seeds are "
        "coordinate-derived, the numbers will match)");
  }
  if (paths.empty()) {
    throw std::runtime_error("merge_campaign_dir: no *.journal files in " +
                             dir);
  }
  std::sort(paths.begin(), paths.end());

  std::vector<JournalContents> files;
  std::vector<std::pair<std::size_t, std::size_t>> owners;  // (cell, file)
  for (std::size_t i = 0; i < paths.size(); ++i) {
    JournalContents file = read_cell_journal(paths[i]);
    if (file.torn_bytes != 0) {
      throw std::runtime_error(
          paths[i] + ": ends in a torn frame (" +
          std::to_string(file.torn_bytes) +
          " bytes after the last whole one); the merge does not cut files — "
          "re-run that shard");
    }
    const Snapshot& first = i == 0 ? file.identity : files[0].identity;
    if (file.identity.config_hash != first.config_hash) {
      throw std::runtime_error(
          paths[i] + ": config hash " + fmt_hex(file.identity.config_hash) +
          " does not match " + fmt_hex(first.config_hash) + " from " +
          paths[0] + " (shards must come from identical campaign configs)");
    }
    if (!same_identity(file.identity, first)) {
      throw std::runtime_error(
          paths[i] + ": cells_total, replicates or metric selection "
          "disagree with " + paths[0]);
    }
    for (const CampaignCell& cell : file.cells) {
      owners.emplace_back(cell.flat_index, i);
    }
    files.push_back(std::move(file));
  }
  const Snapshot& identity = files[0].identity;

  std::sort(owners.begin(), owners.end());
  std::string duplicated;
  std::size_t duplicates = 0;
  for (std::size_t k = 1; k < owners.size(); ++k) {
    if (owners[k].first != owners[k - 1].first || ++duplicates > kListed) {
      continue;
    }
    duplicated += (duplicates == 1 ? " " : ", ") +
                  std::to_string(owners[k].first) + " (" +
                  fs::path(paths[owners[k - 1].second]).filename().string() +
                  ", " +
                  fs::path(paths[owners[k].second]).filename().string() + ")";
  }
  if (duplicates != 0) {
    throw std::runtime_error(dir + ": " + std::to_string(duplicates) +
                             " duplicated cell(s):" + duplicated);
  }
  if (owners.size() != identity.cells_total) {
    throw std::runtime_error(
        dir + ": the files hold " + std::to_string(owners.size()) + " of " +
        std::to_string(identity.cells_total) + " cells; missing cells " +
        missing_cells(owners, identity.cells_total));
  }

  // The files' cell count now equals cells_total, so it may size the merger.
  IncrementalMerger merger(identity.cells_total, identity.metrics,
                           IncrementalMerger::Duplicates::kReject);
  for (JournalContents& file : files) {
    for (CampaignCell& cell : file.cells) merger.add(std::move(cell));
  }
  MergedCampaign merged;
  merged.config_hash = identity.config_hash;
  merged.files = files.size();
  merged.total_cells = identity.cells_total;
  merged.result = merger.take();
  return merged;
}

}  // namespace antalloc
