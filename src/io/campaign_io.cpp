#include "io/campaign_io.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "io/csv.h"
#include "net/feed.h"
#include "rng/splitmix.h"

namespace antalloc {
namespace {

namespace fs = std::filesystem;

constexpr const char* kFormatLine = "format antalloc-campaign-shard-v2";
constexpr const char* kFormatPrefix = "format antalloc-campaign-shard-";

// Rows are keyed by the accumulator STATE of each selected metric scalar
// (count, mean, m2, min, max), not by the derived mean/ci the human-facing
// table prints: restoring the exact Welford state is what makes the merged
// result bit-identical to the unsharded run. The column set is dynamic —
// named after the campaign's metric selection, which the manifest records
// and the config hash covers.
constexpr const char* kRowsHeaderPrefix = "cell,scenario,algo,noise,engine";
constexpr std::size_t kRowsFixedColumns = 5;

// Fixed legacy SimResult fields, followed by one column per metric scalar.
constexpr const char* kResultsHeaderPrefix =
    "cell,replicate,rounds,n_ants,total_regret,regret_plus,regret_near,"
    "regret_minus,post_warmup_rounds,post_warmup_regret,violation_rounds,"
    "switches,final_loads";
constexpr std::size_t kResultsFixedColumns = 13;

std::string rows_header(const std::vector<MetricScalar>& specs) {
  std::string header = kRowsHeaderPrefix;
  for (const MetricScalar& spec : specs) {
    for (const char* part : {"_count", "_mean", "_m2", "_min", "_max"}) {
      header += "," + spec.name + part;
    }
  }
  return header;
}

std::string results_header(const std::vector<MetricScalar>& specs) {
  std::string header = kResultsHeaderPrefix;
  // "metric_" prefix: the fixed legacy columns include regret_plus/near/
  // minus, so a selected regret-split metric would otherwise duplicate
  // column names and confuse external CSV consumers (parsing here is
  // positional either way).
  for (const MetricScalar& spec : specs) header += ",metric_" + spec.name;
  return header;
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ',';
    out += name;
  }
  return out;
}

std::vector<std::string> split_names(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// %.17g round-trips every finite IEEE double exactly; the merged stats are
// therefore the same bits the shard computed.
std::string fmt_f64(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt_i64(std::int64_t v) { return std::to_string(v); }

std::vector<std::string> csv_split(const std::string& line,
                                   const std::string& context) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  if (quoted) {
    throw std::runtime_error(context + ": unterminated quote in '" + line +
                             "'");
  }
  fields.push_back(std::move(field));
  return fields;
}

double parse_f64(const std::string& s, const std::string& context) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(s, &consumed);
    if (consumed != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(context + ": bad number '" + s + "'");
  }
}

std::int64_t parse_i64(const std::string& s, const std::string& context) {
  try {
    std::size_t consumed = 0;
    const std::int64_t v = std::stoll(s, &consumed);
    if (consumed != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(context + ": bad integer '" + s + "'");
  }
}

std::uint64_t parse_hex(const std::string& s, const std::string& context) {
  try {
    std::size_t consumed = 0;
    const std::uint64_t v = std::stoull(s, &consumed, 16);
    if (consumed != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(context + ": bad hex value '" + s + "'");
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

std::string append_stats(const RunningStats& stats) {
  const RunningStats::State s = stats.state();
  return fmt_i64(s.count) + "," + fmt_f64(s.mean) + "," + fmt_f64(s.m2) +
         "," + fmt_f64(s.min) + "," + fmt_f64(s.max);
}

RunningStats stats_from_fields(const std::vector<std::string>& fields,
                               std::size_t first,
                               const std::string& context) {
  RunningStats::State s;
  s.count = parse_i64(fields[first], context);
  s.mean = parse_f64(fields[first + 1], context);
  s.m2 = parse_f64(fields[first + 2], context);
  s.min = parse_f64(fields[first + 3], context);
  s.max = parse_f64(fields[first + 4], context);
  return RunningStats::from_state(s);
}

std::string rows_csv(const CampaignResult& result,
                     const std::vector<MetricScalar>& specs) {
  std::string out = rows_header(specs) + "\n";
  for (const CampaignCell& cell : result.cells) {
    if (cell.metric_stats.size() != specs.size()) {
      throw std::invalid_argument(
          "write_campaign_shard: cell " + std::to_string(cell.flat_index) +
          " carries " + std::to_string(cell.metric_stats.size()) +
          " scalars, the layout has " + std::to_string(specs.size()));
    }
    out += fmt_i64(static_cast<std::int64_t>(cell.flat_index)) + ",";
    out += csv_escape(cell.scenario) + ",";
    out += csv_escape(cell.algo) + ",";
    out += csv_escape(cell.noise) + ",";
    out += std::string(to_string(cell.engine));
    for (const RunningStats& stats : cell.metric_stats) {
      out += ',';
      out += append_stats(stats);
    }
    out += "\n";
  }
  return out;
}

void append_result_row(std::string& out, std::size_t flat_index,
                       std::size_t replicate, const SimResult& res,
                       const std::vector<MetricScalar>& specs) {
  out += fmt_i64(static_cast<std::int64_t>(flat_index)) + ",";
  out += fmt_i64(static_cast<std::int64_t>(replicate)) + ",";
  out += fmt_i64(res.rounds) + ",";
  out += fmt_i64(res.n_ants) + ",";
  out += fmt_f64(res.total_regret) + ",";
  out += fmt_f64(res.regret_plus) + ",";
  out += fmt_f64(res.regret_near) + ",";
  out += fmt_f64(res.regret_minus) + ",";
  out += fmt_i64(res.post_warmup_rounds) + ",";
  out += fmt_f64(res.post_warmup_regret) + ",";
  out += fmt_i64(res.violation_rounds) + ",";
  out += fmt_i64(res.switches) + ",";
  std::string loads;
  for (const Count w : res.final_loads) {
    if (!loads.empty()) loads += ';';
    loads += fmt_i64(w);
  }
  out += loads;
  // One value column per selected scalar, pulled by name so the file
  // layout always matches the manifest's metric list.
  for (const MetricScalar& spec : specs) {
    out += ',';
    out += fmt_f64(res.metric(spec.name));
  }
  out += "\n";
}

// Per-replicate rows from the cells' in-memory results (the deprecated
// keep_results path) or, preferably, replayed from the campaign's binary
// traces — the two produce bit-identical files, which
// campaign_trace_test pins.
std::string results_csv(const CampaignResult& result,
                        const CampaignConfig& cfg,
                        const std::vector<MetricScalar>& specs) {
  std::string out = results_header(specs) + "\n";
  for (const CampaignCell& cell : result.cells) {
    if (cfg.keep_results) {
      for (std::size_t r = 0; r < cell.results.size(); ++r) {
        append_result_row(out, cell.flat_index, r, cell.results[r], specs);
      }
    } else {
      const std::vector<SimResult> replayed = replay_cell_results(
          cfg.trace_dir, cell.flat_index, cfg.replicates, result.metrics);
      for (std::size_t r = 0; r < replayed.size(); ++r) {
        append_result_row(out, cell.flat_index, r, replayed[r], specs);
      }
    }
  }
  return out;
}

std::vector<std::string> data_lines(const std::string& content,
                                    const std::string& expected_header,
                                    const std::string& context) {
  std::vector<std::string> lines;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
  }
  if (lines.empty() || lines.front() != expected_header) {
    throw std::runtime_error(context + ": missing or unexpected header row");
  }
  lines.erase(lines.begin());
  return lines;
}

CampaignCell parse_row(const std::string& line,
                       const std::vector<MetricScalar>& specs,
                       const std::string& context) {
  const auto fields = csv_split(line, context);
  const std::size_t expected = kRowsFixedColumns + 5 * specs.size();
  if (fields.size() != expected) {
    throw std::runtime_error(context + ": expected " +
                             std::to_string(expected) + " fields, got " +
                             std::to_string(fields.size()));
  }
  CampaignCell cell;
  cell.flat_index = static_cast<std::size_t>(parse_i64(fields[0], context));
  cell.scenario = fields[1];
  cell.algo = fields[2];
  cell.noise = fields[3];
  cell.engine = parse_engine(fields[4]);
  cell.metric_stats.reserve(specs.size());
  for (std::size_t si = 0; si < specs.size(); ++si) {
    cell.metric_stats.push_back(
        stats_from_fields(fields, kRowsFixedColumns + 5 * si, context));
  }
  return cell;
}

void attach_results(CampaignResult& shard, const std::string& content,
                    std::int64_t replicates,
                    const std::vector<MetricScalar>& specs,
                    const std::string& context) {
  std::map<std::size_t, CampaignCell*> by_index;
  for (CampaignCell& cell : shard.cells) by_index[cell.flat_index] = &cell;

  for (const std::string& line :
       data_lines(content, results_header(specs), context)) {
    const auto fields = csv_split(line, context);
    const std::size_t expected = kResultsFixedColumns + specs.size();
    if (fields.size() != expected) {
      throw std::runtime_error(context + ": expected " +
                               std::to_string(expected) +
                               " fields, got " +
                               std::to_string(fields.size()));
    }
    const auto cell_index =
        static_cast<std::size_t>(parse_i64(fields[0], context));
    const auto it = by_index.find(cell_index);
    if (it == by_index.end()) {
      throw std::runtime_error(context + ": replicate row for unknown cell " +
                               std::to_string(cell_index));
    }
    const std::int64_t replicate = parse_i64(fields[1], context);
    if (replicate !=
        static_cast<std::int64_t>(it->second->results.size())) {
      throw std::runtime_error(context + ": replicate rows for cell " +
                               std::to_string(cell_index) + " out of order");
    }
    SimResult res;
    res.rounds = parse_i64(fields[2], context);
    res.n_ants = parse_i64(fields[3], context);
    res.total_regret = parse_f64(fields[4], context);
    res.regret_plus = parse_f64(fields[5], context);
    res.regret_near = parse_f64(fields[6], context);
    res.regret_minus = parse_f64(fields[7], context);
    res.post_warmup_rounds = parse_i64(fields[8], context);
    res.post_warmup_regret = parse_f64(fields[9], context);
    res.violation_rounds = parse_i64(fields[10], context);
    res.switches = parse_i64(fields[11], context);
    std::istringstream loads(fields[12]);
    std::string item;
    while (std::getline(loads, item, ';')) {
      res.final_loads.push_back(parse_i64(item, context));
    }
    for (std::size_t si = 0; si < specs.size(); ++si) {
      res.metric_names.push_back(specs[si].name);
      res.metric_values.push_back(
          parse_f64(fields[kResultsFixedColumns + si], context));
    }
    it->second->results.push_back(std::move(res));
  }

  for (const CampaignCell& cell : shard.cells) {
    if (static_cast<std::int64_t>(cell.results.size()) != replicates) {
      throw std::runtime_error(context + ": cell " +
                               std::to_string(cell.flat_index) + " has " +
                               std::to_string(cell.results.size()) + " of " +
                               std::to_string(replicates) +
                               " replicate rows");
    }
  }
}

}  // namespace

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
  const auto hello = encode_hello();
  const std::vector<std::uint8_t> frame =
      encode_frame(Message{std::move(identity)}, 0);
  std::string header(hello.begin(), hello.end());
  header.append(frame.begin(), frame.end());

  if (!fs::exists(path_)) {
    write_file(path_, header);
  } else {
    const std::string content = read_file(path_);
    if (content.compare(0, header.size(), header) != 0) {
      // Identity mismatch, a torn header, or an older text journal: this file
      // does not describe THIS campaign, and must be refused loudly, never
      // silently overwritten.
      throw std::runtime_error(
          path_ + ": existing journal does not match this campaign "
          "(config hash, shape, or metric selection differ) — move it "
          "aside or pass a fresh path");
    }
    std::span<const std::uint8_t> rest(
        reinterpret_cast<const std::uint8_t*>(content.data()) + header.size(),
        content.size() - header.size());
    std::size_t used = 0;
    // Decode whole frames until only an incomplete one (a torn final append)
    // or nothing is left; any damage before that throws and leaves the file
    // as it is.
    while (const std::optional<Frame> next = try_decode_frame(rest, &used)) {
      const Message m = decode_message(*next);
      const auto* res = std::get_if<CellResult>(&m);
      if (next->header.seq != next_seq_ || res == nullptr ||
          res->config_hash != config_hash_ ||
          res->cell.flat_index >= total_cells ||
          res->cell.stats.size() != n_scalars_) {
        throw ProtocolTornPayloadError(
            path_ + ": journal frame seq " +
            std::to_string(next->header.seq) + " (expected " +
            std::to_string(next_seq_) +
            ") is not a CellResult of this campaign's shape");
      }
      recovered_.push_back(cell_from_update(res->cell));
      rest = rest.subspan(used);
      ++next_seq_;
    }
    // Cut the torn tail in place: a rewrite would truncate first, and a crash
    // during it could empty the journal.
    if (!rest.empty()) fs::resize_file(path_, content.size() - rest.size());
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

std::string write_campaign_shard(const std::string& dir,
                                 const CampaignConfig& cfg,
                                 const CampaignResult& result) {
  const std::size_t total = campaign_total_cells(cfg);
  const auto expected = shard_cell_indices(total, cfg.shard);
  if (result.cells.size() != expected.size()) {
    throw std::invalid_argument(
        "write_campaign_shard: result has " +
        std::to_string(result.cells.size()) + " cells, shard " +
        std::to_string(cfg.shard.index) + "/" +
        std::to_string(cfg.shard.count) + " owns " +
        std::to_string(expected.size()));
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
        "write_campaign_shard: result metric selection (" +
        join_names(result.metrics) + ") does not match the config's (" +
        join_names(families) + ")");
  }
  const std::vector<MetricScalar> specs = metric_scalar_columns(families);

  fs::create_directories(dir);
  const std::string stem = "shard-" + std::to_string(cfg.shard.index) +
                           "-of-" + std::to_string(cfg.shard.count);

  const std::string rows = rows_csv(result, specs);
  const std::string rows_name = stem + ".csv";
  write_file((fs::path(dir) / rows_name).string(), rows);

  // The per-replicate file rides on either source: in-memory results
  // (deprecated keep_results) or the campaign's binary traces (trace_dir).
  const bool want_results = cfg.keep_results || !cfg.trace_dir.empty();
  std::string results_name;
  std::uint64_t results_checksum = 0;
  if (want_results) {
    const std::string results = results_csv(result, cfg, specs);
    results_name = stem + ".results.csv";
    results_checksum = rng::hash_string(results);
    write_file((fs::path(dir) / results_name).string(), results);
  }

  std::string manifest = std::string(kFormatLine) + "\n";
  manifest += "config_hash " + fmt_hex(campaign_config_hash(cfg)) + "\n";
  manifest += "shard_index " + std::to_string(cfg.shard.index) + "\n";
  manifest += "shard_count " + std::to_string(cfg.shard.count) + "\n";
  manifest += "total_cells " + std::to_string(total) + "\n";
  manifest += "shard_cells " + std::to_string(result.cells.size()) + "\n";
  manifest += "replicates " + std::to_string(cfg.replicates) + "\n";
  manifest += "metrics " + join_names(families) + "\n";
  // "keep_results" in the manifest means "a results.csv is present",
  // whichever source produced it — readers only care that the rows exist.
  manifest += std::string("keep_results ") + (want_results ? "1" : "0") +
              "\n";
  manifest += "rows " + rows_name + "\n";
  manifest += "rows_checksum " + fmt_hex(rng::hash_string(rows)) + "\n";
  if (want_results) {
    manifest += "results " + results_name + "\n";
    manifest += "results_checksum " + fmt_hex(results_checksum) + "\n";
  }

  const std::string manifest_path =
      (fs::path(dir) / (stem + ".manifest")).string();
  write_file(manifest_path, manifest);
  return manifest_path;
}

ShardManifest read_shard_manifest(const std::string& path) {
  const std::string content = read_file(path);
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line) || line != kFormatLine) {
    // Distinguish "older format" from "not a manifest at all": a
    // pre-redesign shard is a clear version error, not a parse failure (and
    // never a checksum mismatch).
    if (line.rfind(kFormatPrefix, 0) == 0) {
      throw std::runtime_error(
          path + ": shard format '" + line.substr(7) +
          "' predates the streaming-metrics redesign; this version reads "
          "antalloc-campaign-shard-v2 — re-run the shards with the current "
          "binary (cell seeds are coordinate-derived, the numbers will "
          "match)");
    }
    throw std::runtime_error(path + ": not an antalloc-campaign-shard-v2 "
                             "manifest");
  }
  std::map<std::string, std::string> kv;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) {
      throw std::runtime_error(path + ": bad manifest line '" + line + "'");
    }
    kv[line.substr(0, space)] = line.substr(space + 1);
  }
  const auto require = [&](const std::string& key) -> const std::string& {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      throw std::runtime_error(path + ": manifest missing '" + key + "'");
    }
    return it->second;
  };

  ShardManifest m;
  m.config_hash = parse_hex(require("config_hash"), path);
  m.shard_index =
      static_cast<std::size_t>(parse_i64(require("shard_index"), path));
  m.shard_count =
      static_cast<std::size_t>(parse_i64(require("shard_count"), path));
  m.total_cells =
      static_cast<std::size_t>(parse_i64(require("total_cells"), path));
  m.shard_cells =
      static_cast<std::size_t>(parse_i64(require("shard_cells"), path));
  m.replicates = parse_i64(require("replicates"), path);
  m.metrics = split_names(require("metrics"));
  if (m.metrics.empty()) {
    throw std::runtime_error(path + ": manifest has an empty metric list");
  }
  m.keep_results = require("keep_results") == "1";
  m.rows_file = require("rows");
  m.rows_checksum = parse_hex(require("rows_checksum"), path);
  if (m.keep_results) {
    m.results_file = require("results");
    m.results_checksum = parse_hex(require("results_checksum"), path);
  }
  return m;
}

CampaignResult read_campaign_shard(const std::string& dir,
                                   const ShardManifest& manifest) {
  // The manifest's metric list is the key to the data files' columns; an
  // unknown name means the shard came from a build with metrics this one
  // does not register.
  std::vector<MetricScalar> specs;
  try {
    specs = metric_scalar_columns(manifest.metrics);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(dir + ": manifest metric list '" +
                             join_names(manifest.metrics) +
                             "' is not readable by this build: " + e.what());
  }

  const std::string rows_path =
      (fs::path(dir) / manifest.rows_file).string();
  const std::string rows = read_file(rows_path);
  if (rng::hash_string(rows) != manifest.rows_checksum) {
    throw std::runtime_error(rows_path +
                             ": checksum mismatch (file corrupted or edited "
                             "after the shard ran)");
  }

  CampaignResult shard;
  shard.metrics = manifest.metrics;
  for (const std::string& line :
       data_lines(rows, rows_header(specs), rows_path)) {
    shard.cells.push_back(parse_row(line, specs, rows_path));
  }
  if (shard.cells.size() != manifest.shard_cells) {
    throw std::runtime_error(rows_path + ": manifest promises " +
                             std::to_string(manifest.shard_cells) +
                             " cells, file has " +
                             std::to_string(shard.cells.size()));
  }

  if (manifest.keep_results) {
    const std::string results_path =
        (fs::path(dir) / manifest.results_file).string();
    const std::string results = read_file(results_path);
    if (rng::hash_string(results) != manifest.results_checksum) {
      throw std::runtime_error(results_path + ": checksum mismatch");
    }
    attach_results(shard, results, manifest.replicates, specs, results_path);
  }
  return shard;
}

MergedCampaign merge_campaign_dir(const std::string& dir) {
  std::vector<std::string> manifest_paths;
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("merge_campaign_dir: " + dir +
                             " is not a directory");
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().extension() == ".manifest") {
      manifest_paths.push_back(entry.path().string());
    }
  }
  if (manifest_paths.empty()) {
    throw std::runtime_error("merge_campaign_dir: no *.manifest files in " +
                             dir);
  }
  std::sort(manifest_paths.begin(), manifest_paths.end());

  std::vector<ShardManifest> manifests;
  for (const std::string& path : manifest_paths) {
    manifests.push_back(read_shard_manifest(path));
  }

  const ShardManifest& first = manifests.front();
  // Sizes are checked before anything is allocated from them (the index
  // table below, the merger's total_cells slots). With shard_count equal to
  // the manifest count, in-range indices without duplicates cover every
  // shard.
  if (first.shard_count != manifests.size()) {
    throw std::runtime_error(
        manifest_paths.front() + ": shard_count " +
        std::to_string(first.shard_count) + " but " + dir + " holds " +
        std::to_string(manifests.size()) +
        " manifests (missing or extra shards)");
  }
  const auto cells_mismatch = [&] {
    return std::runtime_error(dir + ": the manifests' shard_cells do not sum "
                              "to total_cells " +
                              std::to_string(first.total_cells));
  };
  std::size_t cells = 0;  // kept <= total_cells, so the sum cannot wrap
  for (const ShardManifest& m : manifests) {
    if (m.shard_cells > first.total_cells - cells) throw cells_mismatch();
    cells += m.shard_cells;
  }
  if (cells != first.total_cells) throw cells_mismatch();

  std::vector<std::uint8_t> seen(first.shard_count, 0);
  for (std::size_t i = 0; i < manifests.size(); ++i) {
    const ShardManifest& m = manifests[i];
    if (m.config_hash != first.config_hash) {
      throw std::runtime_error(
          manifest_paths[i] + ": config hash " + fmt_hex(m.config_hash) +
          " does not match " + fmt_hex(first.config_hash) + " from " +
          manifest_paths.front() +
          " (shards must come from identical campaign configs)");
    }
    if (m.shard_count != first.shard_count ||
        m.total_cells != first.total_cells ||
        m.replicates != first.replicates ||
        m.metrics != first.metrics ||
        m.keep_results != first.keep_results) {
      throw std::runtime_error(manifest_paths[i] +
                               ": shard shape disagrees with " +
                               manifest_paths.front());
    }
    if (m.shard_index >= m.shard_count) {
      throw std::runtime_error(manifest_paths[i] + ": shard index " +
                               std::to_string(m.shard_index) +
                               " out of range");
    }
    if (seen[m.shard_index]) {
      throw std::runtime_error(manifest_paths[i] + ": duplicate shard " +
                               std::to_string(m.shard_index));
    }
    seen[m.shard_index] = 1;
  }

  std::vector<CampaignResult> shards;
  shards.reserve(manifests.size());
  for (const ShardManifest& m : manifests) {
    shards.push_back(read_campaign_shard(dir, m));
  }

  MergedCampaign merged;
  merged.result =
      merge_campaign_shards(std::move(shards), first.total_cells);
  merged.config_hash = first.config_hash;
  merged.shard_count = first.shard_count;
  merged.total_cells = first.total_cells;
  return merged;
}

}  // namespace antalloc
