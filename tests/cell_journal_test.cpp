// CellJournal: the fleet coordinator's resumable log of folded cells, a file
// of the wire protocol's checksummed frames (hello, a seq-0 Snapshot naming
// the campaign, one CellResult per cell). Pins the crash contract:
//   - a cut anywhere inside the final frame recovers exactly the earlier
//     cells, bit for bit, and trims the file back to the last whole frame;
//   - every other kind of damage throws a named ProtocolError subtype, and a
//     journal that names another campaign is refused; either way the file is
//     left byte-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "io/campaign_io.h"
#include "net/feed.h"
#include "net/protocol.h"
#include "testing_util.h"

namespace antalloc {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kHash = 0x5eed5eed12345678ull;
constexpr std::size_t kTotalCells = 8;
constexpr std::int64_t kReplicates = 4;

const std::vector<std::string>& metrics() {
  static const std::vector<std::string> names = resolve_metric_names({});
  return names;
}

// A cell whose statistics carry full-precision doubles.
CampaignCell sample_cell(std::size_t flat_index) {
  CampaignCell cell;
  cell.flat_index = flat_index;
  cell.scenario = "single-shock";
  cell.algo = "ant";
  cell.noise = "sigmoid(lambda=0.200)";
  cell.engine = Engine::kAgent;
  const std::size_t n = metric_scalar_columns(metrics()).size();
  for (std::size_t i = 0; i < n; ++i) {
    RunningStats s;
    s.add(0.1102099609375 * static_cast<double>(flat_index + 1));
    s.add(1.0 / 3.0 + static_cast<double>(i));
    s.add(-2.5e-7 * static_cast<double>(i + 1));
    cell.metric_stats.push_back(s);
  }
  return cell;
}

// Bit-exact cell identity: the cells' wire encodings are equal.
std::vector<std::uint8_t> wire(const CampaignCell& cell) {
  return encode_payload(Message{MetricDelta{.cell = cell_update_from(cell)}});
}

using test_util::read_file_bytes;
using test_util::write_file_bytes;

CellJournal open_journal(const std::string& path) {
  return CellJournal(path, kHash, metrics(), kTotalCells, kReplicates);
}

struct Written {
  std::string header;             // hello + identity frame
  std::vector<std::size_t> ends;  // file size after each append
  std::string bytes;              // the whole file
};

Written write_journal(const std::string& path, std::size_t cells) {
  fs::remove(path);
  Written w;
  {
    CellJournal journal = open_journal(path);
    EXPECT_TRUE(journal.recovered().empty());
    w.header = read_file_bytes(path);
    for (std::size_t i = 0; i < cells; ++i) {
      journal.append(sample_cell(i));
      w.ends.push_back(static_cast<std::size_t>(fs::file_size(path)));
    }
  }
  w.bytes = read_file_bytes(path);
  return w;
}

void expect_recovers_first(CellJournal& journal, std::size_t n) {
  ASSERT_EQ(journal.recovered().size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(wire(journal.recovered()[i]), wire(sample_cell(i))) << i;
  }
}

std::span<const std::uint8_t> as_span(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(CellJournal, FileIsHelloIdentityFrameThenCellResults) {
  const std::string path = test_util::make_temp_dir("format") + "/j";
  const Written w = write_journal(path, 2);
  const auto bytes = as_span(w.bytes);
  check_hello(bytes);

  std::size_t used = 0;
  std::size_t pos = kHelloBytes;
  const Frame head = decode_frame(bytes.subspan(pos), &used);
  EXPECT_EQ(head.header.seq, 0u);
  const auto snap = std::get<Snapshot>(decode_message(head));
  EXPECT_EQ(snap.config_hash, kHash);
  EXPECT_EQ(snap.cells_total, kTotalCells);
  EXPECT_EQ(snap.replicates, kReplicates);
  EXPECT_EQ(snap.metrics, metrics());
  EXPECT_TRUE(snap.cells.empty());
  pos += used;
  EXPECT_EQ(pos, w.header.size());

  for (std::uint32_t seq = 1; seq <= 2; ++seq) {
    const Frame f = decode_frame(bytes.subspan(pos), &used);
    EXPECT_EQ(f.header.seq, seq);
    const auto res = std::get<CellResult>(decode_message(f));
    EXPECT_EQ(res.lease_id, 0u);
    EXPECT_EQ(res.config_hash, kHash);
    EXPECT_EQ(cell_from_update(res.cell).flat_index, seq - 1);
    pos += used;
  }
  EXPECT_EQ(pos, w.bytes.size());
}

TEST(CellJournal, EveryCutInsideTheFinalFrameDropsOnlyThatFrame) {
  const std::string path = test_util::make_temp_dir("torn") + "/j";
  const Written w = write_journal(path, 3);
  const std::size_t last_whole = w.ends[1];
  ASSERT_GT(w.ends[2] - last_whole, kFrameHeaderBytes + kFrameChecksumBytes);
  // cut == last_whole is a clean resume: nothing to drop.
  for (std::size_t cut = last_whole; cut < w.ends[2]; ++cut) {
    write_file_bytes(path, w.bytes.substr(0, cut));
    {
      CellJournal journal = open_journal(path);
      expect_recovers_first(journal, 2);
    }
    EXPECT_EQ(read_file_bytes(path), w.bytes.substr(0, last_whole)) << cut;
  }
  // The trimmed journal takes the recomputed cell at the seq it lost.
  {
    CellJournal journal = open_journal(path);
    journal.append(sample_cell(2));
  }
  EXPECT_EQ(read_file_bytes(path), w.bytes);
}

TEST(CellJournal, FlippedByteInAnEarlierFrameThrowsChecksumError) {
  const std::string path = test_util::make_temp_dir("flip") + "/j";
  const Written w = write_journal(path, 3);
  std::string damaged = w.bytes;
  damaged[w.header.size() + kFrameHeaderBytes + 3] ^= 0x10;  // frame 1 body
  write_file_bytes(path, damaged);
  EXPECT_THROW(open_journal(path), ProtocolChecksumError);
  EXPECT_EQ(read_file_bytes(path), damaged);
}

TEST(CellJournal, AnotherCampaignsJournalIsRefusedUntouched) {
  const std::string path = test_util::make_temp_dir("identity") + "/j";
  const Written w = write_journal(path, 2);
  std::vector<std::string> fewer = metrics();
  fewer.pop_back();
  EXPECT_THROW(CellJournal(path, kHash + 1, metrics(), kTotalCells,
                           kReplicates),
               std::runtime_error);
  EXPECT_THROW(CellJournal(path, kHash, fewer, kTotalCells, kReplicates),
               std::runtime_error);
  EXPECT_THROW(CellJournal(path, kHash, metrics(), kTotalCells + 1,
                           kReplicates),
               std::runtime_error);
  EXPECT_THROW(CellJournal(path, kHash, metrics(), kTotalCells,
                           kReplicates + 1),
               std::runtime_error);
  EXPECT_EQ(read_file_bytes(path), w.bytes);
}

TEST(CellJournal, TextJournalFromAnOlderVersionIsRefusedUntouched) {
  const std::string path = test_util::make_temp_dir("v1") + "/j";
  const std::string text =
      "format antalloc-campaign-journal-v1\n"
      "config_hash 5eed5eed12345678\n"
      "total_cells 8\n"
      "replicates 4\n"
      "metrics regret\n"
      "cell,scenario,algo,noise,engine\n"
      "0,constant,ant,exact,agent\n";
  write_file_bytes(path, text);
  EXPECT_THROW(open_journal(path), std::runtime_error);
  EXPECT_EQ(read_file_bytes(path), text);
}

// Checksum-valid frames that contradict the journal: each is refused as a
// torn payload and the file is left as it was.
TEST(CellJournal, FramesContradictingTheCampaignThrowTornPayload) {
  const std::string path = test_util::make_temp_dir("shape") + "/j";
  const std::string header = write_journal(path, 0).header;
  const auto result = [](std::size_t flat, std::uint64_t hash) {
    return CellResult{.lease_id = 0,
                      .config_hash = hash,
                      .cell = cell_update_from(sample_cell(flat))};
  };
  CellResult out_of_range = result(kTotalCells, kHash);
  CellResult short_stats = result(0, kHash);
  short_stats.cell.stats.pop_back();
  const std::vector<std::vector<std::uint8_t>> frames = {
      encode_frame(Message{out_of_range}, 1),
      encode_frame(Message{short_stats}, 1),
      encode_frame(Message{result(0, kHash + 1)}, 1),  // foreign campaign
      encode_frame(Message{result(0, kHash)}, 2),      // seq gap
      encode_frame(Message{MetricDelta{.cell = result(0, kHash).cell}}, 1),
  };
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::string bytes =
        header + std::string(frames[i].begin(), frames[i].end());
    write_file_bytes(path, bytes);
    EXPECT_THROW(open_journal(path), ProtocolTornPayloadError) << i;
    EXPECT_EQ(read_file_bytes(path), bytes) << i;
  }
}

TEST(CellJournal, AppendRefusesACellOfAnotherShape) {
  const std::string path = test_util::make_temp_dir("append") + "/j";
  fs::remove(path);
  CellJournal journal = open_journal(path);
  CampaignCell cell = sample_cell(0);
  cell.metric_stats.pop_back();
  EXPECT_THROW(journal.append(cell), std::invalid_argument);
}

}  // namespace
}  // namespace antalloc
