// Corruption battery: every distinct way a trace file can be damaged must
// surface as its own named TraceError subtype — never a wrong number, never
// a generic failure, and (mirroring campaign_io's shard-version discipline)
// never the WRONG named error: version skew is TraceVersionError even
// though it also breaks the checksum, an unterminated-writer sentinel is
// TraceTruncatedError even though the bytes may checksum clean. The tests
// damage real writer output surgically — byte offsets derived from the
// format constants in io/trace_log.h, not magic numbers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/trace_log.h"
#include "io/trace_reader.h"
#include "noise/sigmoid.h"
#include "sim/experiment.h"

namespace antalloc {
namespace {

constexpr std::int32_t kTasks = 2;
constexpr Round kRounds = 8;

// Byte offsets of the header words (little-endian, 8-byte words):
// word 0 magic, word 1 version(lo32)+k(hi32), word 2 n_ants, word 3 seed,
// ... word 9 round count.
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kSeedOffset = 3 * 8;
constexpr std::size_t kRoundCountOffset = (kTraceHeaderWords - 1) * 8;

// Meta region size for a single-segment schedule of k tasks: header +
// num_segments word + (start, mask, k demands) + meta checksum word.
constexpr std::size_t meta_bytes(std::int32_t k, std::size_t segments) {
  return 8 * (kTraceHeaderWords + 1 +
              segments * (2 + static_cast<std::size_t>(k)) + 1);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class TraceCorruptionTest : public ::testing::Test {
 protected:
  // Writes one small but real trace (engine-produced, properly closed),
  // then hands each test its pristine bytes to damage.
  void SetUp() override {
    path_ = ::testing::TempDir() + "antalloc_corrupt.trace";
    ExperimentConfig cfg;
    cfg.algo = AlgoConfig{.name = "ant", .gamma = 0.05};
    cfg.engine = Engine::kAgent;
    cfg.n_ants = 200;
    cfg.rounds = kRounds;
    cfg.seed = 9;
    cfg.metrics = {.gamma = 0.05};
    const DemandSchedule schedule(uniform_demands(kTasks, 40));
    const MetricsRecorder::Options resolved = resolved_metrics(cfg);
    TraceWriter writer(path_, schedule,
                       TraceMeta{.n_ants = cfg.n_ants,
                                 .seed = cfg.seed,
                                 .gamma = resolved.gamma});
    cfg.metrics.sink = &writer;
    SigmoidFeedback fm(0.5);
    run_experiment(cfg, fm, schedule);
    writer.close();
    pristine_ = slurp(path_);
    ASSERT_EQ(pristine_.size(),
              meta_bytes(kTasks, 1) +
                  static_cast<std::size_t>(kRounds) *
                      trace_record_bytes(kTasks));
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Damages the pristine bytes with `mutate` and writes the result back.
  template <typename Fn>
  void damage(Fn mutate) {
    std::string bytes = pristine_;
    mutate(bytes);
    spit(path_, bytes);
  }

  std::string path_;
  std::string pristine_;
};

TEST_F(TraceCorruptionTest, PristineFileReads) {
  TraceReader reader(path_);
  EXPECT_EQ(reader.info().rounds, kRounds);
  RoundView view;
  Round n = 0;
  while (reader.next(view)) ++n;
  EXPECT_EQ(n, kRounds);
}

TEST_F(TraceCorruptionTest, BadMagic) {
  damage([](std::string& b) { b[0] = 'X'; });
  EXPECT_THROW(TraceReader reader(path_), TraceBadMagicError);
}

TEST_F(TraceCorruptionTest, VersionSkewNamesBothVersions) {
  damage([](std::string& b) {
    const std::uint32_t future = kTraceVersion + 1;
    std::memcpy(&b[kVersionOffset], &future, sizeof(future));
  });
  try {
    TraceReader reader(path_);
    FAIL() << "version skew not detected";
  } catch (const TraceVersionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(kTraceVersion)), std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(kTraceVersion + 1)), std::string::npos)
        << what;
  }
}

TEST_F(TraceCorruptionTest, HeaderByteFlipFailsChecksum) {
  damage([](std::string& b) {
    b[kSeedOffset] = static_cast<char>(b[kSeedOffset] ^ 0x40);
  });
  EXPECT_THROW(TraceReader reader(path_), TraceChecksumError);
}

TEST_F(TraceCorruptionTest, SegmentTableByteFlipFailsChecksum) {
  damage([](std::string& b) {
    // First demand word of the (single) segment: header + num_segments +
    // start + mask.
    const std::size_t off = 8 * (kTraceHeaderWords + 3);
    b[off] = static_cast<char>(b[off] ^ 0x01);
  });
  EXPECT_THROW(TraceReader reader(path_), TraceChecksumError);
}

TEST_F(TraceCorruptionTest, UnterminatedWriterSentinelIsTruncation) {
  damage([](std::string& b) {
    std::memset(&b[kRoundCountOffset], 0xFF, 8);  // kUnterminatedRounds
  });
  EXPECT_THROW(TraceReader reader(path_), TraceTruncatedError);
}

TEST_F(TraceCorruptionTest, EmptyFileIsTruncated) {
  damage([](std::string& b) { b.clear(); });
  EXPECT_THROW(TraceReader reader(path_), TraceTruncatedError);
}

TEST_F(TraceCorruptionTest, MidHeaderTruncation) {
  damage([](std::string& b) { b.resize(5 * 8); });
  EXPECT_THROW(TraceReader reader(path_), TraceTruncatedError);
}

TEST_F(TraceCorruptionTest, MidSegmentTableTruncation) {
  damage([](std::string& b) { b.resize(8 * (kTraceHeaderWords + 2)); });
  EXPECT_THROW(TraceReader reader(path_), TraceTruncatedError);
}

TEST_F(TraceCorruptionTest, MissingRecordsIsTruncation) {
  damage([](std::string& b) { b.resize(b.size() - trace_record_bytes(kTasks)); });
  EXPECT_THROW(TraceReader reader(path_), TraceTruncatedError);
}

TEST_F(TraceCorruptionTest, MidRecordTruncation) {
  damage([](std::string& b) { b.resize(b.size() - 3); });
  EXPECT_THROW(TraceReader reader(path_), TraceTruncatedError);
}

TEST_F(TraceCorruptionTest, TrailingGarbageRejected) {
  damage([](std::string& b) { b.append("garbage"); });
  EXPECT_THROW(TraceReader reader(path_), TraceChecksumError);
}

// A flipped byte INSIDE a record is invisible to the constructor (the meta
// region is intact) and surfaces lazily, as TraceTornRecordError naming
// exactly the damaged record, when next() reaches it. Records before the
// tear read fine.
TEST_F(TraceCorruptionTest, TornRecordDetectedLazilyAtItsIndex) {
  constexpr Round kTornIndex = 3;
  damage([](std::string& b) {
    const std::size_t off = meta_bytes(kTasks, 1) +
                            static_cast<std::size_t>(kTornIndex) *
                                trace_record_bytes(kTasks) +
                            8;  // inside the switches word
    b[off] = static_cast<char>(b[off] ^ 0x10);
  });
  TraceReader reader(path_);  // meta intact: constructor accepts the file
  RoundView view;
  for (Round i = 0; i < kTornIndex; ++i) {
    EXPECT_TRUE(reader.next(view)) << "record " << i << " before the tear";
  }
  try {
    reader.next(view);
    FAIL() << "torn record not detected";
  } catch (const TraceTornRecordError& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(kTornIndex)),
              std::string::npos)
        << e.what();
  }
}

TEST_F(TraceCorruptionTest, MissingFileIsIoError) {
  EXPECT_THROW(TraceReader reader(path_ + ".does-not-exist"), TraceIoError);
}

// The subtype lattice: every named error is catchable as TraceError, so
// callers who only care about "unusable" handle all of them in one arm.
TEST_F(TraceCorruptionTest, AllErrorsShareTheBase) {
  damage([](std::string& b) { b[0] = 'X'; });
  EXPECT_THROW(TraceReader reader(path_), TraceError);
}

}  // namespace
}  // namespace antalloc
