// The shared token codec (common/token_codec.h) and a seeded mutation
// sweep over every parser built on it: the ATENA-NN parameter block and
// weight file, the ATENA-CKPT payload, and the ATENA-SJL journal records.
// The same sweep covers the binary NotebookStore sidecar. Each mutant must
// parse cleanly or fail with a Status — never crash, hang or trip a
// sanitizer (scripts/check.sh runs this under ASan and UBSan).

#include "common/token_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/random.h"
#include "eda/operation.h"
#include "index/notebook_store.h"
#include "nn/layers.h"
#include "nn/serialization.h"
#include "rl/checkpoint.h"
#include "serve/journal.h"

namespace atena {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// ---------------------------------------------------------------------------
// The codec itself.

TEST(TokenCodecTest, RoundTripsEveryTokenKind) {
  const double doubles[] = {0.0,
                            -0.0,
                            -2.5,
                            std::numeric_limits<double>::quiet_NaN(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max()};
  RngState rng;
  rng.words[0] = std::numeric_limits<uint64_t>::max();
  rng.words[3] = 7;
  rng.has_spare_gaussian = true;
  rng.spare_gaussian = -1.25;

  std::string text;
  TokenWriter out(text);
  out.Word("head").Int(std::numeric_limits<int64_t>::min());
  out.Int(std::numeric_limits<uint64_t>::max()).Bool(true).Nl();
  for (double d : doubles) out.F64(d);
  out.Nl().String("two words\nand a line").String("").Nl();
  out.Rng(rng).Crc(0x00c0ffeeu).Nl();
  EXPECT_EQ(text.substr(0, 5), "head ");

  TokenReader in(text, "round trip");
  ASSERT_TRUE(in.ExpectKeyword("head").ok());
  int64_t i64 = 0;
  uint64_t u64 = 0;
  bool flag = false;
  ASSERT_TRUE(in.Read(&i64, "i64").ok());
  ASSERT_TRUE(in.Read(&u64, "u64").ok());
  ASSERT_TRUE(in.ReadBool(&flag, "flag").ok());
  EXPECT_EQ(i64, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(u64, std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(flag);
  for (double d : doubles) {
    double got = 0.0;
    ASSERT_TRUE(in.ReadF64(&got, "double").ok());
    EXPECT_EQ(Bits(got), Bits(d));
  }
  std::string s;
  ASSERT_TRUE(in.ReadString(&s, "string").ok());
  EXPECT_EQ(s, "two words\nand a line");
  ASSERT_TRUE(in.ReadString(&s, "empty string").ok());
  EXPECT_EQ(s, "");
  RngState got_rng;
  ASSERT_TRUE(in.ReadRng(&got_rng).ok());
  for (int w = 0; w < 4; ++w) EXPECT_EQ(got_rng.words[w], rng.words[w]);
  EXPECT_TRUE(got_rng.has_spare_gaussian);
  EXPECT_EQ(got_rng.spare_gaussian, -1.25);
  uint32_t crc = 0;
  ASSERT_TRUE(in.ReadCrc(&crc, "crc").ok());
  EXPECT_EQ(crc, 0x00c0ffeeu);
  EXPECT_TRUE(in.AtEnd());
}

TEST(TokenCodecTest, RejectsMalformedTokensNamingTheSource) {
  auto read_u64 = [](const std::string& text) {
    TokenReader in(text, "probe");
    uint64_t value = 0;
    return in.Read(&value, "value");
  };
  EXPECT_TRUE(read_u64("42").ok());
  for (const char* bad : {"-1", "18446744073709551616", "4x", "", " ", "+1"}) {
    const Status status = read_u64(bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(status.message().find("'probe'"), std::string::npos) << bad;
  }
  auto read_f64 = [](const std::string& text) {
    TokenReader in(text, "probe");
    double value = 0.0;
    return in.ReadF64(&value, "value");
  };
  EXPECT_TRUE(read_f64("3ff0000000000000").ok());
  for (const char* bad : {"3ff000000000000", "3FF0000000000000", "1.5",
                          "3ff00000000000000"}) {
    EXPECT_FALSE(read_f64(bad).ok()) << bad;
  }
  auto read_string = [](const std::string& text) {
    TokenReader in(text, "probe");
    std::string value;
    return in.ReadString(&value, "value");
  };
  EXPECT_TRUE(read_string("3 abc").ok());
  for (const char* bad : {"4 abc", "3\nabc", "3", "-1 x", "99999 x"}) {
    EXPECT_FALSE(read_string(bad).ok()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Seed files.

struct Network {
  ParameterStore store;
  std::vector<Parameter*> params;
};

std::unique_ptr<Network> MakeNetwork() {
  auto net = std::make_unique<Network>();
  Rng rng(11);
  auto mlp = MakeMlp(3, {4}, 2, &net->store, "mlp", &rng);
  (void)mlp;
  net->params = net->store.All();
  return net;
}

std::vector<EdaOperation> SeedOps() {
  return {EdaOperation::Back(),
          EdaOperation::Group(1, AggFunc::kCount, -1),
          EdaOperation::Filter(0, CompareOp::kEq, Value(std::string("two words")), 2),
          EdaOperation::Filter(
              2, CompareOp::kGt,
              Value(std::numeric_limits<double>::quiet_NaN()), 1),
          EdaOperation::Filter(3, CompareOp::kNeq, Value(int64_t{-7}), 0),
          EdaOperation::Filter(1, CompareOp::kEq, Value::Null(), -1)};
}

std::string SeedCheckpointPayload(const Network& net) {
  TrainingCheckpoint ckpt;
  ckpt.steps_done = 96;
  ckpt.updates_done = 3;
  ckpt.trainer_rng = Rng(5).state();
  ckpt.episodes = 4;
  ckpt.best_episode_reward = 1.5;
  ckpt.curve = {{32, 0.25}, {64, -0.5}};
  ckpt.recent_episode_rewards = {0.5, -1.0, 2.0};
  ckpt.best_episode_ops = SeedOps();
  ActorCheckpoint actor;
  actor.env_seed = 9;
  actor.env_rng = Rng(6).state();
  actor.episode_reward = 0.75;
  actor.episode_ops = SeedOps();
  ckpt.actors = {actor, actor};
  ckpt.adam_step = 3;
  for (const Parameter* p : net.params) {
    ckpt.adam_m.push_back(p->value);
    ckpt.adam_v.push_back(p->value);
  }
  ckpt.guard.retries_used = 1;
  ckpt.guard.lr_scale = 0.5;
  ckpt.guard.events_logged = 2;
  return EncodeCheckpointPayload(net.params, ckpt);
}

std::string SeedParameterPayload(const Network& net) {
  std::string payload;
  TokenWriter out(payload);
  WriteParameters(out, net.params);
  return payload;
}

std::string ReadAll(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok());
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// A journal exercising every record type and both RNG forms.
std::string SeedJournal(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  JournalMeta meta;
  meta.dataset_id = "flights 4";
  meta.observation_dim = 17;
  meta.episode_length = 6;
  meta.num_term_bins = 4;
  JournalSnapshot snap;
  snap.next_id = 3;
  snap.steps_served = 5;
  snap.stats = {1, 2, 3};
  snap.generation_paths = {"", "weights v2.nn"};
  snap.current_gen = 1;
  JournalSessionState session;
  session.id = 2;
  session.seed = 77;
  session.max_steps = 8;
  session.gen = 1;
  session.steps_done = 2;
  session.episode_steps = 2;
  session.total_reward = -0.25;
  session.env_rng = Rng(1).state();
  session.act_rng = Rng(2).state();
  for (const EdaOperation& op : SeedOps()) {
    session.trace.push_back(JournalStep{op, true, 0.5, 123});
  }
  snap.sessions = {session};

  SessionJournal journal(path);
  EXPECT_TRUE(journal.Reset(meta, snap).ok());
  EXPECT_TRUE(journal.AppendAdmit(JournalAdmit{3, 88, 4, true, 1}).ok());
  EXPECT_TRUE(journal.AppendReload(JournalReload{2, "next weights.nn"}).ok());
  Rng before(3);
  Rng after = before;
  after.NextUint64();
  after.NextGaussian();
  const JournalRng delta = MakeJournalRng(before.state(), after.state());
  const JournalRng full = MakeJournalRng(before.state(), Rng(99).state());
  JournalTickBuilder builder;
  const std::vector<EdaOperation> ops = SeedOps();
  builder.AddStep(2, JournalTickEntry::kLive, 1, delta, full, ops[2], true,
                  0.125, 456);
  builder.AddQuarantine(3);
  builder.AddStep(2, JournalTickEntry::kCompleted, 0, full, delta, ops[3],
                  false, -1.0, 789);
  EXPECT_TRUE(journal.AppendTick(builder, false).ok());
  EXPECT_TRUE(journal.AppendStop({2, 3}).ok());
  EXPECT_TRUE(journal.Sync().ok());
  return ReadAll(path);
}

struct Frame {
  std::string type;
  std::string payload;
};

/// Splits a journal into its header line and records (the seed is
/// well-formed, so no validation is needed here).
std::vector<Frame> SplitJournal(const std::string& bytes,
                                std::string* header) {
  size_t pos = bytes.find('\n') + 1;
  *header = bytes.substr(0, pos);
  std::vector<Frame> frames;
  while (pos < bytes.size()) {
    const size_t line_end = bytes.find('\n', pos);
    char type[16] = {0};
    unsigned crc = 0;
    size_t size = 0;
    EXPECT_EQ(std::sscanf(bytes.c_str() + pos, "ATJ %15s %x %zu", type, &crc,
                          &size),
              3);
    frames.push_back({type, bytes.substr(line_end + 1, size)});
    pos = line_end + 1 + size + 1;
  }
  return frames;
}

std::string JoinJournal(const std::string& header,
                        const std::vector<Frame>& frames) {
  std::string out = header;
  for (const Frame& frame : frames) {
    char line[64];
    std::snprintf(line, sizeof(line), "ATJ %s %08x %zu\n", frame.type.c_str(),
                  Crc32(frame.payload), frame.payload.size());
    out += line;
    out += frame.payload;
    out += '\n';
  }
  return out;
}

/// A saved NotebookStore's file bytes: a few short notebooks, so the
/// header and length fields are a large share of what gets mutated.
std::string SeedStoreFile(const std::string& path) {
  NotebookStore store;
  for (uint64_t i = 0; i < 4; ++i) {
    std::vector<std::vector<double>> notebook;
    for (uint64_t v = 0; v < 2 + i % 2; ++v) {
      notebook.push_back({0.25 * static_cast<double>(i), 1.0 - 0.5 * v, -2.0});
    }
    EXPECT_GE(store.Register(i + 1, 100 + i, notebook), 0);
  }
  EXPECT_TRUE(store.Save(path).ok());
  return ReadAll(path);
}

/// Frames a store payload the way WriteChecksummedFile does, with a fresh
/// CRC, so a mutated payload reaches NotebookStore::Load's parser.
std::string FrameStore(const std::string& magic_line,
                       const std::string& payload) {
  char header[64];
  std::snprintf(header, sizeof(header), "crc32 %08x size %zu\n",
                Crc32(payload), payload.size());
  return magic_line + header + payload;
}

// ---------------------------------------------------------------------------
// Mutation.

/// Applies 1-3 random mutations: byte flips, truncations, splices from
/// `corpus`, and numeric tokens replaced by lying lengths and counts.
std::string Mutate(std::string bytes, const std::vector<std::string>& corpus,
                   Rng& rng) {
  static const char* const kLies[] = {
      "0",  "1",          "-1",       "2147483648", "4294967296",
      "99", "1000000000", "18446744073709551615",   "-9223372036854775808"};
  const int rounds = static_cast<int>(rng.NextInt(1, 3));
  for (int r = 0; r < rounds; ++r) {
    if (bytes.empty()) bytes = "0";
    const size_t at = static_cast<size_t>(rng.NextBounded(bytes.size()));
    switch (rng.NextBounded(4)) {
      case 0:  // Byte flip.
        bytes[at] = static_cast<char>(bytes[at] ^
                                      static_cast<char>(rng.NextInt(1, 255)));
        break;
      case 1:  // Truncation.
        bytes.resize(at);
        break;
      case 2: {  // Splice a chunk of any seed over a random range.
        const std::string& donor =
            corpus[static_cast<size_t>(rng.NextBounded(corpus.size()))];
        const size_t from = static_cast<size_t>(rng.NextBounded(donor.size()));
        const size_t len =
            static_cast<size_t>(rng.NextBounded(donor.size() - from) + 1);
        const size_t cut =
            static_cast<size_t>(rng.NextBounded(bytes.size() - at + 1));
        bytes.replace(at, cut, donor, from, len);
        break;
      }
      default: {  // A numeric token (count, length, shape) that lies.
        size_t start = at;
        while (start < bytes.size() &&
               !(bytes[start] >= '0' && bytes[start] <= '9')) {
          ++start;
        }
        if (start == bytes.size()) break;
        size_t end = start;
        while (end < bytes.size() && bytes[end] >= '0' && bytes[end] <= '9') {
          ++end;
        }
        bytes.replace(start, end - start,
                      kLies[rng.NextBounded(sizeof(kLies) / sizeof(*kLies))]);
        break;
      }
    }
  }
  return bytes;
}

/// Per-target tally, so the sweep proves it reached the parser: the seed
/// parses, and mutants land on both sides.
struct Tally {
  int accepted = 0;
  int rejected = 0;
  void Count(const Status& status) {
    status.ok() ? ++accepted : ++rejected;
  }
};

constexpr uint64_t kFuzzSeed = 0xA7E4A;
constexpr int kMutantsPerTarget = 4000;

TEST(CodecFuzzTest, MutatedPayloadsFailCleanOrLoad) {
  auto net = MakeNetwork();
  const std::string nn_payload = SeedParameterPayload(*net);
  const std::string ckpt_payload = SeedCheckpointPayload(*net);
  const std::string weight_path = TempPath("codec_fuzz.nn");
  ASSERT_TRUE(SaveParameters(net->params, weight_path).ok());
  const std::string weight_file = ReadAll(weight_path);
  const std::string journal_path = TempPath("codec_fuzz.sjl");
  const std::string journal = SeedJournal(journal_path);
  std::string journal_header;
  const std::vector<Frame> frames = SplitJournal(journal, &journal_header);
  ASSERT_EQ(frames.size(), 6u);  // meta snap admit reload tick stop

  const std::vector<std::string> corpus = {nn_payload, ckpt_payload,
                                           weight_file, journal};
  auto parse_nn = [&](const std::string& bytes) {
    TokenReader in(bytes, "nn fuzz");
    std::vector<Matrix> staged;
    Status status = ParseParametersInto(net->params, in, &staged);
    if (status.ok() && !in.AtEnd()) status = in.Fail("trailing bytes");
    return status;
  };
  auto parse_ckpt = [&](const std::string& bytes) {
    TrainingCheckpoint out;
    return DecodeCheckpointPayload(bytes, net->params, "ckpt fuzz", &out);
  };
  auto load_weights = [&](const std::string& bytes) {
    WriteAll(weight_path, bytes);
    return LoadParameters(net->params, weight_path);
  };
  // Journal records are re-framed with a fresh CRC, so the payload parser
  // actually sees the mutant. ReadJournal itself never fails on a bad
  // record (prefix semantics); a dropped suffix is the "rejected" side.
  auto read_journal = [&](const std::string& bytes) {
    WriteAll(journal_path, bytes);
    Result<JournalContents> parsed = ReadJournal(journal_path);
    if (!parsed.ok()) return parsed.status();
    return parsed.value().clean_tail && parsed.value().snapshot_valid
               ? Status::OK()
               : Status::InvalidArgument("journal suffix dropped");
  };

  const std::string store_path = TempPath("codec_fuzz.nbstore");
  const std::string store_file = SeedStoreFile(store_path);
  const size_t magic_end = store_file.find('\n') + 1;
  const std::string store_magic = store_file.substr(0, magic_end);
  const std::string store_payload =
      store_file.substr(store_file.find('\n', magic_end) + 1);
  auto load_store = [&](const std::string& payload) {
    WriteAll(store_path, FrameStore(store_magic, payload));
    return NotebookStore::Load(store_path).status();
  };

  ASSERT_TRUE(parse_nn(nn_payload).ok());
  ASSERT_TRUE(parse_ckpt(ckpt_payload).ok());
  ASSERT_TRUE(load_weights(weight_file).ok());
  ASSERT_TRUE(read_journal(JoinJournal(journal_header, frames)).ok());
  ASSERT_EQ(JoinJournal(journal_header, frames), journal);
  ASSERT_EQ(FrameStore(store_magic, store_payload), store_file);
  ASSERT_TRUE(load_store(store_payload).ok());
  std::vector<std::vector<double>> weights;
  for (const Parameter* p : net->params) weights.push_back(p->value.data());

  Rng rng(kFuzzSeed);
  Tally nn, ckpt, file, sjl;
  for (int i = 0; i < kMutantsPerTarget; ++i) {
    nn.Count(parse_nn(Mutate(nn_payload, corpus, rng)));
    ckpt.Count(parse_ckpt(Mutate(ckpt_payload, corpus, rng)));
    file.Count(load_weights(Mutate(weight_file, corpus, rng)));

    std::vector<Frame> mutant = frames;
    Frame& victim =
        mutant[static_cast<size_t>(rng.NextBounded(mutant.size()))];
    victim.payload = Mutate(victim.payload, corpus, rng);
    std::string bytes = JoinJournal(journal_header, mutant);
    // One mutant in four also lies in the framing itself.
    if (rng.NextBounded(4) == 0) bytes = Mutate(bytes, corpus, rng);
    sjl.Count(read_journal(bytes));
  }
  // Drawn after the other targets, so their mutant streams do not depend
  // on this one.
  Tally store;
  for (int i = 0; i < kMutantsPerTarget; ++i) {
    store.Count(load_store(Mutate(store_payload, {store_payload}, rng)));
  }
  for (const Tally* tally : {&nn, &ckpt, &file, &sjl, &store}) {
    EXPECT_GT(tally->rejected, 0);
  }
  EXPECT_GT(sjl.accepted, 0);
  EXPECT_GT(store.accepted, 0);
  // The CRC frame means a weight-file mutant can only load if it spells
  // the seed's exact bytes, so the network never changes.
  for (size_t k = 0; k < net->params.size(); ++k) {
    EXPECT_EQ(net->params[k]->value.data(), weights[k]) << "parameter " << k;
  }
  std::remove(weight_path.c_str());
  std::remove(journal_path.c_str());
  std::remove(store_path.c_str());
}

}  // namespace
}  // namespace atena
