#include "serve/journal.h"

#include <string_view>
#include <utility>

#include "common/file_io.h"
#include "common/token_codec.h"

namespace atena {

namespace {

constexpr char kFileHeader[] = "ATENA-SJL v1\n";
constexpr size_t kFileHeaderLen = sizeof(kFileHeader) - 1;

bool SameWords(const RngState& a, const RngState& b) {
  return a.words[0] == b.words[0] && a.words[1] == b.words[1] &&
         a.words[2] == b.words[2] && a.words[3] == b.words[3];
}

}  // namespace

JournalRng MakeJournalRng(const RngState& before, const RngState& after) {
  JournalRng out;
  Rng probe(1);
  probe.set_state(before);
  for (uint32_t draws = 0; draws <= kMaxJournalRngDelta; ++draws) {
    if (SameWords(probe.state(), after)) {
      out.full = false;
      out.draws = draws;
      out.has_spare = after.has_spare_gaussian;
      out.spare = after.spare_gaussian;
      return out;
    }
    probe.NextUint64();
  }
  // Unprovable (a re-seed, or an unusually draw-hungry step): record the
  // state verbatim. Correct either way — the delta is an optimization.
  out.full = true;
  out.state = after;
  return out;
}

RngState MaterializeJournalRng(const JournalRng& rng,
                               const RngState& current) {
  if (rng.full) return rng.state;
  Rng probe(1);
  probe.set_state(current);
  for (uint32_t i = 0; i < rng.draws; ++i) probe.NextUint64();
  RngState out = probe.state();
  out.has_spare_gaussian = rng.has_spare;
  // Without a spare the cached value is untouched garbage the step either
  // never looked at or consumed in place — both leave the bytes equal to
  // `current`'s (already carried through the probe), so only a fresh
  // spare needs restoring. The writer omits the value accordingly.
  if (rng.has_spare) out.spare_gaussian = rng.spare;
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Payload encoding, in the shared token spelling (common/token_codec.h):
// whitespace-delimited keyword sections, strings length-prefixed so
// arbitrary dataset tokens survive, doubles as their IEEE-754 bit pattern —
// exact by construction and several times cheaper than shortest-round-trip
// decimal on both the encode (one tick record per Tick, on the serving hot
// path) and the replay-parse side.

// Tick entries carry the delta form when possible ("d <draws> <spare>"),
// the full state ("F <state>") otherwise — the dominant byte saving of the
// tick record. A cleared/absent spare keeps its pre-step bytes, so its
// value is omitted (MaterializeJournalRng carries it from `current`).
void WriteJournalRng(TokenWriter& out, const JournalRng& rng) {
  if (rng.full) {
    out.Word("F").Rng(rng.state);
    return;
  }
  out.Word("d").Int(rng.draws).Bool(rng.has_spare);
  if (rng.has_spare) out.F64(rng.spare);
}

void WriteStep(TokenWriter& out, const EdaOperation& op, bool valid,
               double reward, uint64_t display_signature) {
  out.Bool(valid).F64(reward).Int(display_signature);
  WriteOperation(out, op);
}

std::string EncodeMetaPayload(const JournalMeta& meta) {
  std::string payload;
  TokenWriter out(payload);
  out.Word("version").Int(meta.version).Nl();
  out.Word("dataset").String(meta.dataset_id).Nl();
  out.Word("obs_dim").Int(meta.observation_dim).Nl();
  out.Word("episode_length").Int(meta.episode_length).Nl();
  out.Word("term_bins").Int(meta.num_term_bins).Nl();
  return payload;
}

std::string EncodeAdmitPayload(const JournalAdmit& admit) {
  std::string payload;
  TokenWriter(payload)
      .Int(admit.id)
      .Int(admit.seed)
      .Int(admit.max_steps)
      .Bool(admit.greedy)
      .Int(admit.gen)
      .Nl();
  return payload;
}

std::string EncodeReloadPayload(const JournalReload& reload) {
  std::string payload;
  TokenWriter(payload).Int(reload.gen).String(reload.path).Nl();
  return payload;
}

std::string TickPayloadHeader(bool overloaded, size_t count) {
  std::string payload;
  TokenWriter(payload).Bool(overloaded).Int(count).Nl();
  return payload;
}

std::string EncodeStopPayload(const std::vector<uint64_t>& ids) {
  std::string payload;
  TokenWriter out(payload);
  out.Int(ids.size());
  for (uint64_t id : ids) out.Int(id);
  out.Nl();
  return payload;
}

std::string EncodeSnapPayload(const JournalSnapshot& snap) {
  std::string payload;
  payload.reserve(256 + snap.sessions.size() * 512);
  TokenWriter out(payload);
  out.Word("next_id").Int(snap.next_id).Nl();
  out.Word("steps_served").Int(snap.steps_served).Nl();
  out.Word("overloaded").Bool(snap.overloaded).Nl();
  out.Word("stats").Int(snap.stats.size());
  for (int64_t v : snap.stats) out.Int(v);
  out.Nl();
  out.Word("gens").Int(snap.generation_paths.size()).Nl();
  for (const std::string& path : snap.generation_paths) {
    out.String(path).Nl();
  }
  out.Word("current_gen").Int(snap.current_gen).Nl();
  out.Word("notebook_seq").Int(snap.notebook_seq).Nl();
  out.Word("sessions").Int(snap.sessions.size()).Nl();
  for (const JournalSessionState& s : snap.sessions) {
    out.Word("session")
        .Int(s.id)
        .Int(s.seed)
        .Int(s.max_steps)
        .Bool(s.greedy)
        .Int(s.gen)
        .Int(s.steps_done)
        .Int(s.stage)
        .Int(s.degraded_steps)
        .Int(s.episode_steps)
        .F64(s.total_reward)
        .Nl();
    out.Word("env_rng").Rng(s.env_rng).Nl();
    out.Word("act_rng").Rng(s.act_rng).Nl();
    out.Word("trace").Int(s.trace.size()).Nl();
    for (const JournalStep& step : s.trace) {
      WriteStep(out, step.op, step.valid, step.reward, step.display_signature);
      out.Nl();
    }
  }
  out.Word("end").Nl();
  return payload;
}

// ---------------------------------------------------------------------------
// Payload decoding. Every read is checked; any surprise aborts the record's
// parse with a Status, which the journal reader maps to prefix semantics
// (drop this record and everything after it).

constexpr char kRecordSource[] = "journal record";

Status ReadJournalRng(TokenReader& in, JournalRng* rng) {
  std::string_view tag;
  ATENA_RETURN_IF_ERROR(in.Token(&tag, "rng tag"));
  if (tag == "F") {
    rng->full = true;
    return in.ReadRng(&rng->state);
  }
  if (tag != "d") return in.Fail("unknown rng tag '" + std::string(tag) + "'");
  rng->full = false;
  ATENA_RETURN_IF_ERROR(in.Read(&rng->draws, "rng draw delta"));
  if (rng->draws > kMaxJournalRngDelta) {
    return in.Fail("rng draw delta " + std::to_string(rng->draws) +
                   " out of range");
  }
  ATENA_RETURN_IF_ERROR(in.ReadBool(&rng->has_spare, "rng spare flag"));
  rng->spare = 0.0;
  if (rng->has_spare) {
    ATENA_RETURN_IF_ERROR(in.ReadF64(&rng->spare, "rng spare value"));
  }
  return Status::OK();
}

Status ReadStep(TokenReader& in, JournalStep* step) {
  ATENA_RETURN_IF_ERROR(in.ReadBool(&step->valid, "step valid flag"));
  ATENA_RETURN_IF_ERROR(in.ReadF64(&step->reward, "step reward"));
  ATENA_RETURN_IF_ERROR(in.Read(&step->display_signature, "step signature"));
  return ReadOperation(in, &step->op);
}

Status DecodeMetaPayload(const std::string& payload, JournalMeta* meta) {
  TokenReader in(payload, kRecordSource);
  JournalMeta out;
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("version"));
  ATENA_RETURN_IF_ERROR(in.Read(&out.version, "version"));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("dataset"));
  ATENA_RETURN_IF_ERROR(in.ReadString(&out.dataset_id, "dataset id"));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("obs_dim"));
  ATENA_RETURN_IF_ERROR(in.Read(&out.observation_dim, "obs_dim"));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("episode_length"));
  ATENA_RETURN_IF_ERROR(in.Read(&out.episode_length, "episode_length"));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("term_bins"));
  ATENA_RETURN_IF_ERROR(in.Read(&out.num_term_bins, "term_bins"));
  *meta = std::move(out);
  return Status::OK();
}

Status DecodeAdmitPayload(const std::string& payload, JournalAdmit* admit) {
  TokenReader in(payload, kRecordSource);
  JournalAdmit out;
  ATENA_RETURN_IF_ERROR(in.Read(&out.id, "admit id"));
  ATENA_RETURN_IF_ERROR(in.Read(&out.seed, "admit seed"));
  ATENA_RETURN_IF_ERROR(in.Read(&out.max_steps, "admit max_steps"));
  ATENA_RETURN_IF_ERROR(in.ReadBool(&out.greedy, "admit greedy flag"));
  ATENA_RETURN_IF_ERROR(in.Read(&out.gen, "admit generation"));
  *admit = out;
  return Status::OK();
}

Status DecodeReloadPayload(const std::string& payload, JournalReload* reload) {
  TokenReader in(payload, kRecordSource);
  JournalReload out;
  ATENA_RETURN_IF_ERROR(in.Read(&out.gen, "reload generation"));
  ATENA_RETURN_IF_ERROR(in.ReadString(&out.path, "reload path"));
  *reload = std::move(out);
  return Status::OK();
}

Status DecodeTickPayload(const std::string& payload, JournalTick* tick) {
  TokenReader in(payload, kRecordSource);
  JournalTick out;
  ATENA_RETURN_IF_ERROR(in.ReadBool(&out.overloaded, "tick overloaded"));
  int64_t count = 0;
  ATENA_RETURN_IF_ERROR(in.ReadCount(&count, "tick entry"));
  for (int64_t i = 0; i < count; ++i) {
    std::string_view tag;
    ATENA_RETURN_IF_ERROR(in.Token(&tag, "tick entry tag"));
    JournalTickEntry& entry = out.entries.emplace_back();
    if (tag == "q") {
      entry.kind = JournalTickEntry::Kind::kQuarantine;
      ATENA_RETURN_IF_ERROR(in.Read(&entry.id, "quarantine id"));
    } else if (tag == "s") {
      entry.kind = JournalTickEntry::Kind::kStep;
      ATENA_RETURN_IF_ERROR(in.Read(&entry.id, "step id"));
      ATENA_RETURN_IF_ERROR(in.Read(&entry.end, "step end"));
      if (entry.end < JournalTickEntry::kLive ||
          entry.end > JournalTickEntry::kDeadlineRetired) {
        return in.Fail("step end " + std::to_string(entry.end) +
                       " out of range");
      }
      ATENA_RETURN_IF_ERROR(in.Read(&entry.stage_after, "step stage"));
      ATENA_RETURN_IF_ERROR(ReadJournalRng(in, &entry.env_rng));
      ATENA_RETURN_IF_ERROR(ReadJournalRng(in, &entry.act_rng));
      ATENA_RETURN_IF_ERROR(ReadStep(in, &entry.step));
    } else {
      return in.Fail("unknown tick entry tag '" + std::string(tag) + "'");
    }
  }
  *tick = std::move(out);
  return Status::OK();
}

Status DecodeStopPayload(const std::string& payload,
                         std::vector<uint64_t>* ids) {
  TokenReader in(payload, kRecordSource);
  int64_t count = 0;
  ATENA_RETURN_IF_ERROR(in.ReadCount(&count, "stop id"));
  std::vector<uint64_t> out(static_cast<size_t>(count));
  for (uint64_t& id : out) {
    ATENA_RETURN_IF_ERROR(in.Read(&id, "stop id"));
  }
  *ids = std::move(out);
  return Status::OK();
}

Status DecodeSnapPayload(const std::string& payload, JournalSnapshot* snap) {
  TokenReader in(payload, kRecordSource);
  JournalSnapshot out;
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("next_id"));
  ATENA_RETURN_IF_ERROR(in.Read(&out.next_id, "next_id"));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("steps_served"));
  ATENA_RETURN_IF_ERROR(in.Read(&out.steps_served, "steps_served"));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("overloaded"));
  ATENA_RETURN_IF_ERROR(in.ReadBool(&out.overloaded, "overloaded"));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("stats"));
  int64_t stat_count = 0;
  ATENA_RETURN_IF_ERROR(in.ReadCount(&stat_count, "stats"));
  out.stats.resize(static_cast<size_t>(stat_count));
  for (int64_t& v : out.stats) {
    ATENA_RETURN_IF_ERROR(in.Read(&v, "stats value"));
  }
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("gens"));
  int64_t gen_count = 0;
  ATENA_RETURN_IF_ERROR(in.ReadCount(&gen_count, "generation"));
  if (gen_count < 1) return in.Fail("empty generation table");
  out.generation_paths.resize(static_cast<size_t>(gen_count));
  for (std::string& path : out.generation_paths) {
    ATENA_RETURN_IF_ERROR(in.ReadString(&path, "generation path"));
  }
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("current_gen"));
  ATENA_RETURN_IF_ERROR(in.Read(&out.current_gen, "current_gen"));
  if (out.current_gen >= out.generation_paths.size()) {
    return in.Fail("current_gen out of range");
  }
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("notebook_seq"));
  ATENA_RETURN_IF_ERROR(in.Read(&out.notebook_seq, "notebook_seq"));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("sessions"));
  int64_t session_count = 0;
  ATENA_RETURN_IF_ERROR(in.ReadCount(&session_count, "session"));
  for (int64_t i = 0; i < session_count; ++i) {
    JournalSessionState& s = out.sessions.emplace_back();
    ATENA_RETURN_IF_ERROR(in.ExpectKeyword("session"));
    ATENA_RETURN_IF_ERROR(in.Read(&s.id, "session id"));
    ATENA_RETURN_IF_ERROR(in.Read(&s.seed, "session seed"));
    ATENA_RETURN_IF_ERROR(in.Read(&s.max_steps, "session max_steps"));
    ATENA_RETURN_IF_ERROR(in.ReadBool(&s.greedy, "session greedy flag"));
    ATENA_RETURN_IF_ERROR(in.Read(&s.gen, "session generation"));
    if (s.gen >= out.generation_paths.size()) {
      return in.Fail("session generation out of range");
    }
    ATENA_RETURN_IF_ERROR(in.Read(&s.steps_done, "session steps_done"));
    ATENA_RETURN_IF_ERROR(in.Read(&s.stage, "session stage"));
    ATENA_RETURN_IF_ERROR(
        in.Read(&s.degraded_steps, "session degraded_steps"));
    ATENA_RETURN_IF_ERROR(in.Read(&s.episode_steps, "session episode_steps"));
    ATENA_RETURN_IF_ERROR(in.ReadF64(&s.total_reward, "session total_reward"));
    ATENA_RETURN_IF_ERROR(in.ExpectKeyword("env_rng"));
    ATENA_RETURN_IF_ERROR(in.ReadRng(&s.env_rng));
    ATENA_RETURN_IF_ERROR(in.ExpectKeyword("act_rng"));
    ATENA_RETURN_IF_ERROR(in.ReadRng(&s.act_rng));
    ATENA_RETURN_IF_ERROR(in.ExpectKeyword("trace"));
    int64_t trace_count = 0;
    ATENA_RETURN_IF_ERROR(in.ReadCount(&trace_count, "trace step"));
    if (s.episode_steps < 0 || s.episode_steps > trace_count) {
      return in.Fail("episode_steps out of range");
    }
    for (int64_t t = 0; t < trace_count; ++t) {
      ATENA_RETURN_IF_ERROR(ReadStep(in, &s.trace.emplace_back()));
    }
  }
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("end"));
  *snap = std::move(out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Record framing.

/// "ATJ <type> <crc32-8hex> <payload-bytes>\n".
std::string FrameHeader(const char* type, uint32_t crc, size_t size) {
  std::string header;
  TokenWriter(header).Word("ATJ").Word(type).Crc(crc).Int(size).Nl();
  return header;
}

std::string FrameRecord(const char* type, const std::string& payload) {
  std::string framed = FrameHeader(type, Crc32(payload), payload.size());
  framed += payload;
  framed += '\n';
  return framed;
}

/// Parses one frame-header line. Strict: exactly four tokens, the checksum
/// exactly 8 lowercase hex digits — so any byte flip inside the header is
/// itself detected.
bool ParseFrameHeader(std::string_view line, std::string* type,
                      uint32_t* crc, uint64_t* size) {
  TokenReader in(line, "journal frame");
  std::string_view magic, type_token;
  if (!in.Token(&magic, "frame magic").ok() || magic != "ATJ" ||
      !in.Token(&type_token, "frame type").ok() ||
      !in.ReadCrc(crc, "frame checksum").ok() ||
      !in.Read(size, "frame size").ok() || !in.AtEnd()) {
    return false;
  }
  *type = type_token;
  return true;
}

/// Decodes one verified record payload into `out`. `index` is the record's
/// position in the file: 0 must be meta, 1 must be the compaction
/// snapshot, everything after is the append stream.
Status DecodeRecord(const std::string& type, const std::string& payload,
                    int index, JournalContents* out) {
  if (index == 0) {
    if (type != "meta") {
      return Status::InvalidArgument("first journal record is '" + type +
                                     "', expected 'meta'");
    }
    ATENA_RETURN_IF_ERROR(DecodeMetaPayload(payload, &out->meta));
    out->has_meta = true;
    return Status::OK();
  }
  if (index == 1) {
    if (type != "snap") {
      return Status::InvalidArgument("second journal record is '" + type +
                                     "', expected 'snap'");
    }
    ATENA_RETURN_IF_ERROR(DecodeSnapPayload(payload, &out->snapshot));
    out->has_snapshot = true;
    out->snapshot_valid = true;
    return Status::OK();
  }
  JournalRecord record;
  if (type == "admit") {
    record.kind = JournalRecord::Kind::kAdmit;
    ATENA_RETURN_IF_ERROR(DecodeAdmitPayload(payload, &record.admit));
  } else if (type == "reload") {
    record.kind = JournalRecord::Kind::kReload;
    ATENA_RETURN_IF_ERROR(DecodeReloadPayload(payload, &record.reload));
  } else if (type == "tick") {
    record.kind = JournalRecord::Kind::kTick;
    ATENA_RETURN_IF_ERROR(DecodeTickPayload(payload, &record.tick));
  } else if (type == "stop") {
    record.kind = JournalRecord::Kind::kStop;
    ATENA_RETURN_IF_ERROR(DecodeStopPayload(payload, &record.stop_ids));
  } else {
    return Status::InvalidArgument("unknown journal record type '" + type +
                                   "'");
  }
  out->records.push_back(std::move(record));
  return Status::OK();
}

}  // namespace

void JournalTickBuilder::AddQuarantine(uint64_t id) {
  TokenWriter(body_).Word("q").Int(id).Nl();
  ++entries_;
}

void JournalTickBuilder::AddStep(uint64_t id, int end, int stage_after,
                                 const JournalRng& env, const JournalRng& act,
                                 const EdaOperation& op, bool valid,
                                 double reward, uint64_t display_signature) {
  TokenWriter out(body_);
  out.Word("s").Int(id).Int(end).Int(stage_after);
  WriteJournalRng(out, env);
  WriteJournalRng(out, act);
  WriteStep(out, op, valid, reward, display_signature);
  out.Nl();
  ++entries_;
}


std::string JournalSidecarPath(const std::string& journal_path, int64_t seq) {
  return journal_path + ".nb." + std::to_string(seq);
}

Result<JournalContents> ReadJournal(const std::string& path) {
  std::string content;
  ATENA_RETURN_IF_ERROR(ReadFileToString(path, &content));

  JournalContents out;
  if (content.size() < kFileHeaderLen) {
    if (std::string_view(kFileHeader, content.size()) == content) {
      out.header_torn = true;
      out.clean_tail = content.empty();
      return out;
    }
    return Status::InvalidArgument("'" + path +
                                   "' is not an ATENA-SJL journal");
  }
  if (std::string_view(content).substr(0, kFileHeaderLen) != kFileHeader) {
    return Status::InvalidArgument("'" + path +
                                   "' is not an ATENA-SJL journal");
  }

  size_t offset = kFileHeaderLen;
  int index = 0;
  while (offset < content.size()) {
    const size_t header_end = content.find('\n', offset);
    if (header_end == std::string::npos) {
      out.clean_tail = false;  // torn frame header (crash mid-append)
      break;
    }
    std::string type;
    uint32_t declared_crc = 0;
    uint64_t size = 0;
    const bool frame_ok = ParseFrameHeader(
        std::string_view(content).substr(offset, header_end - offset), &type,
        &declared_crc, &size);
    if (!frame_ok) {
      // A mangled frame header. If this is where the compaction snapshot
      // must sit, try to resync at the next frame so the records *after*
      // the corrupt snapshot stay available for the .prev fallback;
      // anywhere else, prefix semantics end the parse here.
      if (index == 1) {
        const size_t next = content.find("\nATJ ", offset);
        if (next != std::string::npos) {
          out.has_snapshot = true;
          out.snapshot_valid = false;
          offset = next + 1;
          index = 2;
          continue;
        }
        out.has_snapshot = true;
        out.snapshot_valid = false;
      }
      out.clean_tail = false;
      break;
    }
    const size_t payload_start = header_end + 1;
    // Compared without adding to `size`, which a corrupt header may set
    // near 2^64.
    if (payload_start >= content.size() ||
        size > content.size() - payload_start - 1) {
      out.clean_tail = false;  // torn payload
      break;
    }
    const std::string payload = content.substr(payload_start, size);
    bool record_ok = content[payload_start + size] == '\n' &&
                     Crc32(payload) == declared_crc;
    if (record_ok) {
      record_ok = DecodeRecord(type, payload, index, &out).ok();
    }
    if (!record_ok) {
      if (index == 1 && type == "snap") {
        // Corrupt compaction snapshot with an intact frame: skip exactly
        // its declared extent and keep the records after it (fallback
        // replays `<path>.prev` for the base state).
        out.has_snapshot = true;
        out.snapshot_valid = false;
        offset = payload_start + size + 1;
        ++index;
        continue;
      }
      out.clean_tail = false;
      break;
    }
    offset = payload_start + size + 1;
    ++index;
  }
  return out;
}

SessionJournal::SessionJournal(std::string path) : path_(std::move(path)) {}

Status SessionJournal::Reset(const JournalMeta& meta,
                             const JournalSnapshot& snapshot) {
  std::string content = kFileHeader;
  content += FrameRecord("meta", EncodeMetaPayload(meta));
  const size_t before_snap = content.size();
  content += FrameRecord("snap", EncodeSnapPayload(snapshot));
  const int64_t snap_bytes =
      static_cast<int64_t>(content.size() - before_snap);
  if (FileExists(path_)) {
    // Preserve the pre-compaction journal: if the snapshot we are about
    // to publish turns out unreadable, recovery replays `.prev` — which
    // ends exactly at the state the snapshot captured — and then applies
    // whatever was appended after the compaction.
    std::string previous;
    ATENA_RETURN_IF_ERROR(ReadFileToString(path_, &previous));
    ATENA_RETURN_IF_ERROR(AtomicWriteFile(path_ + ".prev", previous));
  }
  ATENA_RETURN_IF_ERROR(AtomicWriteFile(path_, content));
  // The rename above replaced the inode the held descriptor points at;
  // drop it so the next Append reopens the fresh file.
  appender_.Close();
  appended_bytes_ = 0;
  snapshot_bytes_ = snap_bytes;
  return Status::OK();
}

Status SessionJournal::Append(const char* type, const std::string& payload) {
  const std::string framed = FrameRecord(type, payload);
  if (!appender_.is_open()) {
    ATENA_RETURN_IF_ERROR(appender_.Open(path_));
  }
  ATENA_RETURN_IF_ERROR(appender_.AppendParts({framed}));
  appended_bytes_ += static_cast<int64_t>(framed.size());
  return Status::OK();
}

Status SessionJournal::Sync() { return appender_.Sync(); }

Status SessionJournal::AppendAdmit(const JournalAdmit& admit) {
  return Append("admit", EncodeAdmitPayload(admit));
}

Status SessionJournal::AppendReload(const JournalReload& reload) {
  return Append("reload", EncodeReloadPayload(reload));
}

Status SessionJournal::AppendTick(const JournalTickBuilder& builder,
                                 bool overloaded) {
  // The builder's body is never copied: the CRC streams over the payload
  // header and the body, and one gather write moves the frame header,
  // both pieces and the trailing newline into the kernel. The bytes on
  // disk are exactly
  // FrameRecord("tick", TickPayloadHeader(...) + body).
  const std::string header = TickPayloadHeader(overloaded, builder.entries());
  const std::string& body = builder.body();
  const std::string frame =
      FrameHeader("tick", Crc32Extend(Crc32Extend(0, header), body),
                  header.size() + body.size());
  if (!appender_.is_open()) {
    ATENA_RETURN_IF_ERROR(appender_.Open(path_));
  }
  ATENA_RETURN_IF_ERROR(appender_.AppendParts(
      {frame, header, body, std::string_view("\n", 1)}));
  appended_bytes_ += static_cast<int64_t>(frame.size() + header.size() +
                                          body.size() + 1);
  return Status::OK();
}

Status SessionJournal::AppendStop(const std::vector<uint64_t>& ids) {
  return Append("stop", EncodeStopPayload(ids));
}

}  // namespace atena
