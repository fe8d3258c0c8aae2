#include "rl/checkpoint.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/file_io.h"
#include "common/token_codec.h"
#include "nn/serialization.h"

namespace atena {

namespace {

constexpr char kCkptMagic[] = "ATENA-CKPT v2";
// The v1 payload spelled doubles in decimal, which cannot carry a NaN
// filter term; it is rejected rather than read.
constexpr char kRetiredCkptMagic[] = "ATENA-CKPT v1\n";

std::string RenameError(const std::string& from, const std::string& to) {
  return "rename '" + from + "' -> '" + to + "' failed: " +
         std::strerror(errno) + " (errno " + std::to_string(errno) + ")";
}

void WriteOps(TokenWriter& out, const char* keyword,
              const std::vector<EdaOperation>& ops) {
  out.Word(keyword).Int(ops.size()).Nl();
  for (const EdaOperation& op : ops) {
    WriteOperation(out, op);
    out.Nl();
  }
}

Status ReadOps(TokenReader& in, const char* keyword,
               std::vector<EdaOperation>* ops) {
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword(keyword));
  int64_t count = 0;
  ATENA_RETURN_IF_ERROR(in.ReadCount(&count, keyword));
  // Elements are appended as they parse, never sized from the count, so
  // a lying count costs no more memory than the bytes actually present.
  ops->clear();
  for (int64_t i = 0; i < count; ++i) {
    ATENA_RETURN_IF_ERROR(ReadOperation(in, &ops->emplace_back()));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeCheckpointPayload(const std::vector<Parameter*>& params,
                                    const TrainingCheckpoint& ckpt) {
  std::string payload;
  TokenWriter out(payload);
  out.Word("steps_done").Int(ckpt.steps_done).Nl();
  out.Word("updates_done").Int(ckpt.updates_done).Nl();
  out.Word("trainer_rng").Rng(ckpt.trainer_rng).Nl();
  out.Word("episodes").Int(ckpt.episodes).Nl();
  out.Word("best_reward").F64(ckpt.best_episode_reward).Nl();

  out.Word("curve").Int(ckpt.curve.size()).Nl();
  for (const CurvePoint& point : ckpt.curve) {
    out.Int(point.step).F64(point.mean_episode_reward).Nl();
  }
  out.Word("recent").Int(ckpt.recent_episode_rewards.size());
  for (const double reward : ckpt.recent_episode_rewards) out.F64(reward);
  out.Nl();
  WriteOps(out, "best_ops", ckpt.best_episode_ops);

  out.Word("actors").Int(ckpt.actors.size()).Nl();
  for (const ActorCheckpoint& actor : ckpt.actors) {
    out.Word("actor")
        .Int(actor.env_seed)
        .Rng(actor.env_rng)
        .F64(actor.episode_reward)
        .Nl();
    WriteOps(out, "ops", actor.episode_ops);
  }

  out.Word("adam_step").Int(ckpt.adam_step).Nl();
  out.Word("adam_moments").Int(ckpt.adam_m.size()).Nl();
  for (size_t k = 0; k < ckpt.adam_m.size(); ++k) {
    WriteMatrix(out, ckpt.adam_m[k]);
    WriteMatrix(out, ckpt.adam_v[k]);
  }

  // Guard recovery state travels only once an anomaly has occurred (see
  // TrainingCheckpoint::guard).
  if (!ckpt.guard.IsDefault()) {
    out.Word("guard")
        .Int(ckpt.guard.retries_used)
        .F64(ckpt.guard.lr_scale)
        .Int(ckpt.guard.last_good_update)
        .Int(ckpt.guard.events_logged)
        .Nl();
  }

  // The network weights: the bare ATENA-NN parameter block.
  out.Word("params").Nl();
  WriteParameters(out, params);
  out.Word("end").Nl();
  return payload;
}

Status DecodeCheckpointPayload(const std::string& payload,
                               const std::vector<Parameter*>& params,
                               const std::string& source,
                               TrainingCheckpoint* out) {
  TokenReader in(payload, source);
  TrainingCheckpoint ckpt;

  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("steps_done"));
  ATENA_RETURN_IF_ERROR(in.Read(&ckpt.steps_done, "steps_done"));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("updates_done"));
  ATENA_RETURN_IF_ERROR(in.Read(&ckpt.updates_done, "updates_done"));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("trainer_rng"));
  ATENA_RETURN_IF_ERROR(in.ReadRng(&ckpt.trainer_rng));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("episodes"));
  ATENA_RETURN_IF_ERROR(in.Read(&ckpt.episodes, "episodes"));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("best_reward"));
  ATENA_RETURN_IF_ERROR(in.ReadF64(&ckpt.best_episode_reward, "best_reward"));

  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("curve"));
  int64_t curve_count = 0;
  ATENA_RETURN_IF_ERROR(in.ReadCount(&curve_count, "curve"));
  ckpt.curve.resize(static_cast<size_t>(curve_count));
  for (CurvePoint& point : ckpt.curve) {
    ATENA_RETURN_IF_ERROR(in.Read(&point.step, "curve step"));
    ATENA_RETURN_IF_ERROR(
        in.ReadF64(&point.mean_episode_reward, "curve reward"));
  }

  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("recent"));
  int64_t recent_count = 0;
  ATENA_RETURN_IF_ERROR(in.ReadCount(&recent_count, "recent"));
  ckpt.recent_episode_rewards.resize(static_cast<size_t>(recent_count));
  for (double& reward : ckpt.recent_episode_rewards) {
    ATENA_RETURN_IF_ERROR(in.ReadF64(&reward, "recent reward"));
  }

  ATENA_RETURN_IF_ERROR(ReadOps(in, "best_ops", &ckpt.best_episode_ops));

  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("actors"));
  int64_t actor_count = 0;
  ATENA_RETURN_IF_ERROR(in.ReadCount(&actor_count, "actors"));
  for (int64_t i = 0; i < actor_count; ++i) {
    ActorCheckpoint& actor = ckpt.actors.emplace_back();
    ATENA_RETURN_IF_ERROR(in.ExpectKeyword("actor"));
    ATENA_RETURN_IF_ERROR(in.Read(&actor.env_seed, "actor env seed"));
    ATENA_RETURN_IF_ERROR(in.ReadRng(&actor.env_rng));
    ATENA_RETURN_IF_ERROR(
        in.ReadF64(&actor.episode_reward, "actor episode reward"));
    ATENA_RETURN_IF_ERROR(ReadOps(in, "ops", &actor.episode_ops));
  }

  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("adam_step"));
  ATENA_RETURN_IF_ERROR(in.Read(&ckpt.adam_step, "adam_step"));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("adam_moments"));
  int64_t moment_count = 0;
  ATENA_RETURN_IF_ERROR(in.ReadCount(&moment_count, "adam_moments"));
  if (moment_count != 0 &&
      moment_count != static_cast<int64_t>(params.size())) {
    return in.Fail("adam moment count " + std::to_string(moment_count) +
                   " does not match network parameter count " +
                   std::to_string(params.size()));
  }
  ckpt.adam_m.resize(static_cast<size_t>(moment_count));
  ckpt.adam_v.resize(static_cast<size_t>(moment_count));
  for (size_t k = 0; k < ckpt.adam_m.size(); ++k) {
    const Matrix& expected = params[k]->value;
    ATENA_RETURN_IF_ERROR(
        ReadMatrixLike(in, expected, "adam m", &ckpt.adam_m[k]));
    ATENA_RETURN_IF_ERROR(
        ReadMatrixLike(in, expected, "adam v", &ckpt.adam_v[k]));
  }

  // The optional guard section sits between the Adam moments and the
  // parameter block; its absence means "no guard event ever happened".
  std::string_view section;
  ATENA_RETURN_IF_ERROR(in.Token(&section, "section keyword"));
  if (section == "guard") {
    GuardCheckpointState& guard = ckpt.guard;
    ATENA_RETURN_IF_ERROR(in.Read(&guard.retries_used, "guard retries"));
    ATENA_RETURN_IF_ERROR(in.ReadF64(&guard.lr_scale, "guard lr scale"));
    ATENA_RETURN_IF_ERROR(
        in.Read(&guard.last_good_update, "guard last good update"));
    ATENA_RETURN_IF_ERROR(in.Read(&guard.events_logged, "guard events"));
    if (guard.retries_used < 0 || guard.last_good_update < 0 ||
        guard.events_logged < 0 || !(guard.lr_scale > 0.0) ||
        !std::isfinite(guard.lr_scale)) {
      return in.Fail("implausible guard state");
    }
    ATENA_RETURN_IF_ERROR(in.Token(&section, "section keyword"));
  }
  if (section != "params") {
    return in.Fail("expected section 'params', got '" + std::string(section) +
                   "'");
  }
  ATENA_RETURN_IF_ERROR(ParseParametersInto(params, in, &ckpt.param_values));
  ATENA_RETURN_IF_ERROR(in.ExpectKeyword("end"));
  if (!in.AtEnd()) return in.Fail("trailing bytes after 'end'");

  *out = std::move(ckpt);
  return Status::OK();
}

Status SaveTrainingCheckpoint(const std::string& path,
                              const std::vector<Parameter*>& params,
                              const TrainingCheckpoint& ckpt) {
  const std::string payload = EncodeCheckpointPayload(params, ckpt);
  const std::string fresh = path + ".new";
  const std::string prev = path + ".prev";
  // The new snapshot becomes durable under a side name first; only then is
  // the current snapshot demoted to `.prev` and the new one promoted. A
  // crash at any point leaves at least one fully-written snapshot among
  // {path, .prev, .new}.
  ATENA_RETURN_IF_ERROR(WriteChecksummedFile(fresh, kCkptMagic, payload));
  if (FileExists(path)) {
    if (std::rename(path.c_str(), prev.c_str()) != 0) {
      return Status::IOError(RenameError(path, prev));
    }
  }
  if (std::rename(fresh.c_str(), path.c_str()) != 0) {
    return Status::IOError(RenameError(fresh, path));
  }
  return Status::OK();
}

Status LoadTrainingCheckpoint(const std::string& path,
                              const std::vector<Parameter*>& params,
                              TrainingCheckpoint* out,
                              CheckpointLoadInfo* info) {
  auto try_load = [&](const std::string& p,
                      TrainingCheckpoint* ckpt) -> Status {
    std::string payload;
    ATENA_RETURN_IF_ERROR(ReadChecksummedFile(p, kCkptMagic, &payload));
    return DecodeCheckpointPayload(payload, params, p, ckpt);
  };

  TrainingCheckpoint staged;
  Status primary = try_load(path, &staged);
  if (primary.ok()) {
    if (info) *info = CheckpointLoadInfo{};
    *out = std::move(staged);
    return Status::OK();
  }
  const std::string prev = path + ".prev";
  Status fallback = try_load(prev, &staged);
  if (fallback.ok()) {
    if (info) {
      info->recovered_from_prev = true;
      info->primary_error = primary.ToString();
    }
    *out = std::move(staged);
    return Status::OK();
  }
  return Status::IOError("no loadable checkpoint: '" + path + "' (" +
                         primary.ToString() + "); '" + prev + "' (" +
                         fallback.ToString() + ")");
}

bool OpExecutableOn(const Table& table, const EdaOperation& op) {
  const int num_cols = table.num_columns();
  switch (op.type) {
    case OpType::kBack:
      return true;
    case OpType::kFilter:
      return op.filter.column >= 0 && op.filter.column < num_cols;
    case OpType::kGroup:
      return op.group.group_column >= 0 && op.group.group_column < num_cols &&
             op.group.agg_column >= -1 && op.group.agg_column < num_cols;
  }
  return false;
}

Status LoadPolicyParameters(const std::string& path,
                            const std::vector<Parameter*>& params) {
  std::string text;
  const Status read = ReadFileToString(path, &text);
  if (read.ok() && text.rfind("ATENA-NN", 0) == 0) {
    const Status loaded = LoadParameters(params, path);
    if (loaded.code() == StatusCode::kFailedPrecondition) {
      // Architecture mismatch: the container was trained with a network
      // this policy was not constructed as. Keep the shape detail and say
      // what to fix.
      return Status::FailedPrecondition(
          "'" + path + "': " + loaded.message() +
          " — the policy must be constructed with the hidden sizes and "
          "dataset schema the container was trained with");
    }
    return loaded;
  }
  if (read.ok() && text.rfind(kRetiredCkptMagic, 0) == 0) {
    return Status::InvalidArgument("'" + path + "' is a retired " +
                                   std::string(kRetiredCkptMagic) +
                                   " checkpoint; re-save it with this build");
  }

  // Anything else is treated as an ATENA-CKPT container; the loader
  // recovers from `<path>.prev` when the primary is corrupt, and its
  // decoder validates the embedded parameter block against `params`.
  const bool looks_like_ckpt =
      read.ok() && text.rfind("ATENA-CKPT", 0) == 0;
  TrainingCheckpoint ckpt;
  Status loaded = LoadTrainingCheckpoint(path, params, &ckpt);
  if (!loaded.ok()) {
    if (!looks_like_ckpt) {
      return Status::InvalidArgument(
          "'" + path + "' is neither an ATENA-NN parameter file nor an "
          "ATENA-CKPT training checkpoint: " +
          (read.ok() ? loaded.ToString() : read.ToString()));
    }
    return loaded;
  }
  // ParseParametersInto (inside the decoder) guarantees one staged matrix
  // per network parameter, already shape-checked.
  for (size_t k = 0; k < params.size(); ++k) {
    params[k]->value = std::move(ckpt.param_values[k]);
  }
  return Status::OK();
}

}  // namespace atena
