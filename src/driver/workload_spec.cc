#include "driver/workload_spec.h"

#include <utility>

#include "common/status.h"

namespace xmlup {
namespace driver {
namespace {

JsonValue MixJson(const PhaseMix& mix) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("insert", mix.insert);
  json.Set("delete", mix.delete_);
  json.Set("edit", mix.edit);
  return json;
}

JsonValue MergeJson(const MergePhaseSpec& merge) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("sessions", merge.sessions);
  json.Set("ops_per_session", merge.ops_per_session);
  json.Set("threads", merge.threads);
  return json;
}

JsonValue PhaseJson(const PhaseSpec& phase) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("name", phase.name);
  json.Set("mode", PhaseModeName(phase.mode));
  if (phase.kind != PhaseKind::kOps) {
    json.Set("kind", PhaseKindName(phase.kind));
  }
  json.Set("workers", phase.workers);
  json.Set("ops", phase.ops);
  if (phase.arrival_rate > 0) json.Set("arrival_rate", phase.arrival_rate);
  if (phase.max_duration_s > 0) json.Set("max_duration_s", phase.max_duration_s);
  if (phase.kind == PhaseKind::kMerge) {
    json.Set("merge", MergeJson(phase.merge));
  } else {
    json.Set("mix", MixJson(phase.mix));
  }
  return json;
}

JsonValue SessionsJson(const SessionSetup& sessions) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("count", sessions.count);
  json.Set("initial_reads", sessions.initial_reads);
  json.Set("initial_updates", sessions.initial_updates);
  return json;
}

Status ReadMix(const JsonValue& json, const std::string& context,
               PhaseMix* mix) {
  JsonObjectReader reader(json, context);
  reader.NonNegative("insert", &mix->insert);
  reader.NonNegative("delete", &mix->delete_);
  reader.NonNegative("edit", &mix->edit);
  if (Status s = reader.Finish(); !s.ok()) return s;
  if (mix->insert + mix->delete_ + mix->edit <= 0) {
    return Status::InvalidArgument(context +
                                   ": mix weights must have a positive sum");
  }
  return Status();
}

Status ReadMerge(const JsonValue& json, const std::string& context,
                 MergePhaseSpec* merge) {
  JsonObjectReader reader(json, context);
  reader.Size("sessions", &merge->sessions);
  reader.Size("ops_per_session", &merge->ops_per_session);
  reader.Size("threads", &merge->threads);
  if (Status s = reader.Finish(); !s.ok()) return s;
  if (merge->sessions == 0) {
    return Status::InvalidArgument(context + ": sessions must be >= 1");
  }
  if (merge->ops_per_session == 0) {
    return Status::InvalidArgument(context + ": ops_per_session must be >= 1");
  }
  return Status();
}

Status ReadPhase(const JsonValue& json, const std::string& context,
                 PhaseSpec* phase) {
  JsonObjectReader reader(json, context);
  reader.String("name", &phase->name);
  std::string mode = std::string(PhaseModeName(phase->mode));
  reader.String("mode", &mode);
  std::string kind = std::string(PhaseKindName(phase->kind));
  reader.String("kind", &kind);
  reader.Size("workers", &phase->workers);
  reader.Size("ops", &phase->ops);
  reader.NonNegative("arrival_rate", &phase->arrival_rate);
  reader.NonNegative("max_duration_s", &phase->max_duration_s);
  if (kind == "ops") {
    phase->kind = PhaseKind::kOps;
  } else if (kind == "merge") {
    phase->kind = PhaseKind::kMerge;
  } else {
    reader.RecordError("unknown kind \"" + kind +
                       "\" (expected \"ops\" or \"merge\")");
  }
  const JsonValue* mix = reader.Child("mix");
  if (mix != nullptr) {
    if (phase->kind == PhaseKind::kMerge) {
      reader.RecordError(
          "merge phases do not draw from a mix; remove the \"mix\" block");
    } else if (Status s = ReadMix(*mix, context + ".mix", &phase->mix);
               !s.ok()) {
      reader.RecordError(s.message());
    }
  }
  if (const JsonValue* merge = reader.Child("merge"); merge != nullptr) {
    if (phase->kind != PhaseKind::kMerge) {
      reader.RecordError(
          "the \"merge\" block is only valid on phases with kind \"merge\"");
    } else if (Status s = ReadMerge(*merge, context + ".merge", &phase->merge);
               !s.ok()) {
      reader.RecordError(s.message());
    }
  }
  if (mode == "closed") {
    phase->mode = PhaseMode::kClosed;
  } else if (mode == "open") {
    phase->mode = PhaseMode::kOpen;
  } else {
    reader.RecordError("unknown mode \"" + mode +
                       "\" (expected \"closed\" or \"open\")");
  }
  if (phase->workers == 0) reader.RecordError("workers must be >= 1");
  if (phase->ops == 0) reader.RecordError("ops must be >= 1");
  if (phase->mode == PhaseMode::kOpen && phase->arrival_rate <= 0) {
    reader.RecordError("open phases require arrival_rate > 0");
  }
  if (phase->mode == PhaseMode::kClosed && phase->arrival_rate > 0) {
    reader.RecordError("closed phases must not set arrival_rate");
  }
  return reader.Finish();
}

JsonValue DtdJson(const DtdSpec& dtd) {
  JsonValue json = JsonValue::MakeObject();
  JsonValue declarations = JsonValue::MakeArray();
  for (const std::string& line : dtd.declarations) declarations.Append(line);
  json.Set("declarations", std::move(declarations));
  return json;
}

Status ReadDtd(const JsonValue& json, DtdSpec* dtd) {
  JsonObjectReader reader(json, "dtd");
  const JsonValue* declarations = reader.Child("declarations");
  if (declarations == nullptr) {
    reader.RecordError("missing required key \"declarations\"");
  } else if (!declarations->is_array()) {
    reader.RecordError("\"declarations\" must be an array of strings");
  } else if (declarations->AsArray().empty()) {
    reader.RecordError(
        "\"declarations\" must be non-empty (omit the \"dtd\" block to run "
        "without a schema)");
  } else {
    for (size_t i = 0; i < declarations->AsArray().size(); ++i) {
      const JsonValue& line = declarations->AsArray()[i];
      if (!line.is_string()) {
        reader.RecordError("declarations[" + std::to_string(i) +
                           "] must be a string");
        continue;
      }
      dtd->declarations.push_back(line.AsString());
    }
  }
  return reader.Finish();
}

Status ReadSessions(const JsonValue& json, SessionSetup* sessions) {
  JsonObjectReader reader(json, "sessions");
  reader.Size("count", &sessions->count);
  reader.Size("initial_reads", &sessions->initial_reads);
  reader.Size("initial_updates", &sessions->initial_updates);
  return reader.Finish();
}

}  // namespace

std::string_view PhaseModeName(PhaseMode mode) {
  return mode == PhaseMode::kClosed ? "closed" : "open";
}

std::string_view PhaseKindName(PhaseKind kind) {
  return kind == PhaseKind::kOps ? "ops" : "merge";
}

Result<WorkloadSpec> WorkloadSpec::FromJson(const JsonValue& json) {
  WorkloadSpec spec;
  JsonObjectReader reader(json, "");
  reader.String("name", &spec.name);
  reader.U64("seed", &spec.seed);
  if (const JsonValue* generator = reader.Child("generator");
      generator != nullptr) {
    Result<workload::GeneratorSpec> parsed =
        workload::GeneratorSpec::FromJson(*generator);
    if (!parsed.ok()) return parsed.status();
    spec.generator = *std::move(parsed);
  }
  if (const JsonValue* dtd = reader.Child("dtd"); dtd != nullptr) {
    if (Status s = ReadDtd(*dtd, &spec.dtd); !s.ok()) return s;
  }
  if (const JsonValue* sessions = reader.Child("sessions");
      sessions != nullptr) {
    if (Status s = ReadSessions(*sessions, &spec.sessions); !s.ok()) return s;
  }
  const JsonValue* phases = reader.Child("phases");
  if (phases == nullptr) {
    reader.RecordError("missing required key \"phases\"");
  } else if (!phases->is_array()) {
    reader.RecordError("\"phases\" must be an array");
  } else if (phases->AsArray().empty()) {
    reader.RecordError("\"phases\" must be non-empty");
  } else {
    bool any_edits = false;
    for (size_t i = 0; i < phases->AsArray().size(); ++i) {
      PhaseSpec phase;
      const std::string context = "phases[" + std::to_string(i) + "]";
      phase.name = "phase" + std::to_string(i);
      if (Status s = ReadPhase(phases->AsArray()[i], context, &phase);
          !s.ok()) {
        return s;
      }
      any_edits = any_edits ||
                  (phase.kind == PhaseKind::kOps && phase.mix.edit > 0);
      spec.phases.push_back(std::move(phase));
    }
    if (any_edits && spec.sessions.count == 0) {
      reader.RecordError(
          "a phase mixes in edits but sessions.count is 0 — edit operations "
          "need at least one session");
    }
  }
  if (Status s = reader.Finish(); !s.ok()) return s;
  return spec;
}

Result<WorkloadSpec> WorkloadSpec::Parse(std::string_view json_text) {
  Result<JsonValue> json = ParseJson(json_text);
  if (!json.ok()) return json.status();
  return FromJson(*json);
}

JsonValue WorkloadSpec::ToJson() const {
  JsonValue json = JsonValue::MakeObject();
  json.Set("name", name);
  json.Set("seed", seed);
  json.Set("generator", generator.ToJson());
  if (dtd.enabled()) json.Set("dtd", DtdJson(dtd));
  json.Set("sessions", SessionsJson(sessions));
  JsonValue phase_array = JsonValue::MakeArray();
  for (const PhaseSpec& phase : phases) phase_array.Append(PhaseJson(phase));
  json.Set("phases", std::move(phase_array));
  return json;
}

bool operator==(const WorkloadSpec& a, const WorkloadSpec& b) {
  auto phase_eq = [](const PhaseSpec& x, const PhaseSpec& y) {
    return x.name == y.name && x.mode == y.mode && x.kind == y.kind &&
           x.workers == y.workers &&
           x.ops == y.ops && x.arrival_rate == y.arrival_rate &&
           x.max_duration_s == y.max_duration_s &&
           x.mix.insert == y.mix.insert && x.mix.delete_ == y.mix.delete_ &&
           x.mix.edit == y.mix.edit &&
           x.merge.sessions == y.merge.sessions &&
           x.merge.ops_per_session == y.merge.ops_per_session &&
           x.merge.threads == y.merge.threads;
  };
  if (!(a.name == b.name && a.seed == b.seed && a.generator == b.generator &&
        a.dtd.declarations == b.dtd.declarations &&
        a.sessions.count == b.sessions.count &&
        a.sessions.initial_reads == b.sessions.initial_reads &&
        a.sessions.initial_updates == b.sessions.initial_updates &&
        a.phases.size() == b.phases.size())) {
    return false;
  }
  for (size_t i = 0; i < a.phases.size(); ++i) {
    if (!phase_eq(a.phases[i], b.phases[i])) return false;
  }
  return true;
}

}  // namespace driver
}  // namespace xmlup
