#include "merge/merge_executor.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/dependence_graph.h"
#include "common/check.h"
#include "eval/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/isomorphism.h"
#include "xml/symbol_table.h"

namespace xmlup {

namespace {

/// One flattened op in serial order. `key` numbers the op's exact
/// identity within the merge (see OpKeys).
struct Slot {
  size_t session = 0;
  size_t index = 0;
  UpdateOp op;
  uint32_t key = 0;
};

/// Numbers the slots' bound ops by exact identity — pattern ref, kind and,
/// for an insert, the content's canonical code: the update half of the
/// batch engine's BatchPairKey. Equal numbers mean equal certificates,
/// since a certificate reads only its two bound ops. Codes are computed
/// here, once per insert, and compared within the call, so no store lock
/// is taken. The scan over distinct keys is O(ops · keys), which the pair
/// loop's O(ops²) dominates. Returns the number of distinct keys.
uint32_t OpKeys(std::vector<Slot>* slots) {
  struct Key {
    uint32_t ref;
    UpdateOp::Kind kind;
    std::string content;
  };
  std::vector<Key> keys;
  for (Slot& slot : *slots) {
    Key key{slot.op.pattern_ref().id(), slot.op.kind(), {}};
    if (key.kind == UpdateOp::Kind::kInsert) {
      key.content = CanonicalCode(slot.op.content());
    }
    size_t at = 0;
    while (at < keys.size() &&
           !(keys[at].ref == key.ref && keys[at].kind == key.kind &&
             keys[at].content == key.content)) {
      ++at;
    }
    if (at == keys.size()) keys.push_back(std::move(key));
    slot.key = static_cast<uint32_t>(at);
  }
  return static_cast<uint32_t>(keys.size());
}

std::string PartnerDetail(const Slot& partner, std::string_view why) {
  std::string detail = "uncertified against session " +
                       std::to_string(partner.session) + " op " +
                       std::to_string(partner.index);
  if (!why.empty()) {
    detail += ": ";
    detail += why;
  }
  return detail;
}

/// The merge.* metrics, resolved once like DetectorMetrics, so a merge
/// takes no registry lock.
struct MergeMetrics {
  obs::Counter& merges;
  obs::Counter& ops;
  obs::Counter& accepted;
  obs::Counter& serialized;
  obs::Counter& rejected;
  obs::Counter& levels;
  obs::Counter& pairs_checked;
  obs::Counter& pairs_certified;
  obs::Counter& cert_errors;
  /// CertifyCommute calls: one per distinct ordered op pair of a merge.
  obs::Counter& certificates;
  obs::Histogram& width;

  static const MergeMetrics& Get() {
    static const MergeMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new MergeMetrics{
          reg.GetCounter("merge.merges"),
          reg.GetCounter("merge.ops"),
          reg.GetCounter("merge.accepted"),
          reg.GetCounter("merge.serialized"),
          reg.GetCounter("merge.rejected"),
          reg.GetCounter("merge.levels"),
          reg.GetCounter("merge.pairs_checked"),
          reg.GetCounter("merge.pairs_certified"),
          reg.GetCounter("merge.cert_errors"),
          reg.GetCounter("merge.certificates"),
          reg.GetHistogram("merge.width"),
      };
    }();
    return *metrics;
  }
};

}  // namespace

std::string_view MergeOutcomeName(MergeOutcome outcome) {
  switch (outcome) {
    case MergeOutcome::kAccepted:
      return "accepted";
    case MergeOutcome::kSerialized:
      return "serialized";
    case MergeOutcome::kRejected:
      return "rejected";
  }
  return "unknown";
}

JsonValue MergeReport::ToJson() const {
  JsonValue json = JsonValue::MakeObject();
  json.Set("ops_total", static_cast<uint64_t>(ops_total));
  json.Set("accepted", static_cast<uint64_t>(accepted));
  json.Set("serialized", static_cast<uint64_t>(serialized));
  json.Set("rejected", static_cast<uint64_t>(rejected));
  json.Set("levels", static_cast<uint64_t>(levels));
  json.Set("width", static_cast<uint64_t>(width));
  json.Set("pairs_checked", static_cast<uint64_t>(pairs_checked));
  json.Set("pairs_certified", static_cast<uint64_t>(pairs_certified));
  json.Set("cert_errors", static_cast<uint64_t>(cert_errors));
  JsonValue op_list = JsonValue::MakeArray();
  for (const MergeOpReport& op : ops) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("session", static_cast<uint64_t>(op.session));
    entry.Set("index", static_cast<uint64_t>(op.index));
    entry.Set("outcome", MergeOutcomeName(op.outcome));
    entry.Set("level", static_cast<uint64_t>(op.level));
    if (!op.detail.empty()) entry.Set("detail", op.detail);
    op_list.Append(std::move(entry));
  }
  json.Set("ops", std::move(op_list));
  return json;
}

MergeExecutor::MergeExecutor(Engine* engine, MergeOptions options)
    : engine_(engine), options_(options) {
  XMLUP_CHECK(engine_ != nullptr);
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

Result<MergeReport> MergeExecutor::Merge(
    Tree* tree, const std::vector<std::vector<UpdateOp>>& sessions) const {
  XMLUP_CHECK(tree != nullptr);
  // Single-caller tripwire (see active_calls_ in the header). RAII so the
  // count unwinds on early returns.
  struct CallScope {
    explicit CallScope(std::atomic<int>& count) : count_(count) {
      // ordering: relaxed — diagnostic counter only, not synchronization;
      // overlap it happens to miss is still caught by TSan on the tree.
      XMLUP_DCHECK(count_.fetch_add(1, std::memory_order_relaxed) == 0)
          << "MergeExecutor::Merge is single-caller per executor: use one "
             "executor per thread (they may share the Engine).";
    }
    // ordering: relaxed — see above.
    ~CallScope() { count_.fetch_sub(1, std::memory_order_relaxed); }
    std::atomic<int>& count_;
  } call_scope(active_calls_);
  const std::shared_ptr<SymbolTable>& symbols = engine_->symbols();
  if (!SameSymbolTable(tree->symbols(), symbols)) {
    return Status::InvalidArgument(
        "merge tree must share the engine's SymbolTable");
  }
  // Every op's pattern and content too, before anything is bound: the
  // store cannot intern a foreign pattern, and foreign content would graft
  // labels that mean something else in this tree.
  for (size_t s = 0; s < sessions.size(); ++s) {
    for (size_t k = 0; k < sessions[s].size(); ++k) {
      const UpdateOp& op = sessions[s][k];
      if (!SameSymbolTable(op.pattern().symbols(), symbols) ||
          (op.kind() == UpdateOp::Kind::kInsert &&
           !SameSymbolTable(op.content().symbols(), symbols))) {
        return Status::InvalidArgument(
            "session " + std::to_string(s) + " op " + std::to_string(k) +
            ": pattern and insert content must share the engine's "
            "SymbolTable");
      }
    }
  }
  obs::TraceSpan span("Merge");

  // Flatten the streams in the serial order (session id, stream index) —
  // the total order every tie-break below falls back to.
  std::vector<Slot> slots;
  for (size_t s = 0; s < sessions.size(); ++s) {
    for (size_t k = 0; k < sessions[s].size(); ++k) {
      slots.push_back(Slot{s, k, engine_->Bind(sessions[s][k])});
    }
  }
  const size_t n = slots.size();

  MergeReport report;
  report.ops_total = n;
  report.ops.reserve(n);
  for (const Slot& slot : slots) {
    MergeOpReport op;
    op.session = slot.session;
    op.index = slot.index;
    report.ops.push_back(std::move(op));
  }

  // --- Certify all pairs; uncertified pairs become forward edges --------
  // Edges are built in (i, j) lexicographic order with i < j, so every
  // edge into a node precedes every edge out of it — the property the
  // admission scan below relies on. A certificate reads only its two
  // bound ops, so each distinct ordered key pair is certified once, at
  // its first pair in that order, and later pairs with the same keys take
  // its answer: the same report, "o1"/"o2" detail included, that their
  // own call would return.
  std::vector<DependenceEdge> edges;
  size_t certificates = 0;
  {
    obs::TraceSpan certify_span("Merge.certify");
    const uint32_t keys = OpKeys(&slots);
    constexpr uint32_t kUncertified = UINT32_MAX;
    // cert_of[a * keys + b]: the certificate of key pair (a, b), by index.
    std::vector<uint32_t> cert_of(size_t{keys} * keys, kUncertified);
    std::vector<Result<IndependenceReport>> certs;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        ++report.pairs_checked;
        uint32_t& at = cert_of[size_t{slots[i].key} * keys + slots[j].key];
        if (at == kUncertified) {
          at = static_cast<uint32_t>(certs.size());
          certs.push_back(engine_->CertifyCommute(slots[i].op, slots[j].op));
        }
        const Result<IndependenceReport>& cert = certs[at];
        std::string error;
        std::string_view why;
        if (!cert.ok()) {
          // Soundness: a failed certificate call is never an independence
          // claim — the pair is ordered like any uncertified one.
          ++report.cert_errors;
          error = cert.status().ToString();
          why = error;
        } else if (cert->certificate == CommutativityCertificate::kCertified) {
          ++report.pairs_certified;
          continue;
        } else {
          why = cert->detail;
        }
        edges.push_back({i, j, EdgeReason::kUpdatePair, ""});
        if (slots[i].session != slots[j].session) {
          if (report.ops[i].detail.empty()) {
            report.ops[i].detail = PartnerDetail(slots[j], why);
          }
          if (report.ops[j].detail.empty()) {
            report.ops[j].detail = PartnerDetail(slots[i], why);
          }
        }
      }
    }
    certificates = certs.size();
  }

  // --- Admission (kReject): first committer wins -------------------------
  // Greedy scan in serial order: an op with an uncertified cross-session
  // pair against an earlier *admitted* op is dropped. Processing edges in
  // their (i, j) order is exactly that scan — rejected[i] is final before
  // any edge out of i is seen.
  std::vector<char> rejected(n, 0);
  if (options_.policy == ConflictPolicy::kReject) {
    for (const DependenceEdge& edge : edges) {
      if (slots[edge.from].session == slots[edge.to].session) continue;
      if (!rejected[edge.from]) rejected[edge.to] = 1;
    }
    std::erase_if(edges, [&](const DependenceEdge& edge) {
      return rejected[edge.from] || rejected[edge.to];
    });
  }

  // --- Wavefront levels (the shared dependence core) ---------------------
  // Ops sharing a level have no edge between them, i.e. every pair in a
  // level is certified to commute. Rejected ops join no level.
  const Wavefronts waves = ComputeWavefronts(n, edges, rejected);

  // --- Outcomes ----------------------------------------------------------
  // Serialized = an uncertified cross-session pair between two *executed*
  // ops (under kReject such a pair cannot survive admission, so every
  // executed op there is accepted).
  std::vector<char> serialized(n, 0);
  for (const DependenceEdge& edge : edges) {
    if (slots[edge.from].session == slots[edge.to].session) continue;
    serialized[edge.from] = serialized[edge.to] = 1;
  }
  for (size_t i = 0; i < n; ++i) {
    MergeOpReport& op = report.ops[i];
    if (rejected[i]) {
      op.outcome = MergeOutcome::kRejected;
      ++report.rejected;
      continue;
    }
    op.level = waves.level[i];
    if (serialized[i]) {
      op.outcome = MergeOutcome::kSerialized;
      ++report.serialized;
    } else {
      op.outcome = MergeOutcome::kAccepted;
      op.detail.clear();  // a detail recorded against a rejected partner
      ++report.accepted;
    }
  }
  report.levels = waves.batches.size();
  report.width = waves.width;

  // --- Execute ------------------------------------------------------------
  // Split-phase per level: evaluations of the level's patterns run in
  // parallel against the pre-level tree (read-only), then mutations apply
  // serially in serial order. Within a level every pair is certified, so
  // no mutation in the level changes another member's selected set — the
  // precomputed points equal the points each op would see at its serial
  // position. The path is the same for every num_threads, which is what
  // makes reports and trees bit-identical at 1 vs 8 threads.
  {
    obs::TraceSpan execute_span("Merge.execute");
    std::vector<std::vector<NodeId>> points(n);
    for (const std::vector<size_t>& batch : waves.batches) {
      obs::TraceSpan level_span("Merge.level");
      ParallelFor(pool_.get(), batch.size(), [&](size_t k) {
        const Slot& slot = slots[batch[k]];
        points[batch[k]] = Evaluate(slot.op.pattern(), *tree);
      });
      for (size_t idx : batch) slots[idx].op.ApplyAt(tree, points[idx]);
    }
  }

  const MergeMetrics& metrics = MergeMetrics::Get();
  metrics.merges.Increment();
  metrics.ops.Increment(report.ops_total);
  metrics.accepted.Increment(report.accepted);
  metrics.serialized.Increment(report.serialized);
  metrics.rejected.Increment(report.rejected);
  metrics.levels.Increment(report.levels);
  metrics.pairs_checked.Increment(report.pairs_checked);
  metrics.pairs_certified.Increment(report.pairs_certified);
  metrics.cert_errors.Increment(report.cert_errors);
  metrics.certificates.Increment(certificates);
  metrics.width.Observe(report.width);
  return report;
}

void ApplySerialReference(Tree* tree,
                          const std::vector<std::vector<UpdateOp>>& sessions,
                          const MergeReport& report) {
  XMLUP_CHECK(tree != nullptr);
  for (const MergeOpReport& op : report.ops) {
    if (op.outcome == MergeOutcome::kRejected) continue;
    XMLUP_CHECK(op.session < sessions.size() &&
                op.index < sessions[op.session].size());
    sessions[op.session][op.index].ApplyInPlace(tree);
  }
}

}  // namespace xmlup
