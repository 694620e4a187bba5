// merge_edits: MergeExecutor::Merge of concurrent session streams of
// anchored linear updates onto seed documents of a few thousand nodes.
// Detection certifies update/update pairs (§6), then the writes execute,
// so the ops and eval layers carry real work.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/engine.h"
#include "eval/evaluator.h"
#include "merge/merge_executor.h"
#include "pattern/xpath_parser.h"
#include "workloads.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xbench {
namespace {

using xmlup::Engine;
using xmlup::MergeReport;
using xmlup::Result;
using xmlup::Tree;
using xmlup::UpdateOp;

// Seed documents: <r> with one s<k> subtree per anchor, each holding 60
// a/b groups, 30 c/d groups and 10 e/f pairs — about 2 200 nodes. Only the
// b and d counts are random, so every document costs about the same to
// merge into and the merge latency has one mode.
constexpr size_t kAnchors = 8;
constexpr size_t kSeedDocuments = 4;

// A unit is one merge: kSessions streams of kOpsPerSession ops. Some
// sessions edit the unit's shared anchor, the others an anchor of their
// own, so units mix certified (disjoint) and uncertified (shared)
// cross-session pairs. Eighteen ops per unit keep the unit cost close to
// one mode.
constexpr size_t kSessions = 6;
constexpr size_t kOpsPerSession = 3;
// kSharingUnits[k] of every 63 consecutive units have k sessions on the
// shared anchor, in seeded order: each k from 0 to 6 equally often. With
// each session sharing with probability 1/2 instead, the costliest units
// (k of 5 or 6) were 11% of the mix and moved with the seed, so p90 sat on
// the steep edge of that class and moved by 0.15 between seeds.
constexpr size_t kSharingUnits[kSessions + 1] = {9, 9, 9, 9, 9, 9, 9};

constexpr size_t kWarmupUnits = 64;
// The timed part cycles through kUnits units, enough that the unit mix
// barely differs between seeds.
constexpr size_t kUnits = 1024;
// The first kTallyUnits merges always run; their outcomes are tallied and
// their cross-session pairs re-detected singly (witnesses checked).
constexpr size_t kTallyUnits = 64;
// Peak memory is read after this many merges.
constexpr size_t kRssUnits = 4000;

struct Unit {
  size_t seed = 0;
  std::vector<std::vector<UpdateOp>> streams;
};

struct State {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<xmlup::MergeExecutor> executor;
  std::vector<Tree> seeds;
  std::vector<Unit> units;
  double intern_us = 0;
  double store_hit_rate = 0;
};

Tree MakeSeedDocument(const std::shared_ptr<xmlup::SymbolTable>& symbols,
                      xmlup::Rng& rng) {
  Tree tree(symbols);
  const auto label = [&](const std::string& name) {
    return symbols->Intern(name);
  };
  const xmlup::NodeId root = tree.CreateRoot(label("r"));
  for (size_t k = 0; k < kAnchors; ++k) {
    std::string name = "s";
    name += std::to_string(k);
    const xmlup::NodeId s = tree.AddChild(root, label(name));
    for (size_t i = 0; i < 60; ++i) {
      const xmlup::NodeId a = tree.AddChild(s, label("a"));
      for (size_t j = 0, m = 1 + rng.NextBounded(3); j < m; ++j) {
        tree.AddChild(a, label("b"));
      }
    }
    for (size_t i = 0; i < 30; ++i) {
      const xmlup::NodeId c = tree.AddChild(s, label("c"));
      for (size_t j = 0, m = rng.NextBounded(3); j < m; ++j) {
        tree.AddChild(c, label("d"));
      }
    }
    for (size_t i = 0; i < 10; ++i) {
      tree.AddChild(tree.AddChild(s, label("e")), label("f"));
    }
  }
  return tree;
}

/// The bench_merge op templates over the a/b/c/d furniture of one anchor.
UpdateOp DrawOp(Engine& engine, const std::string& anchor, xmlup::Rng& rng) {
  const std::shared_ptr<xmlup::SymbolTable>& symbols = engine.symbols();
  const auto content = [&](std::initializer_list<const char*> path) {
    std::vector<xmlup::Label> labels;
    for (const char* name : path) labels.push_back(symbols->Intern(name));
    return std::make_shared<const Tree>(
        xmlup::BuildPathTree(symbols, labels));
  };
  const auto xpath = [&](const std::string& text) {
    return xmlup::MustParseXPath(text, symbols);
  };
  switch (rng.NextBounded(5)) {
    case 0:
      return UpdateOp::MakeInsert(xpath(anchor), content({"a", "b"}));
    case 1:
      return UpdateOp::MakeInsert(xpath(anchor + "/a"), content({"b"}));
    case 2:
      return UpdateOp::MakeInsert(xpath(anchor + "/c"), content({"d"}));
    case 3:
      return UpdateOp::MakeDelete(xpath(anchor + "/a/b")).value();
    default:
      return UpdateOp::MakeDelete(xpath(anchor + "/c/d")).value();
  }
}

template <typename T>
void Shuffle(std::vector<T>* values, xmlup::Rng& rng) {
  for (size_t k = values->size(); k > 1; --k) {
    std::swap((*values)[k - 1], (*values)[rng.NextBounded(k)]);
  }
}

/// The number of sharing sessions of each of `units` units.
std::vector<size_t> DrawSharing(size_t units, xmlup::Rng& rng) {
  std::vector<size_t> sharing;
  while (sharing.size() < units) {
    std::vector<size_t> block;
    for (size_t k = 0; k <= kSessions; ++k) {
      block.insert(block.end(), kSharingUnits[k], k);
    }
    Shuffle(&block, rng);
    sharing.insert(sharing.end(), block.begin(), block.end());
  }
  sharing.resize(units);
  return sharing;
}

Unit DrawUnit(Engine& engine, size_t sharing, xmlup::Rng& rng,
              Tracer& tracer, double* intern_us) {
  Unit unit;
  unit.seed = rng.NextBounded(kSeedDocuments);
  // A random permutation of the anchors: the first is shared, the rest
  // are handed out to sessions that edit their own subtree.
  std::vector<size_t> anchors(kAnchors);
  for (size_t k = 0; k < kAnchors; ++k) anchors[k] = k;
  Shuffle(&anchors, rng);
  // The first `sharing` sessions of a random order edit the shared anchor.
  std::vector<size_t> order(kSessions);
  for (size_t s = 0; s < kSessions; ++s) order[s] = s;
  Shuffle(&order, rng);
  std::vector<bool> shares(kSessions, false);
  for (size_t i = 0; i < sharing; ++i) shares[order[i]] = true;
  unit.streams.resize(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    const size_t anchor = shares[s] ? anchors[0] : anchors[1 + s];
    const std::string path = "r/s" + std::to_string(anchor);
    for (size_t i = 0; i < kOpsPerSession; ++i) {
      const UpdateOp raw = DrawOp(engine, path, rng);
      ScopedSpan span(tracer, "pattern");
      const int64_t start = NowNs();
      unit.streams[s].push_back(engine.Bind(raw));
      *intern_us += static_cast<double>(NowNs() - start) / 1e3;
    }
  }
  return unit;
}

std::unique_ptr<State> SetUp(const RunConfig& config, Tracer& tracer) {
  ScopedSpan setup_span(tracer, "bench.setup");
  CounterWindow window;
  window.Begin();
  auto state = std::make_unique<State>();
  xmlup::EngineOptions options;
  options.batch.num_threads = 1;
  state->engine = std::make_unique<Engine>(
      std::make_shared<xmlup::SymbolTable>(), options);
  Engine& engine = *state->engine;
  // Inline executor: the one client thread evaluates each level.
  state->executor = std::make_unique<xmlup::MergeExecutor>(&engine);

  xmlup::Rng rng(config.seed);
  for (size_t i = 0; i < kSeedDocuments; ++i) {
    ScopedSpan span(tracer, "xml");
    state->seeds.push_back(MakeSeedDocument(engine.symbols(), rng));
  }
  std::vector<Unit> warmup;
  for (size_t sharing : DrawSharing(kWarmupUnits, rng)) {
    warmup.push_back(
        DrawUnit(engine, sharing, rng, tracer, &state->intern_us));
  }
  for (size_t sharing : DrawSharing(kUnits, rng)) {
    state->units.push_back(
        DrawUnit(engine, sharing, rng, tracer, &state->intern_us));
  }
  for (const Unit& unit : warmup) {
    Tree working = xmlup::CopyTree(state->seeds[unit.seed]);
    ScopedSpan span(tracer, "merge");
    (void)state->executor->Merge(&working, unit.streams);
  }
  window.End();
  state->store_hit_rate =
      HitRate(window, "pattern_store.hits", "pattern_store.misses");
  return state;
}

/// Per-unit timings of the layers under a merge, from the traced run.
struct Attribution {
  Samples certify_us;
  Samples evaluate_us;
};

/// Calls the layers a merge goes through one by one, for attribution:
/// CertifyCommute on every op pair and Evaluate of every op on the seed.
void Attribute(Engine& engine, const Unit& unit, const Tree& seed,
               Tracer& tracer, Attribution* out) {
  std::vector<const UpdateOp*> ops;
  for (const auto& stream : unit.streams) {
    for (const UpdateOp& op : stream) ops.push_back(&op);
  }
  const int64_t start = NowNs();
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t j = i + 1; j < ops.size(); ++j) {
      ScopedSpan span(tracer, "update_independence");
      (void)engine.CertifyCommute(*ops[i], *ops[j]);
    }
  }
  out->certify_us.Add(static_cast<double>(NowNs() - start) / 1e3);
  for (const UpdateOp* op : ops) {
    ScopedSpan span(tracer, "eval");
    const int64_t t0 = NowNs();
    (void)xmlup::Evaluate(op->pattern(), seed);
    out->evaluate_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
}

}  // namespace

void RunMergeEdits(Context& ctx) {
  Samples setup_seconds;
  const std::unique_ptr<State> state = RepeatSetup<State>(
      [&] { return SetUp(ctx.config, ctx.tracer); }, &ctx.host,
      &setup_seconds);
  Engine& engine = *state->engine;

  TimedPart timed(ctx.config.seconds, kTallyUnits, kRssUnits, &ctx.host);
  Samples merge_us;
  Samples apply_us;
  Attribution attribution;
  PairChecks checks;
  uint64_t pairs_checked = 0;
  uint64_t pairs_certified = 0;
  std::vector<std::string> expected_code(state->units.size());
  const size_t symbols_before = engine.symbols()->size();

  while (!timed.Expired()) {
    const size_t index = timed.ops();
    const Unit& unit = state->units[index % state->units.size()];
    const Tree& seed = state->seeds[unit.seed];
    Tree working = xmlup::CopyTree(seed);
    timed.Begin();
    std::optional<Result<MergeReport>> report;
    {
      ScopedSpan span(ctx.tracer, "merge");
      report.emplace(state->executor->Merge(&working, unit.streams));
    }
    merge_us.Add(timed.End());

    ScopedSpan check(ctx.tracer, "bench.check");
    std::string why;
    if (!report->ok()) {
      why = "Merge error: " + report->status().ToString();
    } else {
      const MergeReport& r = **report;
      pairs_checked += r.pairs_checked;
      pairs_certified += r.pairs_certified;
      if (r.accepted + r.serialized + r.rejected != r.ops_total) {
        why = "outcome accounting does not add up";
      } else if (r.rejected != 0) {
        why = "the serializing policy rejected an op";
      }
      // Every op executes, so the serial reference of a unit is the same
      // tree each time the unit comes round: compute its code once.
      std::string& expected = expected_code[index % state->units.size()];
      if (expected.empty()) {
        Tree reference = xmlup::CopyTree(seed);
        {
          ScopedSpan span(ctx.tracer, "ops");
          const int64_t start = NowNs();
          xmlup::ApplySerialReference(&reference, unit.streams, r);
          apply_us.Add(static_cast<double>(NowNs() - start) / 1e3);
        }
        ScopedSpan span(ctx.tracer, "xml");
        expected = xmlup::CanonicalCode(reference);
      }
      ScopedSpan span(ctx.tracer, "xml");
      if (why.empty() && xmlup::CanonicalCode(working) != expected) {
        why = "merged tree differs from the serial reference";
      }
      if (index < kTallyUnits) {
        checks.tally.Add("merge.accepted", r.accepted);
        checks.tally.Add("merge.serialized", r.serialized);
        checks.tally.Add("merge.rejected", r.rejected);
        checks.tally.Add("merge.levels", r.levels);
        checks.tally.Add("merge.pairs_checked", r.pairs_checked);
        checks.tally.Add("merge.pairs_certified", r.pairs_certified);
      }
    }
    if (index < kTallyUnits) {
      // Cross-session read/update pairs, detected singly: each op's
      // pattern read against every other session's update.
      for (size_t s = 0; s < unit.streams.size(); ++s) {
        for (size_t t = 0; t < unit.streams.size(); ++t) {
          if (s == t) continue;
          for (const UpdateOp& reader : unit.streams[s]) {
            for (const UpdateOp& update : unit.streams[t]) {
              const std::string pair_why = CheckPair(
                  ctx, engine, reader.pattern_ref(), update, &checks);
              if (why.empty()) why = pair_why;
            }
          }
        }
      }
      if (ctx.tracer.enabled()) {
        Attribute(engine, unit, seed, ctx.tracer, &attribution);
      }
    }
    if (!why.empty()) {
      ctx.report.Fail("merge " + std::to_string(index) + ": " + why);
    }
  }
  ctx.report.AddAttempted(timed.ops());

  ctx.report.Note("tally (first " + std::to_string(kTallyUnits) +
                  " merges): " + checks.tally.ToString() +
                  " trees_checked=" + std::to_string(checks.trees_checked));
  const double certified_share = Ratio(static_cast<double>(pairs_certified),
                                       static_cast<double>(pairs_checked));
  ReportEndToEnd(ctx, setup_seconds, timed, certified_share);

  LayerInputs layers;
  layers.intern_us = state->intern_us;
  layers.store_hit_rate = state->store_hit_rate;
  layers.checks = &checks;
  layers.certify_us = attribution.certify_us.Quantile(0.5);
  layers.certified_share = certified_share;
  layers.apply_us = apply_us.Quantile(0.5);
  layers.evaluate_us = attribution.evaluate_us.Quantile(0.5);
  layers.engine = &engine;
  layers.symbols_before = symbols_before;
  ReportPerLayer(ctx, timed, layers);
}

}  // namespace xbench
