// Pattern-interning benchmarks: PatternStore throughput on the miss path
// (canonicalize + minimize once) and the hit path (one code build + hash
// probe), plus the headline number — repeated batch dedup-key
// lookups with the interned integer BatchPairKey vs the string key the
// engine used before (canonical read code + kind + update code + content
// code concatenated per pair). The harness times the key comparison
// directly and writes it into BENCH_intern.json as "key_lookup" (with
// "speedup"); CI asserts speedup >= 5.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "benchmark/benchmark.h"
#include "conflict/batch_detector.h"
#include "pattern/pattern_ops.h"
#include "pattern/pattern_store.h"
#include "xml/isomorphism.h"
#include "xml/xml_parser.h"

namespace xmlup {
namespace {

/// The bench_batch workload shape: many pairs, few distinct patterns.
constexpr size_t kReads = 16;
constexpr size_t kUpdates = 8;
constexpr size_t kMatrix = 64;  // 64×64 index pairs over the pools

std::vector<Pattern> MakeReadPool() {
  std::vector<Pattern> pool;
  for (size_t i = 0; i < kReads - 2; ++i) {
    pool.push_back(bench::RandomLinear(5, /*seed=*/500 + i));
  }
  pool.push_back(bench::Xp("a[b]/c"));
  pool.push_back(bench::Xp("a[.//b]//c[a][b]"));
  return pool;
}

std::vector<UpdateOp> MakeUpdatePool() {
  auto content = [](const char* xml) {
    return std::make_shared<const Tree>(
        ParseXml(xml, bench::Symbols()).value());
  };
  std::vector<UpdateOp> pool;
  pool.push_back(UpdateOp::MakeInsert(bench::Xp("a/b"), content("<c/>")));
  pool.push_back(UpdateOp::MakeInsert(bench::Xp("a//c"), content("<b/>")));
  pool.push_back(UpdateOp::MakeInsert(bench::Xp("b"), content("<a><b/></a>")));
  pool.push_back(UpdateOp::MakeInsert(bench::Xp("*/c"), content("<c/>")));
  pool.push_back(UpdateOp::MakeDelete(bench::Xp("a/b")).value());
  pool.push_back(UpdateOp::MakeDelete(bench::Xp("a//c")).value());
  pool.push_back(UpdateOp::MakeDelete(bench::Xp("b/c")).value());
  pool.push_back(UpdateOp::MakeDelete(bench::Xp("*//b")).value());
  return pool;
}

/// Miss path: every intern is a distinct pattern — one canonical code,
/// one minimization, one entry each.
void BM_InternDistinct(benchmark::State& state) {
  std::vector<Pattern> patterns;
  for (size_t i = 0; i < 256; ++i) {
    patterns.push_back(bench::RandomLinear(6, /*seed=*/9000 + i));
  }
  for (auto _ : state) {
    PatternStore store(bench::Symbols());
    for (const Pattern& p : patterns) {
      benchmark::DoNotOptimize(store.Intern(p));
    }
    state.counters["distinct"] = static_cast<double>(store.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(patterns.size()));
}
BENCHMARK(BM_InternDistinct)->Unit(benchmark::kMicrosecond);

/// Hit path: the store is warm; each intern re-derives the input code and
/// probes the alias map, but never minimizes.
void BM_InternRepeated(benchmark::State& state) {
  const std::vector<Pattern> pool = MakeReadPool();
  PatternStore store(bench::Symbols());
  for (const Pattern& p : pool) store.Intern(p);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Intern(pool[i % pool.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InternRepeated);

/// --- Repeated-key lookup comparison (the acceptance number) ---
///
/// Both sides get the same warm state the engine would have after phase 1:
/// patterns interned, canonical codes computed. Per pair, the string side
/// assembles the old composite key (read code | kind | update code |
/// content code) and probes a string-keyed map; the interned side
/// assembles a BatchPairKey from the ids and probes the integer-keyed map.

struct KeyWorkload {
  // Interned side.
  std::vector<PatternRef> read_refs;
  std::vector<PatternRef> update_refs;
  std::vector<uint32_t> content_ids;
  std::vector<uint8_t> kinds;
  std::unordered_map<BatchPairKey, uint64_t, BatchPairKeyHash> int_map;
  // String side (codes precomputed, as the old engine's phase 1 did).
  std::vector<std::string> read_codes;
  std::vector<std::string> update_codes;
  std::vector<std::string> content_codes;
  std::unordered_map<std::string, uint64_t> string_map;
  std::vector<std::pair<size_t, size_t>> pairs;
};

std::string StringKey(const KeyWorkload& w, size_t i, size_t j) {
  std::string key;
  key.reserve(w.read_codes[i].size() + w.update_codes[j].size() +
              w.content_codes[j].size() + 4);
  key.append(w.read_codes[i]);
  key.push_back('\x1f');
  key.push_back(static_cast<char>('0' + w.kinds[j]));
  key.push_back('\x1f');
  key.append(w.update_codes[j]);
  key.push_back('\x1f');
  key.append(w.content_codes[j]);
  return key;
}

BatchPairKey IntKey(const KeyWorkload& w, size_t i, size_t j) {
  return BatchPairKey{w.read_refs[i].id(), w.update_refs[j].id(),
                      w.content_ids[j], w.kinds[j]};
}

KeyWorkload MakeKeyWorkload() {
  KeyWorkload w;
  PatternStore store(bench::Symbols());
  const std::vector<Pattern> reads = MakeReadPool();
  const std::vector<UpdateOp> updates = MakeUpdatePool();
  for (const Pattern& p : reads) {
    const PatternRef ref = store.Intern(p);
    w.read_refs.push_back(ref);
    w.read_codes.push_back(store.canonical_code(ref));
  }
  for (const UpdateOp& op : updates) {
    const PatternRef ref = store.Intern(op.pattern());
    w.update_refs.push_back(ref);
    w.update_codes.push_back(store.canonical_code(ref));
    w.kinds.push_back(static_cast<uint8_t>(op.kind()));
    if (op.kind() == UpdateOp::Kind::kInsert) {
      w.content_ids.push_back(store.InternContentCode(op.content()));
      w.content_codes.push_back(CanonicalCode(op.content()));
    } else {
      w.content_ids.push_back(0);
      w.content_codes.push_back("");
    }
  }
  for (size_t i = 0; i < kMatrix; ++i) {
    for (size_t j = 0; j < kMatrix; ++j) {
      w.pairs.emplace_back(i % w.read_refs.size(), j % w.update_refs.size());
    }
  }
  uint64_t next = 0;
  for (const auto& [i, j] : w.pairs) {
    w.string_map.emplace(StringKey(w, i, j), next);
    w.int_map.emplace(IntKey(w, i, j), next);
    ++next;
  }
  return w;
}

void BM_KeyLookupString(benchmark::State& state) {
  const KeyWorkload w = MakeKeyWorkload();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (const auto& [i, j] : w.pairs) {
      sum += w.string_map.find(StringKey(w, i, j))->second;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.pairs.size()));
}
BENCHMARK(BM_KeyLookupString);

void BM_KeyLookupInterned(benchmark::State& state) {
  const KeyWorkload w = MakeKeyWorkload();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (const auto& [i, j] : w.pairs) {
      sum += w.int_map.find(IntKey(w, i, j))->second;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.pairs.size()));
}
BENCHMARK(BM_KeyLookupInterned);

/// Harness-timed version of the two lookup loops above, so the acceptance
/// number lands in BENCH_intern.json (benchmark's own counters only reach
/// its console/JSON reporters). Best-of-`reps` to shrug off scheduler
/// noise.
std::string MeasureKeyLookup() {
  const KeyWorkload w = MakeKeyWorkload();
  constexpr int kReps = 7;
  constexpr int kInnerLoops = 50;
  auto time_best = [&](auto&& body) {
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int loop = 0; loop < kInnerLoops; ++loop) body();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best / (kInnerLoops * static_cast<double>(w.pairs.size()));
  };
  uint64_t sink = 0;
  const double string_s = time_best([&] {
    for (const auto& [i, j] : w.pairs) {
      sink += w.string_map.find(StringKey(w, i, j))->second;
    }
  });
  const double interned_s = time_best([&] {
    for (const auto& [i, j] : w.pairs) {
      sink += w.int_map.find(IntKey(w, i, j))->second;
    }
  });
  benchmark::DoNotOptimize(sink);
  const double speedup = string_s / interned_s;
  char buffer[256];
  snprintf(buffer, sizeof(buffer),
           "\"key_lookup\":{\"pairs\":%zu,\"string_ns\":%.2f,"
           "\"interned_ns\":%.2f,\"speedup\":%.2f}",
           w.pairs.size(), string_s * 1e9, interned_s * 1e9, speedup);
  std::cerr << "key_lookup speedup: " << speedup << "x (string "
            << string_s * 1e9 << " ns, interned " << interned_s * 1e9
            << " ns per lookup)\n";
  return buffer;
}

}  // namespace
}  // namespace xmlup

/// Custom main (instead of benchmark_main): honors XMLUP_OBS, measures the
/// string-vs-interned key comparison, and dumps metrics + the comparison
/// to BENCH_intern.json for the CI bench-smoke job.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool obs = xmlup::bench::EnableObsFromEnv();
  std::cerr << "obs " << (obs ? "enabled" : "disabled (XMLUP_OBS=0)") << "\n";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string key_lookup = xmlup::MeasureKeyLookup();
  xmlup::bench::DumpObs("intern", key_lookup);
  return 0;
}
