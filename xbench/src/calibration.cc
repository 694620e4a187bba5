#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <map>

namespace xbench {
namespace {

// The kernel's three parts, chosen to load the host the way the engine
// does: an ordered map of small nodes built and searched (dependent loads,
// unpredictable branches), many small blocks allocated and freed, and a
// sort of a streamed buffer. On the reference machine it takes ~22 ms.
constexpr int kMapKeys = 30'000;
constexpr size_t kSmallBlocks = 20'000;
constexpr size_t kSortValues = 100'000;
// Enough for the map's nodes and the small blocks at their peak.
constexpr size_t kArenaBytes = size_t{4} << 20;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

HostSpeed::HostSpeed()
    : arena_(kArenaBytes),
      blocks_(kSmallBlocks),
      sort_input_(kSortValues),
      sort_work_(kSortValues) {
  // The pool draws from a fixed arena and never from the global heap.
  upstream_ = std::make_unique<std::pmr::monotonic_buffer_resource>(
      arena_.data(), arena_.size(), std::pmr::null_memory_resource());
  pool_ = std::make_unique<std::pmr::unsynchronized_pool_resource>(
      upstream_.get());
  uint64_t state = 1;
  for (uint64_t& v : sort_input_) v = SplitMix(&state);
  sink_ += RunKernel();
}

uint64_t HostSpeed::RunKernel() {
  uint64_t state = 2;
  uint64_t sum = 0;
  {
    std::pmr::map<uint64_t, uint64_t> map(pool_.get());
    for (int i = 0; i < kMapKeys; ++i) map[SplitMix(&state) >> 34] = i;
    for (int i = 0; i < kMapKeys; ++i) {
      const auto it = map.lower_bound(SplitMix(&state) >> 34);
      if (it != map.end()) sum += it->second;
    }
  }
  for (size_t i = 0; i < kSmallBlocks; ++i) {
    const size_t bytes = 4 * (1 + SplitMix(&state) % 8);
    void* block = pool_->allocate(bytes, 4);
    std::fill_n(static_cast<uint32_t*>(block), bytes / 4,
                static_cast<uint32_t>(i));
    blocks_[i] = {block, bytes};
  }
  for (const auto& [block, bytes] : blocks_) {
    sum += *static_cast<uint32_t*>(block);
    pool_->deallocate(block, bytes, 4);
  }
  std::copy(sort_input_.begin(), sort_input_.end(), sort_work_.begin());
  std::sort(sort_work_.begin(), sort_work_.end());
  return sum + sort_work_[kSortValues / 2];
}

void HostSpeed::Sample() {
  const int64_t start = NowNs();
  sink_ += RunKernel();
  kernel_us_.push_back(static_cast<double>(NowNs() - start) / 1e3);
}

double HostSpeed::MedianUs(size_t first, size_t last) const {
  if (first >= last) return kReferenceKernelUs;
  std::vector<double> sorted(kernel_us_.begin() + first,
                             kernel_us_.begin() + last);
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
}

double HostSpeed::SetupKernelUs() const { return MedianUs(0, setup_samples_); }

double HostSpeed::TimedKernelUs() const {
  return MedianUs(setup_samples_, kernel_us_.size());
}

}  // namespace xbench
