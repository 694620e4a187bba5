#ifndef XBENCH_SRC_CALIBRATION_H_
#define XBENCH_SRC_CALIBRATION_H_

// Host-speed calibration. The machines the benchmark runs on are shared,
// and their speed drifts by 20-40% over minutes as other tenants load the
// same cores, caches and memory. A fixed reference kernel, timed between
// the benchmark's ops, slows down with the host; dividing the measured
// times by the kernel's slowdown removes most of that drift.
//
// The kernel is the benchmark's own code: it is built as its own target,
// does not link the library, and allocates only from its own pool, so no
// change to the library (its compile flags, its allocator) can change the
// kernel's speed.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

namespace xbench {

class HostSpeed {
 public:
  /// Median kernel time on the reference machine (see baseline.json).
  static constexpr double kReferenceKernelUs = 22000;

  /// Sets up the kernel's buffers and pool and runs it once untimed.
  HostSpeed();

  /// Times one run of the kernel and records it.
  void Sample();

  /// Marks the end of the set-up phase: the samples taken so far calibrate
  /// the set-up, the later ones the timed part.
  void EndSetup() { setup_samples_ = kernel_us_.size(); }

  size_t samples() const { return kernel_us_.size(); }
  /// Median kernel time over the set-up's samples, us.
  double SetupKernelUs() const;
  /// Median kernel time over the samples after set-up, us.
  double TimedKernelUs() const;
  /// Kernel time over kReferenceKernelUs: above 1 when the host ran slower
  /// than the reference machine during set-up or the timed part.
  double SetupSlowdown() const { return SetupKernelUs() / kReferenceKernelUs; }
  double Slowdown() const { return TimedKernelUs() / kReferenceKernelUs; }

 private:
  /// Median of kernel_us_[first, last), or the reference time when empty.
  double MedianUs(size_t first, size_t last) const;
  /// One pass of the kernel; returns a checksum so no work is elided.
  uint64_t RunKernel();

  std::vector<std::byte> arena_;
  std::unique_ptr<std::pmr::monotonic_buffer_resource> upstream_;
  std::unique_ptr<std::pmr::unsynchronized_pool_resource> pool_;
  std::vector<std::pair<void*, size_t>> blocks_;
  std::vector<uint64_t> sort_input_;
  std::vector<uint64_t> sort_work_;
  std::vector<double> kernel_us_;
  size_t setup_samples_ = 0;
  uint64_t sink_ = 0;
};

}  // namespace xbench

#endif  // XBENCH_SRC_CALIBRATION_H_
