#ifndef XMLUP_OBS_SCOPED_TIMER_H_
#define XMLUP_OBS_SCOPED_TIMER_H_

#include <chrono>

#include "obs/metrics.h"

namespace xmlup {
namespace obs {

/// RAII latency probe: records the scope's wall time, in microseconds,
/// into a Histogram on destruction.
///
///   static obs::Histogram& lat =
///       obs::MetricsRegistry::Default().GetHistogram("detector.latency_us");
///   obs::ScopedTimer timer(&lat);
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { histogram_->Observe(ElapsedMicros()); }

  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace xmlup

#endif  // XMLUP_OBS_SCOPED_TIMER_H_
