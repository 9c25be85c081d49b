// Background insertion-rate reporting for long ingestion runs, after the
// track_insertions pattern of production stream processors: a sampler
// thread polls a progress counter about once a second and redraws a
// progress bar with the instantaneous updates/sec.
#ifndef GRAPHSKETCH_SRC_DRIVER_PROGRESS_H_
#define GRAPHSKETCH_SRC_DRIVER_PROGRESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>

#include "src/core/sync.h"

namespace gsketch {

/// Polls `counter()` until it reaches `total` (or Stop()), printing a progress
/// bar + rate line to `out` each interval. Counter units are whatever the
/// caller supplies — but `total` MUST be in the same units
/// (SketchSession::applied_halves counts endpoint half-updates, 2 per stream
/// token; to report stream tokens, pass total in tokens and a lambda that
/// halves that counter). The bar and percentage clamp at 100%, so a counter
/// that overshoots `total` cannot draw an over-full bar.
///
/// Resumed runs: pass `initial` = the position the counter starts from
/// (the checkpoint's stream_pos) and a counter that ADDS it, with `total`
/// the FULL stream length. Percent then reflects true stream position
/// instead of restarting at 0% of the remainder, rates cover only the
/// work this run actually did, and the closing line says where the run
/// resumed.
class InsertionTracker {
 public:
  InsertionTracker(uint64_t total, std::function<uint64_t()> counter,
                   uint64_t initial = 0, std::FILE* out = stderr,
                   double interval_seconds = 1.0);

  /// Stops the sampler thread and prints the closing line — the final
  /// count and the run's average rate, so the last readout survives on
  /// screen; idempotent.
  void Stop();

  ~InsertionTracker();

  InsertionTracker(const InsertionTracker&) = delete;
  InsertionTracker& operator=(const InsertionTracker&) = delete;

 private:
  void Loop();

  const uint64_t total_;
  const std::function<uint64_t()> counter_;
  const uint64_t initial_;  // counter value at start (resume seed)
  std::FILE* const out_;
  const double interval_seconds_;
  const std::chrono::steady_clock::time_point start_;
  // Leaf lock (sync.h): only the stop handshake is guarded; the counter
  // poll and the bar redraw run with mu_ released.
  Mutex mu_;
  CondVar wake_;
  bool stopping_ GSKETCH_GUARDED_BY(mu_) = false;
  bool stopped_ GSKETCH_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_DRIVER_PROGRESS_H_
