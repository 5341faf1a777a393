#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

// Host-speed probe for the pipeline benchmark. A shared cloud host runs the
// same code 10-40% slower for minutes at a time while other tenants are
// busy, and every timing of a run moves with it. The probe times a fixed
// piece of work that shares no code with the library: building and tearing
// down a small ordered set, allocator and pointer-chasing work like the
// stores'. Times taken between two probes are scaled by the probes' speed
// against a fixed reference, so a slow stretch of the host does not read as
// a slow program.

#include <cmath>
#include <cstdint>
#include <set>

#include "trace.h"

namespace perfbench {

class HostSpeedProbe {
 public:
  // The kernel's time on the 4-vCPU cloud VM the benchmark was tuned on,
  // at its usual speed. Scaled times read as if the host ran at that speed.
  static constexpr double kReferenceNanos = 750000.0;

  // How much more the program's times move than the probe's when the host
  // changes speed. The probe's working set fits in L2 and the program's
  // does not, so a busy host slows the program more: over 60 runs of the
  // three workloads at probe speeds from 0.89 to 1.42 times the reference,
  // log(time) against log(probe speed) had slopes of 1.2 to 2.1 (median
  // 1.6) across the timed metrics, most with correlations of 0.8 to 0.99.
  static constexpr double kElasticity = 1.6;

  // The factor that brings a time measured between two probes that took
  // `before` and `after` ns to the reference speed.
  static double Scale(int64_t before, int64_t after) {
    return std::pow(2.0 * kReferenceNanos / static_cast<double>(before + after),
                    kElasticity);
  }

  // Runs the kernel kReps times; the fastest run, in ns.
  int64_t Nanos() {
    int64_t best = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const int64_t t0 = NowNanos();
      {
        std::set<uint64_t> set;
        uint64_t x = kSeed;
        for (int i = 0; i < kInserts; ++i) {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
          set.insert(x);
        }
        sink_ = sink_ + set.size();
      }  // the teardown is part of the kernel
      const int64_t t = NowNanos() - t0;
      if (rep == 0 || t < best) best = t;
    }
    return best;
  }

 private:
  static constexpr int kReps = 3;
  static constexpr int kInserts = 4000;
  static constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ULL;

  volatile uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
