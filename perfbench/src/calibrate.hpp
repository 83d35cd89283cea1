#pragma once

/// The speed of the machine at the moment, measured on a fixed piece of the
/// benchmark's own work, so that run.py can express times at one reference
/// speed.  On a shared virtual machine the same tune takes up to twice as
/// long from one few-minute stretch to the next (README.md, "Calibrated
/// times"); the kernel below slows with it.  It is benchmark code, not
/// program code, so a change to the program does not move it.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Seconds one pass of the calibration kernel takes: small dense float
/// matrix products, like the policy networks' layers, then sorting and
/// histogram accumulation over a float column, like tree building.  The
/// work is fixed; only the machine's speed changes the result.
inline double calibration_pass_s() {
  constexpr int kN = 48;
  constexpr int kReps = 20;
  std::vector<float> a(kN * kN), b(kN * kN), c(kN * kN);
  std::vector<float> col(1 << 13);
  std::vector<double> hist(256);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (float& v : a) v = static_cast<float>(next() % 1000) * 1e-3f;
  for (float& v : b) v = static_cast<float>(next() % 1000) * 1e-3f;
  volatile float sink = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kReps; ++r) {
    for (int m = 0; m < 8; ++m) {
      for (int i = 0; i < kN; ++i) {
        for (int j = 0; j < kN; ++j) {
          float s = 0;
          for (int k = 0; k < kN; ++k) s += a[i * kN + k] * b[k * kN + j];
          c[i * kN + j] = s;
        }
      }
      a[m] = c[m] * 1e-3f;
    }
    for (float& v : col) v = static_cast<float>(next() % 100000) * 1e-5f;
    std::sort(col.begin(), col.end());
    for (float v : col) hist[static_cast<int>(v * 255.0f)] += v;
    sink = sink + c[r % (kN * kN)] + static_cast<float>(hist[r % 256]);
  }
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Median of three passes.
inline double calibrate_s() {
  double p[3] = {calibration_pass_s(), calibration_pass_s(), calibration_pass_s()};
  std::sort(p, p + 3);
  return p[1];
}

}  // namespace perfbench
