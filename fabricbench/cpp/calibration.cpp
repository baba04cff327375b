#include "calibration.hpp"

#include <chrono>
#include <memory>
#include <string>

namespace fabricbench {

namespace {

constexpr std::uint64_t kKeys = 1024;
constexpr std::uint32_t kFrames = 64;
constexpr std::uint64_t kKeySpread = 0x9E3779B97F4A7C15ull;

}  // namespace

Calibration::Calibration() : frames_(kFrames) {
  table_.reserve(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    table_.emplace(i * kKeySpread, static_cast<std::uint32_t>(i));
  }
}

double Calibration::slice(unsigned iterations) {
  // The fabric's tick may have evicted the yardstick's small working set;
  // an untimed pass warms it, so the timed pass measures the machine, not
  // the preceding tick's cache footprint.
  run(iterations);
  const auto start = std::chrono::steady_clock::now();
  run(iterations);
  const auto end = std::chrono::steady_clock::now();
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                                 .count()) /
         static_cast<double>(iterations);
}

void Calibration::run(unsigned iterations) {
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < iterations; ++i) {
    auto block = std::make_unique<std::array<char, 64>>();
    (*block)[i % 64] = static_cast<char>(i);
    frames_[i % kFrames] = frames_[(i * 31) % kFrames];
    acc += table_.find(((i * 2654435761u) % kKeys) * kKeySpread)->second;
    const std::string label = "to 10.0.0." + std::to_string(i % 256);
    acc += label.size() + static_cast<std::uint64_t>((*block)[3]);
  }
  sink_ += acc;  // the member store keeps the loop from being elided
}

}  // namespace fabricbench
