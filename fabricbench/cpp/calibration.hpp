// The in-run yardstick. Wall time of the fabric is reported as a ratio to
// this loop, run in a short slice before every measured tick, so that a
// machine that is slower for a few seconds slows both sides of the ratio.
//
// The loop is benchmark-owned code on purpose: a change to the simulator or
// LISP libraries cannot speed up the yardstick along with the fabric. Each
// iteration does the kinds of work a simulated packet does (a small heap
// allocation, a frame-sized copy, an integer-keyed hash lookup, a short
// string build) over a working set of a few KB.
//
// Measured on a 4-vCPU Xeon VM whose speed swings by up to 1.8x for seconds
// at a time: this loop tracks the 16-edge workloads within 3%; a 256 KB
// pointer chase did not (it slowed 3x where the fabric slowed 1.7x).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace fabricbench {

class Calibration {
 public:
  Calibration();

  /// Runs `iterations` iterations and returns the wall ns per iteration.
  double slice(unsigned iterations = 500);

 private:
  void run(unsigned iterations);

  std::unordered_map<std::uint64_t, std::uint32_t> table_;  // 1k keys
  std::vector<std::array<char, 96>> frames_;                // 6 KB ring
  std::uint64_t sink_ = 0;
};

}  // namespace fabricbench
