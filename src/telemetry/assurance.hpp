// AssuranceEngine: declarative SLOs and continuous invariants.
//
// The paper's operational lesson is that a fabric is deployable only when
// convergence is *observable and bounded*. The engine holds two kinds of
// checks:
//
//  * SLOs — "quantile q of histogram H must be <= X" — evaluated against a
//    metrics Snapshot, so they work on any exported run without re-running
//    it;
//  * invariants — arbitrary named predicates over live fabric state
//    ("zero stale-epoch accepts", "no parked packets at quiesce") —
//    registered by the subsystems that own the state and evaluated on
//    demand.
//
// evaluate() returns one Verdict per check; inspect() renders them, and
// the Drills.Assurance test (tests/workload/drills_test.cpp) gates on them.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace sda::telemetry {

/// A convergence SLO over an exported histogram.
struct SloSpec {
  std::string name;       // e.g. "smr-fanout-p95"
  std::string histogram;  // snapshot key, e.g. "assurance.smr_fanout_us"
  double quantile = 0.95; // in [0, 1]
  double max_value = 0;   // same unit as the histogram samples
  /// Fail (rather than pass vacuously) when the histogram has no samples.
  bool require_samples = false;
};

struct Verdict {
  std::string name;
  bool pass = false;
  std::string detail;  // human-readable evidence ("p95=812us <= 20000us, n=14")
};

/// An invariant check: returns pass/fail plus a one-line detail.
using InvariantCheck = std::function<std::pair<bool, std::string>()>;

class AssuranceEngine {
 public:
  void add_slo(SloSpec spec) { slos_.push_back(std::move(spec)); }

  /// Re-registering a name replaces the check (so a rebuilt fabric layer
  /// can re-bind its invariants without duplicates).
  void add_invariant(const std::string& name, InvariantCheck check);

  void clear_slos() { slos_.clear(); }

  [[nodiscard]] std::size_t slo_count() const { return slos_.size(); }
  [[nodiscard]] std::size_t invariant_count() const { return invariants_.size(); }
  [[nodiscard]] bool empty() const { return slos_.empty() && invariants_.empty(); }

  /// Evaluates every invariant (registration order).
  [[nodiscard]] std::vector<Verdict> evaluate_invariants() const;

  /// Evaluates every SLO against `snapshot` (declaration order). A missing
  /// histogram fails; an empty one passes vacuously unless require_samples.
  [[nodiscard]] std::vector<Verdict> evaluate_slos(const Snapshot& snapshot) const;

  /// Invariants then SLOs, in one list.
  [[nodiscard]] std::vector<Verdict> evaluate(const Snapshot& snapshot) const;

  [[nodiscard]] static bool all_pass(const std::vector<Verdict>& verdicts);

 private:
  std::vector<SloSpec> slos_;
  std::vector<std::pair<std::string, InvariantCheck>> invariants_;
};

}  // namespace sda::telemetry
