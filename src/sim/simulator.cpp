#include "sim/simulator.hpp"

namespace sda::sim {

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Simulator::run_until(SimTime until) {
  std::size_t n = 0;
  while (true) {
    skip_cancelled();
    if (heap_.empty() || heap_.front().when > until) break;
    step();
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

void Simulator::sweep_cancelled() {
  std::size_t kept = 0;
  for (const QueuedEvent& event : heap_) {
    if (slots_[event.slot].generation == event.generation) heap_[kept++] = event;
  }
  heap_.resize(kept);
  if (kept < 2) return;
  for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;) sift_down(i, heap_[i]);
}

}  // namespace sda::sim
