#pragma once

#include <cstdint>

namespace fabricbench {

/// Heap allocations (every global operator new) since process start.
std::uint64_t allocations();

}  // namespace fabricbench
