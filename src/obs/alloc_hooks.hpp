// Process-wide allocation counting: global operator new/delete
// replacements (compiled in only under AFFECTSYS_METRICS) feeding
// relaxed atomic counters, so a steady-state code path can *prove* it
// performs zero heap allocation — the gate the pooled serve path and
// the zero-allocation feature extraction run behind — and a memory pin
// can bound how many bytes a region asks for.
//
// Cost when enabled: two relaxed fetch_adds per new, one per delete.
// When AFFECTSYS_METRICS is off the replacement operators are not
// compiled at all and every count reads 0.
//
// Usage pattern (tests / bench):
//   const auto before = obs::alloc_count();
//   ... steady-state region ...
//   EXPECT_EQ(obs::alloc_count() - before, 0u);   // if hooks enabled
#pragma once

#include <cstdint>

namespace affectsys::obs {

/// True when the counting operator new/delete replacements are linked
/// in (AFFECTSYS_METRICS builds).
bool alloc_tracking_enabled() noexcept;

/// operator new invocations (all variants) since process start; 0 when
/// tracking is off.
std::uint64_t alloc_count() noexcept;

/// Bytes requested from operator new (all variants) since process
/// start; 0 when tracking is off.  A running total: frees do not
/// subtract from it.
std::uint64_t alloc_bytes() noexcept;

/// operator delete invocations since process start; 0 when tracking is
/// off.
std::uint64_t free_count() noexcept;

/// Publishes the counters into the metric registry gauges
/// `obs.alloc.news` and `obs.alloc.live` (news - frees).  Call from a
/// bench/report site; the hooks themselves never touch the registry
/// (the registry allocates).
void publish_alloc_gauges();

}  // namespace affectsys::obs
