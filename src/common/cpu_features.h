#pragma once

namespace alt {
namespace cpu {

/// Name of the read path's vector dispatch, kept for the repository
/// benchmark's environment record. The read path has no vector kernel since
/// the upper-model search became one branchless search (DESIGN.md §10.1), so
/// this is always "none"; ROADMAP item 6 removes the call and this function.
const char* SimdModeName();

}  // namespace cpu
}  // namespace alt
