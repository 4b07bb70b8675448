#pragma once

#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace alt {

/// Run part(0), ..., part(parts - 1), parts >= 1: part 0 on this thread, the others on
/// helper threads, and return when all are done. A helper that cannot be
/// started runs its part here. A part must allocate nothing: a thread's first
/// malloc gives it an arena of its own, and memory from such arenas measurably
/// slowed lookups (DESIGN.md §10.2).
template <typename Part>
void RunParts(size_t parts, const Part& part) {
  std::vector<std::thread> helpers;
  helpers.reserve(parts - 1);
  size_t started = 1;
  for (; started < parts; ++started) {
    try {
      helpers.emplace_back(part, started);
    } catch (const std::exception&) {
      break;
    }
  }
  part(0);
  for (size_t p = started; p < parts; ++p) part(p);
  for (std::thread& t : helpers) t.join();
}

}  // namespace alt
