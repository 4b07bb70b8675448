// Quickstart: the five-minute tour of the ALT-index public API.
//
//   $ ./build/examples/quickstart
//
// Builds an index over a million synthetic keys, then demonstrates point
// lookups, inserts, updates, deletes and range scans, and prints the
// two-layer structure statistics that make ALT-index what it is.
#include <cstdio>
#include <vector>

#include "core/alt_index.h"
#include "datasets/dataset.h"

int main() {
  using namespace alt;

  // 1. Generate sorted, unique keys (stand-in for your data).
  const size_t n = 1000000;
  std::vector<Key> keys = GenerateKeys(Dataset::kOsm, n, /*seed=*/7);
  std::vector<Value> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = keys[i] * 2;

  // 2. Configure and bulk load. The defaults follow the paper: epsilon =
  //    n/1000, gap factor 2, fast pointers and retraining enabled.
  AltOptions options;
  AltIndex index(options);
  Status st = index.BulkLoad(keys.data(), values.data(), n);
  if (!st.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu keys, effective error bound %.0f\n", index.Size(),
              index.effective_error_bound());

  // 3. Point lookup.
  Value v = 0;
  if (index.Lookup(keys[12345], &v)) {
    std::printf("lookup(%llu) -> %llu\n",
                static_cast<unsigned long long>(keys[12345]),
                static_cast<unsigned long long>(v));
  }

  // 4. Insert / duplicate handling.
  const Key fresh = keys[n - 1] + 12345;
  std::printf("insert fresh key: %s\n", index.Insert(fresh, 1) ? "ok" : "exists");
  std::printf("insert same key again: %s\n",
              index.Insert(fresh, 2) ? "ok (BUG!)" : "rejected as duplicate");

  // 5. Update in place and read back.
  index.Update(fresh, 42);
  index.Lookup(fresh, &v);
  std::printf("after update, value = %llu\n", static_cast<unsigned long long>(v));

  // 6. Insert-or-overwrite: Insert refuses an existing key, Update then
  //    overwrites it.
  const bool inserted = index.Insert(fresh, 43);
  if (!inserted) index.Update(fresh, 43);
  std::printf("insert-or-overwrite existing -> %s\n", inserted ? "inserted" : "updated");

  // 7. Remove, and verify it is gone.
  index.Remove(fresh);
  std::printf("after remove, lookup -> %s\n",
              index.Lookup(fresh, &v) ? "found (BUG!)" : "absent");

  // 8. Range scan: 10 smallest keys >= keys[500].
  std::vector<std::pair<Key, Value>> window;
  index.Scan(keys[500], 10, &window);
  std::printf("scan from keys[500]:");
  for (const auto& [k, val] : window) {
    std::printf(" %llu", static_cast<unsigned long long>(k));
  }
  std::printf("\n");

  // 9. Peek inside: the hybrid two-layer structure (paper Fig. 10(c)).
  const AltIndex::StructuralStats stats = index.CollectStructuralStats();
  std::printf(
      "\nstructure: %zu GPL models, %zu keys in the learned layer (%.1f%%), "
      "%zu conflict keys in ART-OPT,\n%zu fast pointers (merged from %zu), "
      "%.1f MB total\n",
      stats.num_models, stats.learned_layer_keys(),
      100.0 * static_cast<double>(stats.learned_layer_keys()) /
          static_cast<double>(stats.learned_layer_keys() + stats.art_keys),
      stats.art_keys, stats.fast_pointers, stats.fast_pointer_adds,
      static_cast<double>(stats.total_bytes) / 1048576.0);
  return 0;
}
