#pragma once

#include <cstdint>
#include <cstddef>

namespace alt {

/// \brief Which internal path answered an operation (per-path latency
/// attribution, DESIGN.md §9.2).
///
/// The scalar read/write entry points optionally report the terminal path
/// taken, so the workload runner can keep one latency histogram per
/// (op-type × path) instead of a single blended distribution — the breakdown
/// that explains the paper's figures (a p99 dominated by deep ART descents
/// looks identical to one dominated by retrain interference in a single
/// histogram).
///
/// Attribution is *terminal*: an op that probes a slot, misses, and resolves
/// in ART is tagged with the ART outcome. Failed writes are tagged with the
/// path that proved the conflicting key's existence when that is known.
enum class ServedBy : uint8_t {
  kUnattributed = 0,  ///< not tracked (baselines, scans, batched reads)
  kLearnedSlot,       ///< answered at the predicted learned-layer slot
  kLearnedNegative,   ///< strict-EMPTY predicted slot proved absence
  kArtFpShallow,      ///< fast-pointer-hinted ART hit, hint depth 0–2
  kArtFpMid,          ///< fast-pointer-hinted ART hit, hint depth 3–4
  kArtFpDeep,         ///< fast-pointer-hinted ART hit, hint depth ≥ 5
  kArtRoot,           ///< ART hit via root descent (no usable hint, or fallback)
  kArtNegative,       ///< ART root miss proved absence
  kSlotInsert,        ///< write placed at its predicted (gapped) slot
  kConflictInsert,    ///< write evicted to ART-OPT (prediction conflict)
  kExpansionPath,     ///< op routed through an in-flight §III-F expansion
  kCount              ///< sentinel — number of tags
};

constexpr size_t kNumServedBy = static_cast<size_t>(ServedBy::kCount);

/// Stable snake_case name (used in JSON exports and breakdown tables).
inline const char* ServedByName(ServedBy s) {
  switch (s) {
    case ServedBy::kUnattributed:
      return "unattributed";
    case ServedBy::kLearnedSlot:
      return "learned_slot";
    case ServedBy::kLearnedNegative:
      return "learned_negative";
    case ServedBy::kArtFpShallow:
      return "art_fp_shallow";
    case ServedBy::kArtFpMid:
      return "art_fp_mid";
    case ServedBy::kArtFpDeep:
      return "art_fp_deep";
    case ServedBy::kArtRoot:
      return "art_root";
    case ServedBy::kArtNegative:
      return "art_negative";
    case ServedBy::kSlotInsert:
      return "slot_insert";
    case ServedBy::kConflictInsert:
      return "conflict_insert";
    case ServedBy::kExpansionPath:
      return "expansion_path";
    case ServedBy::kCount:
      break;
  }
  return "?";
}

/// Bucket a fast-pointer hint depth (key bytes resolved by the hint) into the
/// shallow/mid/deep attribution tags.
inline ServedBy FpDepthTag(int depth) {
  if (depth <= 2) return ServedBy::kArtFpShallow;
  if (depth <= 4) return ServedBy::kArtFpMid;
  return ServedBy::kArtFpDeep;
}

/// Write `v` through an optional attribution out-param (no-op when null).
inline void SetServedBy(ServedBy* s, ServedBy v) {
  if (s != nullptr) *s = v;
}

}  // namespace alt
