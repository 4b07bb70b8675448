#pragma once

#include <cstddef>
#include <cstdint>

namespace alt {

class EpochManager;

/// \brief Tuning knobs for AltIndex. Defaults follow the paper's
/// recommendations (§III-D, §IV-A4).
struct AltOptions {
  /// Epoch manager this index retires replaced models/nodes through. nullptr
  /// (default) means the process-wide EpochManager::Global(), which is right
  /// for a single index. Sharded deployments (src/shard/) hand each shard its
  /// own manager so shards reclaim independently instead of serializing on
  /// one global epoch. The manager must outlive the index.
  EpochManager* epoch_manager = nullptr;

  /// GPL prediction error bound ε. 0 means "suggested": bulkload_size / 1000
  /// (the paper's guidance), floored at kMinErrorBound.
  double error_bound = 0.0;

  /// Gapped-array expansion factor γ: a model gets roughly γ slots per key,
  /// trading space for fewer conflicts evicted to ART-OPT (§III-B "array gaps
  /// scheme").
  double gap_factor = 2.0;

  /// Enable the fast pointer buffer (§III-C). Off = secondary searches start
  /// at the ART root (used by the Fig. 10(a) ablation).
  bool enable_fast_pointers = true;

  /// Enable dynamic retraining (§III-F). Off = crowded models push every
  /// further conflicting insert into ART-OPT.
  bool enable_retraining = true;

  /// A model expands when its runtime insertions exceed
  /// retrain_trigger_ratio * build_size.
  double retrain_trigger_ratio = 1.0;

  /// Slot count for the empty tail model appended when the last model
  /// retrains (out-of-range insert catcher).
  uint32_t tail_model_slots = 1024;

  /// Upper-model radix table (§III-B, DESIGN.md §2.3): Locate finishes its
  /// search inside one of 2^upper_radix_bits buckets over the directory's key
  /// span. The table holds 2^bits + 1 four-byte entries: 16 KiB at the
  /// default 12 bits, 256 KiB at 16. 0 searches the whole directory (the
  /// paper's binary search, the Ablation 4 baseline). BulkLoad rejects values
  /// outside [0, 20].
  int upper_radix_bits = 12;

  static constexpr double kMinErrorBound = 16.0;

  /// The paper's suggested ε = N_total / 1000 (§III-D).
  static double SuggestErrorBound(size_t bulkload_size) {
    double e = static_cast<double>(bulkload_size) / 1000.0;
    return e < kMinErrorBound ? kMinErrorBound : e;
  }

  double EffectiveErrorBound(size_t bulkload_size) const {
    return error_bound > 0.0 ? error_bound : SuggestErrorBound(bulkload_size);
  }
};

}  // namespace alt
