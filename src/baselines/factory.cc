#include "baselines/factory.h"

#include <cstdlib>

#include "baselines/alex_like.h"
#include "baselines/art_index.h"
#include "baselines/btree_index.h"
#include "baselines/finedex_like.h"
#include "baselines/lipp_like.h"
#include "baselines/olc_btree.h"
#include "baselines/xindex_like.h"
#include "core/alt_index.h"
#include "shard/sharded_alt_index.h"

namespace alt {

std::unique_ptr<ConcurrentIndex> MakeIndex(const std::string& name,
                                           const AltOptions& alt_options) {
  if (name == "alt") return std::make_unique<AltIndex>(alt_options);
  // "alt-shardedN" (e.g. alt-sharded4): range-partitioned sharded front-end
  // with N shards, each on its own epoch manager (src/shard/).
  if (name.rfind("alt-sharded", 0) == 0) {
    shard::ShardedOptions so;
    so.index = alt_options;
    const std::string count = name.substr(std::string("alt-sharded").size());
    if (!count.empty()) so.num_shards = std::atoi(count.c_str());
    if (so.num_shards <= 0) return nullptr;
    return std::make_unique<shard::ShardedAltIndex>(so);
  }
  if (name == "alex") return std::make_unique<AlexLike>();
  if (name == "lipp") return std::make_unique<LippLike>();
  if (name == "xindex") return std::make_unique<XIndexLike>();
  if (name == "finedex") return std::make_unique<FinedexLike>();
  if (name == "art") return std::make_unique<ArtIndex>();
  if (name == "btree-olc") return std::make_unique<OlcBTree>();
  if (name == "btree") return std::make_unique<BTreeIndex>();
  return nullptr;
}

std::vector<std::string> PaperIndexLineup() {
  return {"alt", "alex", "lipp", "finedex", "xindex", "art"};
}

}  // namespace alt
