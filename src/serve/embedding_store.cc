#include "serve/embedding_store.h"

#include "util/logging.h"

namespace widen::serve {

EmbeddingStore::EmbeddingStore(int64_t capacity, int64_t embedding_dim)
    : capacity_(capacity),
      embedding_dim_(embedding_dim),
      // The row's floats; a std::list node (Entry + prev/next pointers); an
      // unordered_map node (key/iterator pair + one chaining pointer) plus
      // one bucket pointer.
      entry_bytes_(
          embedding_dim * static_cast<int64_t>(sizeof(float)) +
          static_cast<int64_t>(sizeof(Entry) + 2 * sizeof(void*)) +
          static_cast<int64_t>(
              sizeof(std::pair<const graph::NodeId, Lru::iterator>) +
              2 * sizeof(void*))) {
  WIDEN_CHECK_GE(capacity, 0);
  WIDEN_CHECK_GT(embedding_dim, 0);
}

bool EmbeddingStore::Lookup(graph::NodeId node, std::vector<float>* out) {
  auto it = entries_.find(node);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  out->assign(it->second->row.begin(), it->second->row.end());
  ++stats_.hits;
  return true;
}

void EmbeddingStore::Insert(graph::NodeId node, const float* row) {
  if (capacity_ == 0) return;
  auto it = entries_.find(node);
  if (it != entries_.end()) {
    it->second->row.assign(row, row + embedding_dim_);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (static_cast<int64_t>(entries_.size()) >= capacity_) {
    entries_.erase(lru_.back().node);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(Entry{node, std::vector<float>(row, row + embedding_dim_)});
  entries_.emplace(node, lru_.begin());
  ++stats_.insertions;
}

void EmbeddingStore::Invalidate(const std::vector<graph::NodeId>& nodes) {
  for (graph::NodeId node : nodes) {
    auto it = entries_.find(node);
    if (it == entries_.end()) continue;
    lru_.erase(it->second);
    entries_.erase(it);
    ++stats_.invalidations;
  }
}

}  // namespace widen::serve
