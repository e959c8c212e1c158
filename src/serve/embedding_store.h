// Bounded LRU cache of served embeddings, keyed by node id.
//
// The store holds rows the session had to COMPUTE (delta-added nodes and
// base nodes without a trained representation); rows frozen at training time
// are served from the checkpoint's RepTable and never enter the store. On
// delta ingest the session derives the k-hop set of nodes whose inputs may
// have changed and calls Invalidate: those entries are dropped, every other
// entry keeps its row and its LRU position (its inputs are provably
// unchanged, so re-serving it is exact, not approximate).
//
// The key carries no graph version: the session's graph lock is the fence.
// Embed holds it shared from reading the graph until its last Insert, Ingest
// holds it exclusively around Apply + Invalidate, so the store only ever
// holds rows of the current graph (DESIGN.md §10).
//
// Not internally synchronized — the owning session guards it with a mutex.

#ifndef WIDEN_SERVE_EMBEDDING_STORE_H_
#define WIDEN_SERVE_EMBEDDING_STORE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "graph/csr.h"

namespace widen::serve {

class EmbeddingStore {
 public:
  /// `capacity` is the maximum number of cached rows; 0 disables caching.
  /// `embedding_dim` is the row width.
  EmbeddingStore(int64_t capacity, int64_t embedding_dim);

  /// Copies the cached row for `node` into `out` (resized to the embedding
  /// dim) and marks it most-recently-used. False on miss.
  bool Lookup(graph::NodeId node, std::vector<float>* out);

  /// Inserts/overwrites the row for `node`, evicting the least recently
  /// used entry when full.
  void Insert(graph::NodeId node, const float* row);

  /// Drops the entries of `nodes` (unknown nodes are skipped); survivors
  /// keep their LRU order.
  void Invalidate(const std::vector<graph::NodeId>& nodes);

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  int64_t capacity() const { return capacity_; }

  /// Heap bytes held by cached rows plus per-entry bookkeeping (list node +
  /// hash-map slot); excludes allocator slack. Every row is exactly
  /// `embedding_dim` floats, so this is size() times one per-entry constant.
  /// Feeds the `widen_serve_store_resident_bytes` gauge.
  int64_t ResidentBytes() const { return size() * entry_bytes_; }

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t invalidations = 0;  // entries dropped by Invalidate
    int64_t evictions = 0;      // entries dropped by capacity pressure
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    graph::NodeId node;
    std::vector<float> row;
  };
  using Lru = std::list<Entry>;

  int64_t capacity_;
  int64_t embedding_dim_;
  int64_t entry_bytes_;
  Lru lru_;  // front = most recently used
  std::unordered_map<graph::NodeId, Lru::iterator> entries_;
  Stats stats_;
};

}  // namespace widen::serve

#endif  // WIDEN_SERVE_EMBEDDING_STORE_H_
