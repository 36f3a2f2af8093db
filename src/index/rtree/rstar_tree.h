#ifndef DIRECTMESH_INDEX_RTREE_RSTAR_TREE_H_
#define DIRECTMESH_INDEX_RTREE_RSTAR_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/geometry.h"
#include "common/parallel.h"
#include "common/status.h"
#include "storage/db_env.h"
#include "storage/page.h"

namespace dm {

/// The MBR and level of one R*-tree node; the multi-base optimizer
/// feeds these into the Kamel-Faloutsos expected-disk-access formula,
/// which sums over the nodes of the index ("the size of R-tree nodes
/// can be found from the R-tree index").
struct RTreeNodeExtent {
  Box box;
  uint16_t level = 0;  // 0 = leaf
  uint16_t count = 0;
};

/// Disk-based packed R-tree over 3D boxes, built once by
/// Sort-Tile-Recursive bulk load — the packed R-tree that the paper's
/// Kamel-Faloutsos cost formula assumes. 2D indexing uses degenerate
/// boxes (lo[2] == hi[2] == 0). One node per page; entries are
/// (Box, payload) where payload is a child page id in internal nodes
/// and an opaque 64-bit value (typically a packed RecordId) in leaves.
///
/// Concurrency: a tree never changes after BulkLoad, so every
/// traversal (RangeQuery, RangeQueryEntries, CollectNodeExtents,
/// VisitNodes, Height, RootBox) is safe from many threads; node pages
/// are materialized through the thread-safe buffer pool.
class RStarTree {
 public:
  /// Opens an existing tree.
  static RStarTree Open(DbEnv* env, PageId root, int64_t size);

  /// Computes the Sort-Tile-Recursive packing order (Leutenegger et
  /// al.; the packed R-trees of Kamel-Faloutsos that the paper's cost
  /// model assumes): the returned permutation lists the boxes in leaf
  /// order, consecutive `leaf_capacity`-sized runs forming one leaf.
  /// Callers that co-locate records with the index (clustered storage)
  /// write their data file in this order.
  ///
  /// The overload taking a WorkerPool runs the x sort as a parallel
  /// stable merge sort and fans the per-slab y / per-run e sorts out
  /// over the pool; every comparator is a total order (index
  /// tie-break), so the permutation is identical at any thread count.
  static std::vector<size_t> StrOrder(const std::vector<Box>& boxes,
                                      uint32_t leaf_capacity);
  static std::vector<size_t> StrOrder(const std::vector<Box>& boxes,
                                      uint32_t leaf_capacity,
                                      WorkerPool& pool);
  /// Entries per node that BulkLoad packs (leaves and internal nodes).
  static uint32_t LeafCapacityFor(uint32_t page_size);

  /// Builds a packed tree from entries already arranged in StrOrder.
  static Result<RStarTree> BulkLoad(
      DbEnv* env, const std::vector<std::pair<Box, uint64_t>>& ordered);

  PageId root() const { return root_; }
  int64_t size() const { return size_; }
  /// Number of levels (1 = the root is a leaf).
  Result<int> Height() const;

  /// Replaces `out` with the payloads of all leaf entries whose box
  /// intersects `query`, in ascending order. The traversal runs level
  /// by level: each wave's intersecting child pages are sorted,
  /// coalesced into page runs and read as one BufferPool::FetchRuns
  /// batch, so a query costs one device round trip per tree level.
  Status RangeQuery(const Box& query, std::vector<uint64_t>* out) const;

  /// Depth-first streaming traversal exposing entry boxes, in entry
  /// order; the callback may return false to stop early. The store's
  /// cost-model sampler relies on this visit order.
  Status RangeQueryEntries(
      const Box& query,
      const std::function<bool(const Box&, uint64_t)>& callback) const;

  /// Enumerates every node's MBR/level/count (root included).
  Status CollectNodeExtents(std::vector<RTreeNodeExtent>* out) const;

  /// Depth-first structural traversal for audits: the callback sees
  /// each node's page id, level, and entries (payloads are child page
  /// ids when level > 0, opaque leaf payloads at level 0). Returning
  /// false stops the walk early.
  Status VisitNodes(
      const std::function<bool(PageId, uint16_t,
                               const std::vector<std::pair<Box, uint64_t>>&)>&
          callback) const;

  /// The MBR of the whole tree (empty box when the tree is empty).
  Result<Box> RootBox() const;

 private:
  struct Entry {
    Box box;
    uint64_t payload = 0;
  };
  struct Node {
    uint16_t level = 0;
    std::vector<Entry> entries;
  };

  /// Decoded root node, cached on first use. Every traversal touches
  /// the root, so a buffer-starved pool would otherwise pay one device
  /// round trip per query just to re-learn the fan-out. The tree never
  /// changes, so the cache never goes stale. Held behind a shared_ptr
  /// so tree handles stay copyable and copies share one cache (they
  /// view one tree).
  struct RootCache;

  RStarTree(DbEnv* env, PageId root);

  /// Returns the cached decoded root, reading it once on a miss.
  Result<std::shared_ptr<const Node>> CachedRoot() const;

  Result<Node> ReadNode(PageId id) const;
  /// Allocates a page and writes `node` into it.
  Result<PageId> AllocNode(const Node& node);

  static Box NodeBox(const Node& node);

  DbEnv* env_;
  PageId root_;
  int64_t size_ = 0;
  std::shared_ptr<RootCache> root_cache_;
};

}  // namespace dm

#endif  // DIRECTMESH_INDEX_RTREE_RSTAR_TREE_H_
