#include "index/rtree/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/check.h"
#include "common/thread_annotations.h"

namespace dm {

struct RStarTree::RootCache {
  Mutex mu;
  std::shared_ptr<const Node> node DM_GUARDED_BY(mu);
};

RStarTree::RStarTree(DbEnv* env, PageId root)
    : env_(env), root_(root), root_cache_(std::make_shared<RootCache>()) {}

Result<std::shared_ptr<const RStarTree::Node>> RStarTree::CachedRoot() const {
  {
    MutexLock lock(root_cache_->mu);
    if (root_cache_->node) return root_cache_->node;
  }
  // Read outside the lock; a racing miss reads the same frozen page.
  DM_ASSIGN_OR_RETURN(Node node, ReadNode(root_));
  auto decoded = std::make_shared<const Node>(std::move(node));
  MutexLock lock(root_cache_->mu);
  if (!root_cache_->node) root_cache_->node = decoded;
  return root_cache_->node;
}

namespace {

// Node page layout: [level u16][count u16][pad u32] then count entries
// of (6 x f64 box, u64 payload) = 56 bytes each.
constexpr uint32_t kLevelOff = 0;
constexpr uint32_t kCountOff = 2;
constexpr uint32_t kEntriesOff = 8;
constexpr uint32_t kEntrySize = 56;

// Decodes the entry at `p` (6 x f64 box, u64 payload).
void LoadEntry(const uint8_t* p, Box* box, uint64_t* payload) {
  std::memcpy(box->lo.data(), p, 24);
  std::memcpy(box->hi.data(), p + 24, 24);
  std::memcpy(payload, p + 48, 8);
}

// Reads a node page's header, rejecting an entry count that would run
// past the page before any entry is decoded.
Status LoadHeader(const uint8_t* page, uint32_t page_size, PageId id,
                  uint16_t* level, uint16_t* count) {
  std::memcpy(level, page + kLevelOff, 2);
  std::memcpy(count, page + kCountOff, 2);
  DM_ENSURE(kEntriesOff + static_cast<uint32_t>(*count) * kEntrySize <=
                page_size,
            Status::Corruption("R*-tree node " + std::to_string(id) +
                               " entry count " + std::to_string(*count) +
                               " exceeds page capacity"));
  return Status::OK();
}

}  // namespace

uint32_t RStarTree::LeafCapacityFor(uint32_t page_size) {
  // One entry slot of every page stays unused: the on-disk fan-out has
  // always been one below what fits, and every stored tree (and every
  // paper disk-access count) was built with it.
  return (page_size - kEntriesOff) / kEntrySize - 1;
}

std::vector<size_t> RStarTree::StrOrder(const std::vector<Box>& boxes,
                                        uint32_t leaf_capacity) {
  WorkerPool pool(1);
  return StrOrder(boxes, leaf_capacity, pool);
}

std::vector<size_t> RStarTree::StrOrder(const std::vector<Box>& boxes,
                                        uint32_t leaf_capacity,
                                        WorkerPool& pool) {
  // Sort-Tile-Recursive in 3D: slice by x into vertical slabs, each
  // slab by y into runs, each run by e. Slab counts follow the cube
  // root rule so leaves get near-square extents. Every comparator is a
  // total order (index tie-break), so each sorted range has exactly
  // one answer: the x sort parallelizes as a stable merge sort and the
  // independent slab/run sorts fan out over the pool without changing
  // the permutation.
  const size_t n = boxes.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  if (n == 0 || leaf_capacity == 0) return order;

  auto center = [&](size_t i, int d) {
    return (boxes[i].lo[static_cast<size_t>(d)] +
            boxes[i].hi[static_cast<size_t>(d)]) /
           2;
  };
  const auto num_leaves =
      static_cast<size_t>((n + leaf_capacity - 1) / leaf_capacity);
  const auto slabs_x = static_cast<size_t>(
      std::ceil(std::cbrt(static_cast<double>(num_leaves))));
  ParallelStableSort(pool, order, [&](size_t a, size_t b) {
    const double ca = center(a, 0);
    const double cb = center(b, 0);
    if (ca != cb) return ca < cb;
    return a < b;
  });
  const size_t slab_size = (n + slabs_x - 1) / slabs_x;

  // Collect the slab ranges, y-sort them in parallel, then collect the
  // run ranges of every slab and e-sort those in parallel. Ranges are
  // disjoint, so workers never touch the same elements.
  std::vector<std::pair<size_t, size_t>> slabs;
  for (size_t s0 = 0; s0 < n; s0 += slab_size) {
    slabs.emplace_back(s0, std::min(n, s0 + slab_size));
  }
  ParallelFor(pool, static_cast<int64_t>(slabs.size()), 1,
              [&](int64_t begin, int64_t end) {
                for (int64_t s = begin; s < end; ++s) {
                  const auto [s0, s1] = slabs[static_cast<size_t>(s)];
                  std::sort(order.begin() + static_cast<ptrdiff_t>(s0),
                            order.begin() + static_cast<ptrdiff_t>(s1),
                            [&](size_t a, size_t b) {
                              const double ca = center(a, 1);
                              const double cb = center(b, 1);
                              if (ca != cb) return ca < cb;
                              return a < b;
                            });
                }
              });
  std::vector<std::pair<size_t, size_t>> runs;
  for (const auto& [s0, s1] : slabs) {
    const size_t leaves_in_slab =
        ((s1 - s0) + leaf_capacity - 1) / leaf_capacity;
    const auto runs_y = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(leaves_in_slab))));
    const size_t run_size = ((s1 - s0) + runs_y - 1) / runs_y;
    for (size_t r0 = s0; r0 < s1; r0 += run_size) {
      runs.emplace_back(r0, std::min(s1, r0 + run_size));
    }
  }
  ParallelFor(pool, static_cast<int64_t>(runs.size()), 1,
              [&](int64_t begin, int64_t end) {
                for (int64_t r = begin; r < end; ++r) {
                  const auto [r0, r1] = runs[static_cast<size_t>(r)];
                  std::sort(order.begin() + static_cast<ptrdiff_t>(r0),
                            order.begin() + static_cast<ptrdiff_t>(r1),
                            [&](size_t a, size_t b) {
                              const double ca = center(a, 2);
                              const double cb = center(b, 2);
                              if (ca != cb) return ca < cb;
                              return a < b;
                            });
                }
              });
  return order;
}

Result<RStarTree> RStarTree::BulkLoad(
    DbEnv* env, const std::vector<std::pair<Box, uint64_t>>& ordered) {
  RStarTree tree(env, kInvalidPage);
  if (ordered.empty()) {
    Node root;
    root.level = 0;
    DM_ASSIGN_OR_RETURN(tree.root_, tree.AllocNode(root));
    return tree;
  }
  const uint32_t cap = LeafCapacityFor(env->page_size());

  // Level 0: pack consecutive runs into leaves.
  std::vector<Entry> level;  // (node box, node page) of the last level
  {
    Node leaf;
    leaf.level = 0;
    for (const auto& [box, payload] : ordered) {
      leaf.entries.push_back(Entry{box, payload});
      if (leaf.entries.size() == cap) {
        DM_ASSIGN_OR_RETURN(const PageId id, tree.AllocNode(leaf));
        level.push_back(Entry{NodeBox(leaf), id});
        leaf.entries.clear();
      }
    }
    if (!leaf.entries.empty()) {
      DM_ASSIGN_OR_RETURN(const PageId id, tree.AllocNode(leaf));
      level.push_back(Entry{NodeBox(leaf), id});
    }
  }

  // Upper levels: pack consecutive children until one node remains.
  uint16_t lvl = 1;
  while (level.size() > 1) {
    std::vector<Entry> next;
    Node node;
    node.level = lvl;
    for (const Entry& child : level) {
      node.entries.push_back(child);
      if (node.entries.size() == cap) {
        DM_ASSIGN_OR_RETURN(const PageId id, tree.AllocNode(node));
        next.push_back(Entry{NodeBox(node), id});
        node.entries.clear();
      }
    }
    if (!node.entries.empty()) {
      DM_ASSIGN_OR_RETURN(const PageId id, tree.AllocNode(node));
      next.push_back(Entry{NodeBox(node), id});
    }
    level = std::move(next);
    ++lvl;
  }
  tree.root_ = static_cast<PageId>(level.front().payload);
  tree.size_ = static_cast<int64_t>(ordered.size());
  return tree;
}

RStarTree RStarTree::Open(DbEnv* env, PageId root, int64_t size) {
  RStarTree t(env, root);
  t.size_ = size;
  return t;
}

Result<RStarTree::Node> RStarTree::ReadNode(PageId id) const {
  DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().Fetch(id));
  Node node;
  uint16_t count;
  DM_RETURN_NOT_OK(
      LoadHeader(page.data(), env_->page_size(), id, &node.level, &count));
  node.entries.resize(count);
  const uint8_t* p = page.data() + kEntriesOff;
  for (Entry& e : node.entries) {
    LoadEntry(p, &e.box, &e.payload);
    p += kEntrySize;
  }
  return node;
}

Result<PageId> RStarTree::AllocNode(const Node& node) {
  DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().NewPage());
  const uint16_t count = static_cast<uint16_t>(node.entries.size());
  std::memcpy(page.data() + kLevelOff, &node.level, 2);
  std::memcpy(page.data() + kCountOff, &count, 2);
  uint8_t* p = page.data() + kEntriesOff;
  for (const Entry& e : node.entries) {
    std::memcpy(p, e.box.lo.data(), 24);
    std::memcpy(p + 24, e.box.hi.data(), 24);
    std::memcpy(p + 48, &e.payload, 8);
    p += kEntrySize;
  }
  return page.id();
}

Box RStarTree::NodeBox(const Node& node) {
  Box box;
  for (const Entry& e : node.entries) box.ExpandToInclude(e.box);
  return box;
}

Status RStarTree::RangeQuery(const Box& query,
                             std::vector<uint64_t>* out) const {
  // Level-synchronous traversal. The tree is balanced, so each wave is
  // one level: its intersecting child pages are sorted, deduplicated,
  // coalesced into runs of consecutive page ids and read as a single
  // FetchRuns batch (one device round trip per level when an async
  // device is bound). A buffer-starved pool re-reads internal nodes on
  // every query, so this is where batched reads pay off most. Runs may
  // complete in any order; the final sort makes the result independent
  // of it. Scratch is thread-local so the steady state allocates
  // nothing.
  thread_local std::vector<PageId> frontier;
  thread_local std::vector<PageId> next;
  thread_local std::vector<BufferPool::RunRequest> runs;
  out->clear();
  frontier.clear();
  // The decoded root is cached (every query starts there).
  DM_ASSIGN_OR_RETURN(std::shared_ptr<const Node> root, CachedRoot());
  uint16_t level = root->level;
  for (const Entry& e : root->entries) {
    if (!e.box.Intersects(query)) continue;
    if (level == 0) {
      out->push_back(e.payload);
    } else {
      frontier.push_back(static_cast<PageId>(e.payload));
    }
  }
  const uint32_t page_size = env_->page_size();
  const uint32_t max_run = env_->pool().MaxRunPages();
  while (!frontier.empty()) {
    --level;  // the level of the nodes in `frontier`
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
    runs.clear();
    for (size_t i = 0; i < frontier.size();) {
      size_t e = i + 1;
      while (e < frontier.size() && frontier[e] == frontier[e - 1] + 1 &&
             static_cast<uint32_t>(e - i) < max_run) {
        ++e;
      }
      runs.push_back({frontier[i], static_cast<uint32_t>(e - i)});
      i = e;
    }
    next.clear();
    Status wave_st;  // sticky first error — index failures are fatal
    DM_RETURN_NOT_OK(env_->pool().FetchRuns(
        runs.data(), runs.size(),
        [&](size_t ri, Status st, std::vector<PageGuard>* guards) {
          if (!wave_st.ok()) return;  // drain remaining completions
          if (!st.ok()) {
            wave_st = std::move(st);
            return;
          }
          for (uint32_t g = 0; g < runs[ri].n; ++g) {
            const PageId id = runs[ri].first + g;
            const uint8_t* data = (*guards)[g].data();
            uint16_t node_level;
            uint16_t count;
            wave_st = LoadHeader(data, page_size, id, &node_level, &count);
            if (!wave_st.ok()) return;
            if (node_level != level) {
              wave_st = Status::Corruption(
                  "R*-tree node " + std::to_string(id) +
                  " level disagrees with its parent");
              return;
            }
            const uint8_t* p = data + kEntriesOff;
            for (uint16_t i = 0; i < count; ++i, p += kEntrySize) {
              Box box;
              uint64_t payload;
              LoadEntry(p, &box, &payload);
              if (!box.Intersects(query)) continue;
              if (level == 0) {
                out->push_back(payload);
              } else {
                next.push_back(static_cast<PageId>(payload));
              }
            }
          }
        }));
    DM_RETURN_NOT_OK(wave_st);
    frontier.swap(next);
  }
  std::sort(out->begin(), out->end());
  return Status::OK();
}

Status RStarTree::RangeQueryEntries(
    const Box& query,
    const std::function<bool(const Box&, uint64_t)>& callback) const {
  // Depth-first, one page at a time, so a callback that stops early
  // leaves the rest of the tree unread. Entries are decoded in place
  // from the pinned page; the callback runs with the page pinned and
  // must not re-enter the pool deeply enough to exhaust frames.
  thread_local std::vector<PageId> stack;
  stack.clear();
  // Visit the cached decoded root inline (no device read), then walk
  // the rest of the tree through the pool. Children are pushed in
  // entry order and popped LIFO, so the visit order is identical to
  // the original push-the-root traversal.
  {
    DM_ASSIGN_OR_RETURN(std::shared_ptr<const Node> root, CachedRoot());
    for (const Entry& e : root->entries) {
      if (!e.box.Intersects(query)) continue;
      if (root->level == 0) {
        if (!callback(e.box, e.payload)) return Status::OK();
      } else {
        stack.push_back(static_cast<PageId>(e.payload));
      }
    }
  }
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().Fetch(id));
    uint16_t level;
    uint16_t count;
    DM_RETURN_NOT_OK(
        LoadHeader(page.data(), env_->page_size(), id, &level, &count));
    const uint8_t* p = page.data() + kEntriesOff;
    for (uint16_t i = 0; i < count; ++i, p += kEntrySize) {
      Box box;
      uint64_t payload;
      LoadEntry(p, &box, &payload);
      if (!box.Intersects(query)) continue;
      if (level == 0) {
        if (!callback(box, payload)) return Status::OK();
      } else {
        stack.push_back(static_cast<PageId>(payload));
      }
    }
  }
  return Status::OK();
}

Status RStarTree::CollectNodeExtents(std::vector<RTreeNodeExtent>* out) const {
  std::vector<PageId> stack{root_};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    DM_ASSIGN_OR_RETURN(Node node, ReadNode(id));
    RTreeNodeExtent ext;
    ext.box = NodeBox(node);
    ext.level = node.level;
    ext.count = static_cast<uint16_t>(node.entries.size());
    out->push_back(ext);
    if (node.level > 0) {
      for (const Entry& e : node.entries) {
        stack.push_back(static_cast<PageId>(e.payload));
      }
    }
  }
  return Status::OK();
}

Status RStarTree::VisitNodes(
    const std::function<bool(PageId, uint16_t,
                             const std::vector<std::pair<Box, uint64_t>>&)>&
        callback) const {
  std::vector<PageId> stack{root_};
  std::vector<std::pair<Box, uint64_t>> entries;
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    DM_ASSIGN_OR_RETURN(Node node, ReadNode(id));
    entries.clear();
    entries.reserve(node.entries.size());
    for (const Entry& e : node.entries) {
      entries.emplace_back(e.box, e.payload);
    }
    if (!callback(id, node.level, entries)) return Status::OK();
    if (node.level > 0) {
      for (const Entry& e : node.entries) {
        stack.push_back(static_cast<PageId>(e.payload));
      }
    }
  }
  return Status::OK();
}

Result<int> RStarTree::Height() const {
  DM_ASSIGN_OR_RETURN(Node root, ReadNode(root_));
  return static_cast<int>(root.level) + 1;
}

Result<Box> RStarTree::RootBox() const {
  DM_ASSIGN_OR_RETURN(Node root, ReadNode(root_));
  return NodeBox(root);
}

}  // namespace dm
