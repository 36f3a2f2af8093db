#include "index/rtree/rstar_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/rng.h"
#include "storage/async_io.h"
#include "test_util.h"

namespace dm {
namespace {

Box RandomBox(Rng* rng, double space, double max_side) {
  const double x = rng->Uniform(0, space);
  const double y = rng->Uniform(0, space);
  const double e = rng->Uniform(0, space);
  return Box::Of(x, y, e, x + rng->Uniform(0, max_side),
                 y + rng->Uniform(0, max_side),
                 e + rng->Uniform(0, max_side));
}

// Packs `boxes` (payload = index) the way DmStore::Build does: STR
// order at the page's leaf capacity, then BulkLoad.
RStarTree PackTree(DbEnv* env, const std::vector<Box>& boxes) {
  const auto order =
      RStarTree::StrOrder(boxes, RStarTree::LeafCapacityFor(env->page_size()));
  std::vector<std::pair<Box, uint64_t>> ordered;
  ordered.reserve(order.size());
  for (size_t i : order) ordered.emplace_back(boxes[i], i);
  return std::move(RStarTree::BulkLoad(env, ordered)).ValueOrDie();
}

// Brute-force answer: every intersecting index, ascending.
std::vector<uint64_t> BruteForce(const std::vector<Box>& boxes,
                                 const Box& query) {
  std::vector<uint64_t> out;
  for (uint64_t i = 0; i < boxes.size(); ++i) {
    if (boxes[static_cast<size_t>(i)].Intersects(query)) out.push_back(i);
  }
  return out;
}

class RStarTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = dm::testing::OpenTempEnv("rtree", DbOptions{.page_size = 512,
                                                       .pool_pages = 256});
  }
  void Load(const std::vector<Box>& boxes) {
    tree_.emplace(PackTree(env_.get(), boxes));
  }
  std::unique_ptr<DbEnv> env_;
  std::optional<RStarTree> tree_;
};

TEST_F(RStarTreeTest, EmptyTreeAnswersEmpty) {
  Load({});
  std::vector<uint64_t> out;
  ASSERT_TRUE(tree_->RangeQuery(Box::Of(0, 0, 0, 1, 1, 1), &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(std::move(tree_->Height()).ValueOrDie(), 1);
}

// RangeQuery's level waves read through BufferPool::FetchRuns, which
// reads run by run without an async device and in completion order
// with one; the answer must be the exact brute-force set, ascending,
// either way. The pool is small enough that a wide query's leaf wave
// spans several FetchRuns windows.
class RStarTreeReadPathTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "uring" && !UringSupported()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel";
    }
    env_ = dm::testing::OpenTempEnv(
        std::string("rtree_read_") + GetParam(),
        DbOptions{.page_size = 512, .pool_pages = 64,
                  .async_backend = GetParam()});
  }
  std::unique_ptr<DbEnv> env_;
};

TEST_P(RStarTreeReadPathTest, RangeQueryMatchesBruteForceAscending) {
  Rng rng(42);
  std::vector<Box> boxes;
  for (int i = 0; i < 2000; ++i) boxes.push_back(RandomBox(&rng, 100.0, 5.0));
  const RStarTree tree = PackTree(env_.get(), boxes);
  EXPECT_EQ(tree.size(), 2000);
  ASSERT_GT(std::move(tree.Height()).ValueOrDie(), 2);

  for (int q = 0; q < 25; ++q) {
    const Box query = RandomBox(&rng, 100.0, q < 5 ? 100.0 : 25.0);
    ASSERT_TRUE(env_->FlushAll().ok());
    std::vector<uint64_t> got = {7, 7, 7};  // replaced, not appended to
    ASSERT_TRUE(tree.RangeQuery(query, &got).ok());
    EXPECT_EQ(got, BruteForce(boxes, query)) << "query " << q;
    EXPECT_EQ(env_->pool().pinned_frames(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AsyncBackends, RStarTreeReadPathTest,
                         ::testing::Values("off", "threadpool", "uring"));

TEST_F(RStarTreeTest, DegenerateSegmentsActLike2dPlusInterval) {
  // Vertical segments as used by the DM store: degenerate in x, y.
  Rng rng(7);
  struct Seg {
    double x, y, lo, hi;
  };
  std::vector<Seg> segs;
  for (uint64_t i = 0; i < 800; ++i) {
    Seg s{rng.Uniform(0, 10), rng.Uniform(0, 10), 0, 0};
    s.lo = rng.Uniform(0, 5);
    s.hi = s.lo + rng.Uniform(0, 3);
    segs.push_back(s);
  }
  std::vector<Box> boxes;
  for (const Seg& s : segs) {
    boxes.push_back(Box::Of(s.x, s.y, s.lo, s.x, s.y, s.hi));
  }
  Load(boxes);
  // Plane query at a fixed e.
  const double e = 2.0;
  const Box plane = Box::Of(2, 2, e, 8, 8, e);
  std::vector<uint64_t> got;
  ASSERT_TRUE(tree_->RangeQuery(plane, &got).ok());
  std::vector<uint64_t> expected;
  for (uint64_t i = 0; i < segs.size(); ++i) {
    const Seg& s = segs[static_cast<size_t>(i)];
    if (s.x >= 2 && s.x <= 8 && s.y >= 2 && s.y <= 8 && s.lo <= e &&
        s.hi >= e) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(got, expected);
}

TEST_F(RStarTreeTest, NodeExtentsNestProperly) {
  Rng rng(11);
  std::vector<Box> boxes;
  for (int i = 0; i < 1500; ++i) boxes.push_back(RandomBox(&rng, 50.0, 2.0));
  Load(boxes);
  std::vector<RTreeNodeExtent> extents;
  ASSERT_TRUE(tree_->CollectNodeExtents(&extents).ok());
  ASSERT_FALSE(extents.empty());
  // The root extent is first and contains every other node box.
  const Box root_box = extents.front().box;
  int64_t leaf_entries = 0;
  for (const auto& ext : extents) {
    EXPECT_TRUE(root_box.Contains(ext.box)) << "node escapes the root MBR";
    if (ext.level == 0) leaf_entries += ext.count;
  }
  EXPECT_EQ(leaf_entries, 1500);
  // Packed: every node is full except at most the last one of each
  // level. Capacity derives from the logical page size (physical minus
  // the integrity trailer).
  const uint32_t cap = RStarTree::LeafCapacityFor(env_->page_size());
  std::map<uint16_t, int> partial_per_level;
  for (const auto& ext : extents) {
    EXPECT_LE(ext.count, cap);
    if (ext.count < cap) ++partial_per_level[ext.level];
  }
  for (const auto& [level, partial] : partial_per_level) {
    EXPECT_LE(partial, 1) << "level " << level;
  }
}

TEST_F(RStarTreeTest, ColdQueryIoIsLogarithmicForPointLookup) {
  Rng rng(3);
  std::vector<Box> boxes;
  for (int i = 0; i < 3000; ++i) boxes.push_back(RandomBox(&rng, 100.0, 0.5));
  Load(boxes);
  ASSERT_TRUE(env_->FlushAll().ok());
  env_->ResetStats();
  std::vector<uint64_t> out;
  ASSERT_TRUE(
      tree_->RangeQuery(Box::Of(50, 50, 50, 50.1, 50.1, 50.1), &out).ok());
  // A tiny query touches a small fraction of the tree.
  EXPECT_LT(env_->stats().disk_reads, 40);
}

TEST_F(RStarTreeTest, StreamingQueryCanStopEarly) {
  Rng rng(5);
  std::vector<Box> boxes;
  for (int i = 0; i < 500; ++i) boxes.push_back(RandomBox(&rng, 10.0, 1.0));
  Load(boxes);
  int seen = 0;
  ASSERT_TRUE(tree_->RangeQueryEntries(Box::Of(0, 0, 0, 10, 10, 10),
                                       [&](const Box&, uint64_t) {
                                         return ++seen < 7;
                                       })
                  .ok());
  EXPECT_EQ(seen, 7);
}

TEST_F(RStarTreeTest, DuplicateBoxesAllRetained) {
  const Box b = Box::Of(1, 1, 1, 2, 2, 2);
  Load(std::vector<Box>(200, b));
  std::vector<uint64_t> out;
  ASSERT_TRUE(tree_->RangeQuery(b, &out).ok());
  EXPECT_EQ(out.size(), 200u);
}


TEST_F(RStarTreeTest, StrOrderIsAPermutation) {
  Rng rng(23);
  std::vector<Box> boxes;
  for (int i = 0; i < 1234; ++i) boxes.push_back(RandomBox(&rng, 50, 1));
  const auto order = RStarTree::StrOrder(boxes, 8);
  ASSERT_EQ(order.size(), boxes.size());
  std::vector<bool> seen(boxes.size(), false);
  for (size_t i : order) {
    ASSERT_LT(i, boxes.size());
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST_F(RStarTreeTest, StrOrderGroupsNearbyBoxes) {
  // Consecutive leaf runs must be spatially tighter than random runs.
  Rng rng(29);
  std::vector<Box> boxes;
  for (int i = 0; i < 4000; ++i) boxes.push_back(RandomBox(&rng, 100, 0.1));
  const uint32_t cap = 16;
  const auto order = RStarTree::StrOrder(boxes, cap);
  auto run_volume = [&](const std::vector<size_t>& ord) {
    double total = 0;
    for (size_t i = 0; i < ord.size(); i += cap) {
      Box mbr;
      for (size_t j = i; j < std::min(ord.size(), i + cap); ++j) {
        mbr.ExpandToInclude(boxes[ord[j]]);
      }
      total += mbr.Volume();
    }
    return total;
  };
  std::vector<size_t> identity(boxes.size());
  for (size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  EXPECT_LT(run_volume(order), run_volume(identity) / 10.0);
}

TEST_F(RStarTreeTest, BulkLoadHandlesEdgeSizes) {
  // Empty, single entry, exactly one leaf, one entry over a leaf.
  auto empty = std::move(RStarTree::BulkLoad(env_.get(), {})).ValueOrDie();
  std::vector<uint64_t> out;
  ASSERT_TRUE(empty.RangeQuery(Box::Of(0, 0, 0, 1, 1, 1), &out).ok());
  EXPECT_TRUE(out.empty());

  const uint32_t cap = RStarTree::LeafCapacityFor(512);
  for (uint32_t n : {1u, cap, cap + 1}) {
    std::vector<std::pair<Box, uint64_t>> ordered;
    for (uint32_t i = 0; i < n; ++i) {
      const double v = i;
      ordered.emplace_back(Box::Of(v, v, v, v + 1, v + 1, v + 1), i);
    }
    auto tree = std::move(RStarTree::BulkLoad(env_.get(), ordered)).ValueOrDie();
    out.clear();
    ASSERT_TRUE(
        tree.RangeQuery(Box::Of(-1, -1, -1, 1e9, 1e9, 1e9), &out).ok());
    EXPECT_EQ(out.size(), n);
  }
}

TEST_F(RStarTreeTest, BulkLoadedTreeHasTightLeaves) {
  // STR packing keeps leaves tight in (x, y, e): a plane query must
  // read far fewer pages than the same data packed in input order,
  // whose leaves each span the whole space.
  Rng rng(37);
  std::vector<Box> segs;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    const double lo = std::pow(rng.NextDouble(), 4.0) * 50;
    segs.push_back(Box::Of(x, y, lo, x, y, lo + rng.Uniform(0, 2)));
  }
  std::vector<std::pair<Box, uint64_t>> input_order;
  for (size_t i = 0; i < segs.size(); ++i) {
    input_order.emplace_back(segs[i], i);
  }
  const RStarTree unclustered =
      std::move(RStarTree::BulkLoad(env_.get(), input_order)).ValueOrDie();
  Load(segs);
  const Box plane = Box::Of(20, 20, 1.0, 80, 80, 1.0);
  auto cold_reads = [&](const RStarTree& tree, std::vector<uint64_t>* out) {
    EXPECT_TRUE(env_->FlushAll().ok());
    env_->ResetStats();
    EXPECT_TRUE(tree.RangeQuery(plane, out).ok());
    return env_->stats().disk_reads;
  };
  std::vector<uint64_t> out;
  std::vector<uint64_t> out2;
  const int64_t packed_io = cold_reads(*tree_, &out);
  const int64_t unclustered_io = cold_reads(unclustered, &out2);
  EXPECT_EQ(out, BruteForce(segs, plane));
  EXPECT_EQ(out2, out);
  EXPECT_LT(2 * packed_io, unclustered_io);
}

}  // namespace
}  // namespace dm
