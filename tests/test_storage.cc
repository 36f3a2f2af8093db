#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "common/rng.h"
#include "storage/db_env.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace dm {
namespace {

using dm::testing::TempDbPath;

TEST(DiskManagerTest, AllocateReadWrite) {
  const std::string path = TempDbPath("disk");
  auto dm_or = DiskManager::Open(path, 512, true);
  ASSERT_TRUE(dm_or.ok());
  auto& disk = *dm_or.value();
  EXPECT_EQ(disk.num_pages(), 0u);
  auto p0 = disk.AllocatePage();
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(p0.value(), 0u);
  std::vector<uint8_t> buf(512, 0xAB);
  ASSERT_TRUE(disk.WritePage(0, buf.data()).ok());
  std::vector<uint8_t> read(512, 0);
  ASSERT_TRUE(disk.ReadPage(0, read.data()).ok());
  EXPECT_EQ(read, buf);
  EXPECT_FALSE(disk.ReadPage(5, read.data()).ok());
  EXPECT_FALSE(disk.WritePage(5, buf.data()).ok());
  std::remove(path.c_str());
}

TEST(DiskManagerTest, RejectsBadPageSize) {
  EXPECT_FALSE(DiskManager::Open(TempDbPath("bad"), 1000, true).ok());
  EXPECT_FALSE(DiskManager::Open(TempDbPath("bad"), 128, true).ok());
}

TEST(DiskManagerTest, PersistsAcrossReopen) {
  const std::string path = TempDbPath("persist");
  {
    auto disk = std::move(DiskManager::Open(path, 512, true)).ValueOrDie();
    ASSERT_TRUE(disk->AllocatePage().ok());
    ASSERT_TRUE(disk->AllocatePage().ok());
    std::vector<uint8_t> buf(512, 7);
    ASSERT_TRUE(disk->WritePage(1, buf.data()).ok());
  }
  auto disk = std::move(DiskManager::Open(path, 512, false)).ValueOrDie();
  EXPECT_EQ(disk->num_pages(), 2u);
  std::vector<uint8_t> read(512);
  ASSERT_TRUE(disk->ReadPage(1, read.data()).ok());
  EXPECT_EQ(read[100], 7);
  std::remove(path.c_str());
}

TEST(BufferPoolTest, HitsAndMissesAreCounted) {
  const std::string path = TempDbPath("pool");
  auto disk = std::move(DiskManager::Open(path, 512, true)).ValueOrDie();
  BufferPool pool(disk.get(), 4);
  PageId ids[3];
  for (auto& id : ids) {
    auto g = std::move(pool.NewPage()).ValueOrDie();
    id = g.id();
    g.data()[0] = static_cast<uint8_t>(id + 1);
    g.MarkDirty();
  }
  EXPECT_EQ(pool.stats().disk_reads, 0);
  {
    auto g = std::move(pool.Fetch(ids[0])).ValueOrDie();
    EXPECT_EQ(g.data()[0], 1);  // cached, no read
  }
  EXPECT_EQ(pool.stats().disk_reads, 0);
  ASSERT_TRUE(pool.FlushAll().ok());
  {
    auto g = std::move(pool.Fetch(ids[0])).ValueOrDie();
    EXPECT_EQ(g.data()[0], 1);  // re-read from disk
  }
  EXPECT_EQ(pool.stats().disk_reads, 1);
  std::remove(path.c_str());
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  const std::string path = TempDbPath("lru");
  auto disk = std::move(DiskManager::Open(path, 512, true)).ValueOrDie();
  BufferPool pool(disk.get(), 2);
  PageId a;
  PageId b;
  {
    auto ga = std::move(pool.NewPage()).ValueOrDie();
    a = ga.id();
  }
  {
    auto gb = std::move(pool.NewPage()).ValueOrDie();
    b = gb.id();
  }
  // Touch a so b becomes the LRU victim of the next allocation.
  { auto ga = std::move(pool.Fetch(a)).ValueOrDie(); }
  { auto gc = std::move(pool.NewPage()).ValueOrDie(); }
  pool.ResetStats();
  // a stayed resident...
  { auto ga = std::move(pool.Fetch(a)).ValueOrDie(); }
  EXPECT_EQ(pool.stats().disk_reads, 0);
  // ...and b was the page evicted.
  pool.ResetStats();
  { auto gb = std::move(pool.Fetch(b)).ValueOrDie(); }
  EXPECT_EQ(pool.stats().disk_reads, 1);
  std::remove(path.c_str());
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  const std::string path = TempDbPath("pin");
  auto disk = std::move(DiskManager::Open(path, 512, true)).ValueOrDie();
  BufferPool pool(disk.get(), 2);
  auto a = std::move(pool.NewPage()).ValueOrDie();  // held pin
  auto b_or = pool.NewPage();
  ASSERT_TRUE(b_or.ok());
  auto b = std::move(b_or).value();
  // Both frames pinned: a third page must fail.
  EXPECT_FALSE(pool.NewPage().ok());
  b.Release();
  EXPECT_TRUE(pool.NewPage().ok());
  std::remove(path.c_str());
}

TEST(BufferPoolTest, DirtyPagesSurviveEviction) {
  const std::string path = TempDbPath("dirty");
  auto disk = std::move(DiskManager::Open(path, 512, true)).ValueOrDie();
  BufferPool pool(disk.get(), 2);
  PageId a;
  {
    auto g = std::move(pool.NewPage()).ValueOrDie();
    a = g.id();
    g.data()[9] = 0x5A;
    g.MarkDirty();
  }
  // Evict a by filling the pool.
  { auto g = std::move(pool.NewPage()).ValueOrDie(); }
  { auto g = std::move(pool.NewPage()).ValueOrDie(); }
  auto g = std::move(pool.Fetch(a)).ValueOrDie();
  EXPECT_EQ(g.data()[9], 0x5A);
  std::remove(path.c_str());
}

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = dm::testing::OpenTempEnv("heap", DbOptions{.page_size = 512,
                                                      .pool_pages = 16});
  }
  std::unique_ptr<DbEnv> env_;
};

TEST_F(HeapFileTest, AppendAndGetRoundTrip) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  std::vector<RecordId> rids;
  for (int i = 0; i < 100; ++i) {
    std::string rec = "record-" + std::to_string(i);
    auto rid_or = hf.Append(reinterpret_cast<const uint8_t*>(rec.data()),
                            static_cast<uint32_t>(rec.size()));
    ASSERT_TRUE(rid_or.ok());
    rids.push_back(rid_or.value());
  }
  EXPECT_EQ(hf.num_records(), 100);
  EXPECT_GT(hf.num_pages(), 1);  // 512-byte pages must have chained
  for (int i = 0; i < 100; ++i) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(hf.Get(rids[static_cast<size_t>(i)], &buf).ok());
    EXPECT_EQ(std::string(buf.begin(), buf.end()),
              "record-" + std::to_string(i));
  }
}

TEST_F(HeapFileTest, RejectsOversizedRecord) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  std::vector<uint8_t> big(600, 1);
  EXPECT_FALSE(hf.Append(big.data(), static_cast<uint32_t>(big.size())).ok());
  std::vector<uint8_t> fits(hf.MaxRecordSize(), 2);
  EXPECT_TRUE(
      hf.Append(fits.data(), static_cast<uint32_t>(fits.size())).ok());
}

TEST_F(HeapFileTest, GetRejectsBadSlot) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  uint8_t b = 1;
  auto rid = std::move(hf.Append(&b, 1)).ValueOrDie();
  std::vector<uint8_t> buf;
  EXPECT_TRUE(hf.Get(rid, &buf).ok());
  EXPECT_FALSE(hf.Get(RecordId{rid.page, 57}, &buf).ok());
}

TEST_F(HeapFileTest, ScanVisitsAllInOrder) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  for (int i = 0; i < 50; ++i) {
    const uint8_t b = static_cast<uint8_t>(i);
    ASSERT_TRUE(hf.Append(&b, 1).ok());
  }
  int next = 0;
  ASSERT_TRUE(hf.Scan([&](RecordId, const uint8_t* data, uint32_t len) {
                 EXPECT_EQ(len, 1u);
                 EXPECT_EQ(data[0], next++);
                 return true;
               }).ok());
  EXPECT_EQ(next, 50);
  // Early stop.
  int count = 0;
  ASSERT_TRUE(hf.Scan([&](RecordId, const uint8_t*, uint32_t) {
                 return ++count < 10;
               }).ok());
  EXPECT_EQ(count, 10);
}

TEST_F(HeapFileTest, OpenRecountsRecords) {
  PageId first;
  {
    auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
    first = hf.first_page();
    for (int i = 0; i < 77; ++i) {
      const uint8_t b = 0;
      ASSERT_TRUE(hf.Append(&b, 1).ok());
    }
  }
  HeapFile hf = HeapFile::Open(env_.get(), first);
  EXPECT_EQ(hf.num_records(), 77);
  // Appends continue at the tail.
  const uint8_t b = 9;
  ASSERT_TRUE(hf.Append(&b, 1).ok());
  EXPECT_EQ(hf.num_records(), 78);
}

// --- GetMany / FetchRun coalescing edge cases -----------------------------

TEST_F(HeapFileTest, GetManyEmptyInputIsNoOp) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  const uint8_t b = 1;
  ASSERT_TRUE(hf.Append(&b, 1).ok());
  ASSERT_TRUE(env_->FlushAll().ok());
  const int64_t reads0 = env_->stats().disk_reads;
  int calls = 0;
  ASSERT_TRUE(hf.GetMany({}, [&](RecordId, const uint8_t*, uint32_t) {
                  ++calls;
                  return Status::OK();
                }).ok());
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(env_->stats().disk_reads, reads0);
}

TEST_F(HeapFileTest, GetManySinglePageRunReadsOnePage) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  std::vector<RecordId> rids;
  for (int i = 0; i < 5; ++i) {  // 5 x 50B fits one 512B page
    std::vector<uint8_t> rec(50, static_cast<uint8_t>(i));
    rids.push_back(
        std::move(hf.Append(rec.data(), 50)).ValueOrDie());
  }
  ASSERT_EQ(rids.front().page, rids.back().page);
  ASSERT_TRUE(env_->FlushAll().ok());
  const int64_t reads0 = env_->stats().disk_reads;
  int next = 0;
  ASSERT_TRUE(hf.GetMany(rids,
                         [&](RecordId, const uint8_t* data, uint32_t len) {
                           EXPECT_EQ(len, 50u);
                           EXPECT_EQ(data[0], next++);
                           return Status::OK();
                         }).ok());
  EXPECT_EQ(next, 5);
  EXPECT_EQ(env_->stats().disk_reads - reads0, 1);
}

TEST_F(HeapFileTest, GetManyNonAdjacentPagesMatchPerGetAccounting) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  // ~1 record per 512B page, so consecutive records land on
  // consecutive pages.
  std::vector<RecordId> all;
  for (int i = 0; i < 9; ++i) {
    std::vector<uint8_t> rec(400, static_cast<uint8_t>(i));
    all.push_back(std::move(hf.Append(rec.data(), 400)).ValueOrDie());
  }
  // Every other record: pages 0, 2, 4, ... — no two adjacent, so no
  // run may coalesce.
  std::vector<RecordId> sparse;
  std::vector<uint8_t> want;
  for (size_t i = 0; i < all.size(); i += 2) {
    sparse.push_back(all[i]);
    want.push_back(static_cast<uint8_t>(i));
  }
  for (size_t i = 1; i < sparse.size(); ++i) {
    ASSERT_GT(sparse[i].page, sparse[i - 1].page + 1);
  }
  ASSERT_TRUE(env_->FlushAll().ok());
  const int64_t reads0 = env_->stats().disk_reads;
  size_t k = 0;
  ASSERT_TRUE(hf.GetMany(sparse,
                         [&](RecordId rid, const uint8_t* data, uint32_t len) {
                           // Single-page runs: with an async device
                           // they arrive in completion order.
                           const auto at = std::find(sparse.begin(),
                                                     sparse.end(), rid);
                           EXPECT_NE(at, sparse.end());
                           EXPECT_EQ(len, 400u);
                           EXPECT_EQ(data[0], want[static_cast<size_t>(
                                                  at - sparse.begin())]);
                           ++k;
                           return Status::OK();
                         }).ok());
  EXPECT_EQ(k, sparse.size());
  const int64_t batch_reads = env_->stats().disk_reads - reads0;

  // Reference: per-record Get from a cold pool.
  ASSERT_TRUE(env_->FlushAll().ok());
  const int64_t reads1 = env_->stats().disk_reads;
  for (const RecordId rid : sparse) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(hf.Get(rid, &buf).ok());
  }
  EXPECT_EQ(batch_reads, env_->stats().disk_reads - reads1);
}

TEST_F(HeapFileTest, GetManyRunCrossingLastPage) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  std::vector<RecordId> rids;
  for (int i = 0; i < 6; ++i) {
    std::vector<uint8_t> rec(400, static_cast<uint8_t>(0x40 + i));
    rids.push_back(std::move(hf.Append(rec.data(), 400)).ValueOrDie());
  }
  // A run that starts mid-file and extends through the final page of
  // the heap: coalescing must stop exactly at the tail.
  std::vector<RecordId> tail(rids.begin() + 2, rids.end());
  ASSERT_EQ(tail.back().page, rids.back().page);
  ASSERT_TRUE(env_->FlushAll().ok());
  const int64_t reads0 = env_->stats().disk_reads;
  int i = 2;
  ASSERT_TRUE(hf.GetMany(tail,
                         [&](RecordId, const uint8_t* data, uint32_t len) {
                           EXPECT_EQ(len, 400u);
                           EXPECT_EQ(data[0], 0x40 + i++);
                           return Status::OK();
                         }).ok());
  EXPECT_EQ(i, 6);
  // One read per (single-record) page, coalesced or not.
  EXPECT_EQ(env_->stats().disk_reads - reads0,
            static_cast<int64_t>(tail.size()));
  // Nothing stays pinned after the batch.
  EXPECT_EQ(env_->pool().pinned_frames(), 0);
}

TEST_F(HeapFileTest, GetManyDuplicateRidsOnOnePage) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  const uint8_t b = 0x77;
  const RecordId rid = std::move(hf.Append(&b, 1)).ValueOrDie();
  ASSERT_TRUE(env_->FlushAll().ok());
  const int64_t reads0 = env_->stats().disk_reads;
  int calls = 0;
  ASSERT_TRUE(hf.GetMany({rid, rid, rid},
                         [&](RecordId, const uint8_t* data, uint32_t) {
                           EXPECT_EQ(data[0], 0x77);
                           ++calls;
                           return Status::OK();
                         }).ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(env_->stats().disk_reads - reads0, 1);
}

TEST_F(HeapFileTest, RandomizedRoundTripProperty) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  Rng rng(321);
  std::map<int, std::vector<uint8_t>> expected;
  std::map<int, RecordId> rids;
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> rec(rng.NextBelow(200) + 1);
    for (auto& byte : rec) byte = static_cast<uint8_t>(rng.Next());
    auto rid_or = hf.Append(rec.data(), static_cast<uint32_t>(rec.size()));
    ASSERT_TRUE(rid_or.ok());
    expected[i] = rec;
    rids[i] = rid_or.value();
  }
  ASSERT_TRUE(env_->FlushAll().ok());  // force re-reads from disk
  for (const auto& [i, rec] : expected) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(hf.Get(rids[i], &buf).ok());
    EXPECT_EQ(buf, rec) << "record " << i;
  }
}

// --- block pages (format v6 group blobs) ----------------------------------

TEST_F(HeapFileTest, AppendBlockRoundTripAndAddressing) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  std::vector<uint8_t> blob(300);
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<uint8_t>(i);
  auto rid_or =
      hf.AppendBlock(blob.data(), static_cast<uint32_t>(blob.size()), 5);
  ASSERT_TRUE(rid_or.ok());
  const RecordId first = rid_or.value();
  EXPECT_EQ(first.slot, 0);
  EXPECT_EQ(hf.num_records(), 5);
  // The fresh heap's first page was empty, so the blob claimed it.
  EXPECT_EQ(hf.num_pages(), 1);

  // Every record index resolves to the whole blob.
  for (uint16_t s = 0; s < 5; ++s) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(hf.Get(RecordId{first.page, s}, &buf).ok());
    EXPECT_EQ(buf, blob) << "index " << s;
  }
  std::vector<uint8_t> buf;
  EXPECT_FALSE(hf.Get(RecordId{first.page, 5}, &buf).ok());
}

TEST_F(HeapFileTest, BlockPagesChainAndRecount) {
  PageId first;
  {
    auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
    first = hf.first_page();
    // Slotted record first: the block must chain to its own page.
    const uint8_t b = 1;
    ASSERT_TRUE(hf.Append(&b, 1).ok());
    std::vector<uint8_t> blob(100, 0xCD);
    auto b1 = hf.AppendBlock(blob.data(), 100, 7);
    ASSERT_TRUE(b1.ok());
    EXPECT_NE(b1.value().page, first);
    // A slotted append after a block tail chains again (block pages
    // have no slot directory to extend)...
    auto r2 = hf.Append(&b, 1);
    ASSERT_TRUE(r2.ok());
    EXPECT_NE(r2.value().page, b1.value().page);
    // ... and so does the next block.
    auto b2 = hf.AppendBlock(blob.data(), 100, 3);
    ASSERT_TRUE(b2.ok());
    EXPECT_NE(b2.value().page, r2.value().page);
    EXPECT_EQ(hf.num_records(), 1 + 7 + 1 + 3);
    EXPECT_EQ(hf.num_pages(), 4);
  }
  // Open() recounts block records via the masked slot word.
  HeapFile hf = HeapFile::Open(env_.get(), first);
  EXPECT_EQ(hf.num_records(), 12);
  EXPECT_EQ(hf.num_pages(), 4);
}

TEST_F(HeapFileTest, ScanVisitsBlockRecordsIndividually) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  std::vector<uint8_t> blob(64, 0xEE);
  auto rid = std::move(hf.AppendBlock(blob.data(), 64, 4)).ValueOrDie();
  uint16_t next = 0;
  ASSERT_TRUE(hf.Scan([&](RecordId r, const uint8_t* data, uint32_t len) {
                 EXPECT_EQ(r.page, rid.page);
                 EXPECT_EQ(r.slot, next++);
                 EXPECT_EQ(len, 64u);
                 EXPECT_EQ(data[0], 0xEE);
                 return true;
               }).ok());
  EXPECT_EQ(next, 4);
}

TEST_F(HeapFileTest, AppendBlockRejectsBadArguments) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  std::vector<uint8_t> blob(hf.MaxBlockSize() + 1, 1);
  EXPECT_FALSE(
      hf.AppendBlock(blob.data(), static_cast<uint32_t>(blob.size()), 2).ok());
  EXPECT_FALSE(hf.AppendBlock(blob.data(), 8, 0).ok());
  EXPECT_FALSE(hf.AppendBlock(blob.data(), 8, 40000).ok());
  EXPECT_TRUE(hf.AppendBlock(blob.data(), hf.MaxBlockSize(), 2).ok());
}

// --- store format version gate (DbEnv::Open) ------------------------------

class StoreVersionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempDbPath("version");
    DbOptions options;
    auto env = std::move(DbEnv::Open(path_, options)).ValueOrDie();
    auto hf = std::move(HeapFile::Create(env.get())).ValueOrDie();
    const uint8_t b = 42;
    ASSERT_TRUE(hf.Append(&b, 1).ok());
    ASSERT_TRUE(env->FlushAll().ok());
    physical_ = env->options().page_size;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Overwrites page 0's trailer format byte in the closed file.
  void PatchFormatByte(uint8_t value) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(physical_ - kPageTrailerSize + kPageTrailerFormatOff);
    f.write(reinterpret_cast<const char*>(&value), 1);
    ASSERT_TRUE(f.good());
  }

  Status Reopen() {
    DbOptions options;
    options.truncate = false;
    auto env_or = DbEnv::Open(path_, options);
    return env_or.ok() ? Status::OK() : env_or.status();
  }

  std::string path_;
  uint32_t physical_ = 0;
};

TEST_F(StoreVersionTest, CurrentVersionOpens) {
  EXPECT_TRUE(Reopen().ok());
}

TEST_F(StoreVersionTest, OlderStoreIsVersionMismatchNamingBothVersions) {
  PatchFormatByte(5);  // a v5 store opened by this (v6) build
  const Status st = Reopen();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kVersionMismatch) << st.ToString();
  EXPECT_NE(st.message().find("v5"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("v6"), std::string::npos) << st.ToString();
}

TEST_F(StoreVersionTest, NewerStoreIsVersionMismatchNotCorruption) {
  PatchFormatByte(7);  // a hypothetical v7 store opened by this build
  const Status st = Reopen();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kVersionMismatch) << st.ToString();
  EXPECT_NE(st.message().find("v7"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("v6"), std::string::npos) << st.ToString();
}

TEST_F(StoreVersionTest, GarbageFormatByteIsCorruption) {
  PatchFormatByte(200);  // outside the plausible version window
  const Status st = Reopen();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST_F(StoreVersionTest, TruncateSkipsTheGate) {
  PatchFormatByte(5);
  DbOptions options;  // truncate defaults to true: a fresh store
  EXPECT_TRUE(DbEnv::Open(path_, options).ok());
}

}  // namespace
}  // namespace dm
