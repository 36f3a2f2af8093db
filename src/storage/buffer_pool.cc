#include "storage/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.h"
#include "storage/async_io.h"
#include "storage/io_deadline.h"
#include "storage/page_crc.h"

namespace dm {

namespace {
/// Bounded retry policy for transient-class (kUnavailable) I/O
/// failures: 4 attempts total with 100/200/400 us backoff. Sized so an
/// EINTR storm costs under a millisecond but a persistent fault still
/// fails fast enough for the query deadline to degrade gracefully.
constexpr int kMaxIoAttempts = 4;
constexpr int64_t kIoBackoffBaseMicros = 100;
}  // namespace

PageGuard::PageGuard(BufferPool* pool, PageId id, uint8_t* data)
    : pool_(pool), id_(id), data_(data) {}

PageGuard::PageGuard(PageGuard&& o) noexcept
    : pool_(o.pool_), id_(o.id_), data_(o.data_) {
  o.pool_ = nullptr;
  o.data_ = nullptr;
  o.id_ = kInvalidPage;
}

PageGuard& PageGuard::operator=(PageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    id_ = o.id_;
    data_ = o.data_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
    o.id_ = kInvalidPage;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::MarkDirty() {
  DM_CHECK(valid()) << "MarkDirty on an empty PageGuard";
  pool_->MarkDirty(id_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(id_);
    pool_ = nullptr;
    data_ = nullptr;
    id_ = kInvalidPage;
  }
}

BufferPool::BufferPool(PageDevice* disk, uint32_t capacity_pages,
                       uint32_t num_shards)
    : disk_(disk), capacity_(capacity_pages) {
  DM_CHECK(capacity_ > 0) << "buffer pool needs at least one frame";
  num_shards = std::clamp<uint32_t>(num_shards, 1, capacity_);
  shards_.reserve(num_shards);
  const uint32_t base = capacity_ / num_shards;
  const uint32_t extra = capacity_ % num_shards;
  for (uint32_t s = 0; s < num_shards; ++s) {
    // dm-lint: allow(hot-path-alloc) construction time, once per pool
    auto shard = std::make_unique<Shard>();
    const uint32_t frames = base + (s < extra ? 1 : 0);
    shard->frame_count = frames;
    // The shard is not yet published, but its members are guarded and
    // the lock is uncontended — taking it keeps the annotations
    // provable without an analysis escape hatch.
    MutexLock lock(shard->mu);
    shard->frames.resize(frames);
    for (auto& f : shard->frames) f.data.resize(disk_->page_size());
    // ~2x frames of power-of-two buckets keeps chains short.
    uint32_t buckets = 4;
    while (buckets < 2 * frames) buckets *= 2;
    shard->buckets.assign(buckets, kNoFrame);
    shard->free_list.reserve(frames);
    for (uint32_t i = 0; i < frames; ++i) {
      shard->free_list.push_back(frames - 1 - i);
    }
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() {
  // Best-effort write-back; errors at teardown are not recoverable.
  (void)FlushAll();
}

IoStats BufferPool::stats() const {
  IoStats total;
  for (const auto& s : shards_) {
    total.logical_fetches += s->logical_fetches.load(std::memory_order_relaxed);
    total.disk_reads += s->disk_reads.load(std::memory_order_relaxed);
    total.disk_writes += s->disk_writes.load(std::memory_order_relaxed);
    total.evictions += s->evictions.load(std::memory_order_relaxed);
  }
  total.io_retries = io_retries_.load(std::memory_order_relaxed);
  total.corrupt_pages = corrupt_pages_.load(std::memory_order_relaxed);
  total.fetch_runs = fetch_runs_.load(std::memory_order_relaxed);
  total.fetch_run_pages = fetch_run_pages_.load(std::memory_order_relaxed);
  for (int i = 0; i < IoStats::kRunBuckets; ++i) {
    total.run_length_hist[i] = run_hist_[i].load(std::memory_order_relaxed);
  }
  return total;
}

void BufferPool::ResetStats() {
  for (const auto& s : shards_) {
    s->logical_fetches.store(0, std::memory_order_relaxed);
    s->disk_reads.store(0, std::memory_order_relaxed);
    s->disk_writes.store(0, std::memory_order_relaxed);
    s->evictions.store(0, std::memory_order_relaxed);
  }
  io_retries_.store(0, std::memory_order_relaxed);
  corrupt_pages_.store(0, std::memory_order_relaxed);
  fetch_runs_.store(0, std::memory_order_relaxed);
  fetch_run_pages_.store(0, std::memory_order_relaxed);
  for (auto& b : run_hist_) b.store(0, std::memory_order_relaxed);
}

Status BufferPool::ReadWithRetry(PageId first, uint32_t n, uint8_t* out) {
  Status st;
  for (int attempt = 0;; ++attempt) {
    // Deadline-aware wait (DESIGN.md §16): an expired per-query budget
    // fails the read before touching the device, so a slow or
    // retry-storming replica cannot hold a worker past its deadline.
    if (IoDeadline::Expired()) {
      return Status::DeadlineExceeded("read deadline expired before page " +
                                      std::to_string(first));
    }
    st = disk_->ReadPages(first, n, out);
    if (st.code() != StatusCode::kUnavailable) break;
    if (attempt + 1 >= kMaxIoAttempts) break;
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::microseconds(kIoBackoffBaseMicros << attempt));
  }
  DM_RETURN_NOT_OK(st);
  if (verify_checksums_) {
    const uint32_t page_size = disk_->page_size();
    for (uint32_t i = 0; i < n; ++i) {
      const Status v =
          VerifyPageTrailer(out + static_cast<size_t>(i) * page_size,
                            page_size, first + i);
      if (!v.ok()) {
        corrupt_pages_.fetch_add(1, std::memory_order_relaxed);
        return v;
      }
    }
  }
  return Status::OK();
}

Status BufferPool::WriteWithStamp(Shard& s, Frame& f) {
  StampPageTrailer(f.data.data(), disk_->page_size());
  Status st;
  for (int attempt = 0;; ++attempt) {
    st = disk_->WritePage(f.id, f.data.data());
    if (st.code() != StatusCode::kUnavailable) break;
    if (attempt + 1 >= kMaxIoAttempts) break;
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::microseconds(kIoBackoffBaseMicros << attempt));
  }
  if (st.ok()) s.disk_writes.fetch_add(1, std::memory_order_relaxed);
  return st;
}

int64_t BufferPool::pinned_frames() const {
  int64_t n = 0;
  for (const auto& s : shards_) {
    MutexLock lock(s->mu);
    for (const Frame& f : s->frames) {
      if (f.mapped && f.pins > 0) ++n;
    }
  }
  return n;
}

int64_t BufferPool::total_pins() const {
  int64_t n = 0;
  for (const auto& s : shards_) {
    MutexLock lock(s->mu);
    for (const Frame& f : s->frames) {
      if (f.mapped) n += f.pins;
    }
  }
  return n;
}

uint32_t BufferPool::TableFind(const Shard& s, PageId id) {
  for (uint32_t idx = s.buckets[BucketFor(s, id)]; idx != kNoFrame;
       idx = s.frames[idx].hash_next) {
    if (s.frames[idx].id == id) return idx;
  }
  return kNoFrame;
}

void BufferPool::TableInsert(Shard& s, uint32_t idx) {
  uint32_t& head = s.buckets[BucketFor(s, s.frames[idx].id)];
  s.frames[idx].hash_next = head;
  head = idx;
  s.frames[idx].mapped = true;
}

void BufferPool::TableErase(Shard& s, uint32_t idx) {
  uint32_t* link = &s.buckets[BucketFor(s, s.frames[idx].id)];
  while (*link != idx) {
    DM_DCHECK(*link != kNoFrame)
        << "frame " << idx << " missing from its bucket chain";
    link = &s.frames[*link].hash_next;
  }
  *link = s.frames[idx].hash_next;
  s.frames[idx].hash_next = kNoFrame;
  s.frames[idx].mapped = false;
}

void BufferPool::LruPushBack(Shard& s, uint32_t idx) {
  Frame& f = s.frames[idx];
  f.lru_prev = s.lru_tail;
  f.lru_next = kNoFrame;
  if (s.lru_tail != kNoFrame) {
    s.frames[s.lru_tail].lru_next = idx;
  } else {
    s.lru_head = idx;
  }
  s.lru_tail = idx;
  f.in_lru = true;
}

void BufferPool::LruErase(Shard& s, uint32_t idx) {
  Frame& f = s.frames[idx];
  if (f.lru_prev != kNoFrame) {
    s.frames[f.lru_prev].lru_next = f.lru_next;
  } else {
    s.lru_head = f.lru_next;
  }
  if (f.lru_next != kNoFrame) {
    s.frames[f.lru_next].lru_prev = f.lru_prev;
  } else {
    s.lru_tail = f.lru_prev;
  }
  f.lru_prev = kNoFrame;
  f.lru_next = kNoFrame;
  f.in_lru = false;
}

Result<uint32_t> BufferPool::GetFreeFrameLocked(Shard& s) {
  if (!s.free_list.empty()) {
    const uint32_t idx = s.free_list.back();
    s.free_list.pop_back();
    return idx;
  }
  if (s.lru_head == kNoFrame) {
    return Status::ResourceExhausted(
        "buffer pool exhausted: all frames pinned");
  }
  const uint32_t idx = s.lru_head;
  LruErase(s, idx);
  s.evictions.fetch_add(1, std::memory_order_relaxed);
  Frame& f = s.frames[idx];
  if (f.dirty) {
    DM_RETURN_NOT_OK(WriteWithStamp(s, f));
    f.dirty = false;
  }
  TableErase(s, idx);
  return idx;
}

uint8_t* BufferPool::PinIfPresentLocked(Shard& s, PageId id) {
  const uint32_t idx = TableFind(s, id);
  if (idx == kNoFrame) return nullptr;
  Frame& f = s.frames[idx];
  if (f.pins == 0 && f.in_lru) {
    LruErase(s, idx);
  }
  ++f.pins;
  return f.data.data();
}

Result<uint8_t*> BufferPool::InstallLocked(Shard& s, PageId id,
                                           const uint8_t* data) {
  DM_ASSIGN_OR_RETURN(const uint32_t idx, GetFreeFrameLocked(s));
  Frame& f = s.frames[idx];
  std::copy(data, data + disk_->page_size(), f.data.begin());
  f.id = id;
  f.pins = 1;
  f.dirty = false;
  TableInsert(s, idx);
  return f.data.data();
}

Result<PageGuard> BufferPool::Fetch(PageId id) {
  Shard& s = ShardFor(id);
  MutexLock lock(s.mu);
  s.logical_fetches.fetch_add(1, std::memory_order_relaxed);
  if (uint8_t* data = PinIfPresentLocked(s, id)) {
    return PageGuard(this, id, data);
  }
  DM_ASSIGN_OR_RETURN(const uint32_t idx, GetFreeFrameLocked(s));
  Frame& f = s.frames[idx];
  DM_RETURN_NOT_OK(ReadWithRetry(id, 1, f.data.data()));
  s.disk_reads.fetch_add(1, std::memory_order_relaxed);
  f.id = id;
  f.pins = 1;
  f.dirty = false;
  TableInsert(s, idx);
  return PageGuard(this, id, f.data.data());
}

uint32_t BufferPool::MaxRunPages() const {
  uint32_t min_shard = capacity_;
  for (const auto& s : shards_) {
    min_shard = std::min(min_shard, s->frame_count);
  }
  return std::max<uint32_t>(1, std::min<uint32_t>(32, min_shard));
}

Status BufferPool::FetchRun(PageId first, uint32_t n,
                            std::vector<PageGuard>* out) {
  DM_CHECK(out != nullptr) << "FetchRun into null output";
  DM_CHECK(n > 0 && n <= MaxRunPages())
      << "FetchRun of " << n << " pages exceeds the pin budget";
  CountRun(n);
  std::vector<PageGuard> guards(n);
  std::vector<uint32_t> missing;  // offsets within the run
  // Pass 1: pin resident pages, note misses.
  for (uint32_t i = 0; i < n; ++i) {
    const PageId id = first + i;
    Shard& s = ShardFor(id);
    MutexLock lock(s.mu);
    s.logical_fetches.fetch_add(1, std::memory_order_relaxed);
    if (uint8_t* data = PinIfPresentLocked(s, id)) {
      guards[i] = PageGuard(this, id, data);
    } else {
      missing.push_back(i);
    }
  }
  // Pass 2: read each maximal run of consecutive missing pages with a
  // single scatter-gather call, outside any shard lock.
  std::vector<uint8_t> scratch;
  const uint32_t page_size = disk_->page_size();
  for (size_t m = 0; m < missing.size();) {
    size_t end = m + 1;
    while (end < missing.size() && missing[end] == missing[end - 1] + 1) {
      ++end;
    }
    const uint32_t run = static_cast<uint32_t>(end - m);
    scratch.resize(static_cast<size_t>(run) * page_size);
    DM_RETURN_NOT_OK(ReadWithRetry(first + missing[m], run, scratch.data()));
    // Pass 3: install in ascending page order; another worker may have
    // installed a page meanwhile, in which case its copy wins.
    for (uint32_t r = 0; r < run; ++r) {
      const uint32_t i = missing[m] + r;
      const PageId id = first + i;
      Shard& s = ShardFor(id);
      MutexLock lock(s.mu);
      s.disk_reads.fetch_add(1, std::memory_order_relaxed);
      if (uint8_t* data = PinIfPresentLocked(s, id)) {
        guards[i] = PageGuard(this, id, data);
        continue;
      }
      DM_ASSIGN_OR_RETURN(
          uint8_t* data,
          InstallLocked(s, id,
                        scratch.data() + static_cast<size_t>(r) * page_size));
      guards[i] = PageGuard(this, id, data);
    }
    m = end;
  }
  out->reserve(out->size() + n);
  for (auto& g : guards) out->push_back(std::move(g));
  return Status::OK();
}

Result<PageGuard> BufferPool::NewPage() {
  DM_ASSIGN_OR_RETURN(const PageId id, disk_->AllocatePage());
  Shard& s = ShardFor(id);
  MutexLock lock(s.mu);
  DM_ASSIGN_OR_RETURN(const uint32_t idx, GetFreeFrameLocked(s));
  Frame& f = s.frames[idx];
  std::fill(f.data.begin(), f.data.end(), 0);
  f.id = id;
  f.pins = 1;
  f.dirty = true;
  TableInsert(s, idx);
  return PageGuard(this, id, f.data.data());
}

void BufferPool::Unpin(PageId id) {
  Shard& s = ShardFor(id);
  MutexLock lock(s.mu);
  const uint32_t idx = TableFind(s, id);
  DM_CHECK(idx != kNoFrame) << "unpin of unmapped page " << id;
  Frame& f = s.frames[idx];
  DM_CHECK(f.pins > 0) << "pin/unpin imbalance on page " << id;
  if (--f.pins == 0) {
    LruPushBack(s, idx);
  }
}

void BufferPool::MarkDirty(PageId id) {
  Shard& s = ShardFor(id);
  MutexLock lock(s.mu);
  const uint32_t idx = TableFind(s, id);
  DM_CHECK(idx != kNoFrame) << "MarkDirty on unmapped page " << id;
  s.frames[idx].dirty = true;
}

Status BufferPool::FlushAll() {
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    MutexLock lock(s.mu);
    for (uint32_t idx = 0; idx < s.frames.size(); ++idx) {
      Frame& f = s.frames[idx];
      if (!f.mapped) continue;
      if (f.dirty) {
        DM_RETURN_NOT_OK(WriteWithStamp(s, f));
        f.dirty = false;
      }
      if (f.pins == 0) {
        if (f.in_lru) {
          LruErase(s, idx);
        }
        TableErase(s, idx);
        f.id = kInvalidPage;
        s.free_list.push_back(idx);
      }
    }
  }
  return Status::OK();
}

Status BufferPool::FetchRuns(
    const RunRequest* runs, size_t run_count,
    const std::function<void(size_t, Status, std::vector<PageGuard>*)>&
        on_run) {
  if (run_count == 0) return Status::OK();
  if (async_ == nullptr) {
    // No async device: sequential FetchRun, same callback contract
    // (index order is a valid completion order).
    for (size_t i = 0; i < run_count; ++i) {
      std::vector<PageGuard> guards;
      Status st = FetchRun(runs[i].first, runs[i].n, &guards);
      if (!st.ok()) guards.clear();
      on_run(i, std::move(st), &guards);
    }
    return Status::OK();
  }

  const uint32_t page_size = disk_->page_size();
  const uint32_t max_run = MaxRunPages();
  // Slice missing sub-runs into single-page requests when the device
  // simulates per-page latency: the deadlines of an n-page request
  // stack (n x L), so page-granular requests are what lets a whole
  // batch complete in ~one latency instead of sum-of-run-lengths. At
  // zero latency, coalesced scatter-gather wins (fewer syscalls).
  const bool slice = disk_->simulated_read_latency_micros() > 0;
  // Window bound on simultaneously pinned + staged pages, so a large
  // batch cannot exhaust the pool: runs stage in index order as the
  // window frees.
  const uint32_t budget_pages = std::max(max_run, capacity_ / 2);

  struct RunState {
    std::vector<PageGuard> guards;
    uint32_t pending = 0;  // in-flight async requests
    Status status;         // first error, sticky
  };
  struct Req {
    size_t run = 0;
    uint32_t offset = 0;  // page offset within the run
    PageId first = 0;
    uint32_t n = 0;
    uint8_t* buf = nullptr;
    int attempts = 0;
  };
  std::vector<RunState> states(run_count);
  std::vector<Req> reqs;           // user_data indexes this
  std::vector<std::vector<uint8_t>> bufs;  // scratch, one per request

  const uint64_t group = async_->NewGroup();
  size_t next_run = 0;
  size_t delivered = 0;
  uint32_t window_pages = 0;
  int64_t inflight_reqs = 0;

  auto deliver = [&](size_t ri) {
    RunState& st = states[ri];
    if (!st.status.ok()) st.guards.clear();  // unpin whatever we held
    on_run(ri, st.status, &st.guards);
    st.guards.clear();
    window_pages -= runs[ri].n;
    ++delivered;
  };

  auto handle = [&](const AsyncCompletion& c) {
    Req& rq = reqs[static_cast<size_t>(c.user_data)];
    Status s = c.status;
    // Same transient policy as ReadWithRetry: bounded backoff, then
    // the failure is final. Corruption is never retried, and an
    // expired deadline stops the retry ladder (backoff sleeps are
    // exactly the waits a deadline exists to bound).
    if (s.code() == StatusCode::kUnavailable &&
        rq.attempts + 1 < kMaxIoAttempts && !IoDeadline::Expired()) {
      io_retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::microseconds(kIoBackoffBaseMicros << rq.attempts));
      ++rq.attempts;
      async_->StageRead(group, rq.first, rq.n, rq.buf, c.user_data);
      async_->SubmitStaged();
      return;
    }
    --inflight_reqs;
    RunState& st = states[rq.run];
    if (s.ok() && verify_checksums_) {
      for (uint32_t r = 0; r < rq.n; ++r) {
        const Status v =
            VerifyPageTrailer(rq.buf + static_cast<size_t>(r) * page_size,
                              page_size, rq.first + r);
        if (!v.ok()) {
          corrupt_pages_.fetch_add(1, std::memory_order_relaxed);
          s = v;
          break;
        }
      }
    }
    if (s.ok()) {
      // Install in ascending page order; a page another worker
      // installed meanwhile keeps its copy (FetchRun pass-3 rule).
      for (uint32_t r = 0; r < rq.n; ++r) {
        const PageId id = rq.first + r;
        Shard& sh = ShardFor(id);
        MutexLock lock(sh.mu);
        sh.disk_reads.fetch_add(1, std::memory_order_relaxed);
        if (uint8_t* data = PinIfPresentLocked(sh, id)) {
          st.guards[rq.offset + r] = PageGuard(this, id, data);
          continue;
        }
        Result<uint8_t*> res = InstallLocked(
            sh, id, rq.buf + static_cast<size_t>(r) * page_size);
        if (!res.ok()) {
          s = res.status();
          break;
        }
        st.guards[rq.offset + r] = PageGuard(this, id, res.value());
      }
    }
    if (!s.ok() && st.status.ok()) st.status = s;
    if (--st.pending == 0) deliver(rq.run);
  };

  while (delivered < run_count) {
    bool staged_any = false;
    while (next_run < run_count &&
           (window_pages == 0 ||
            window_pages + runs[next_run].n <= budget_pages)) {
      const size_t ri = next_run++;
      const RunRequest& rr = runs[ri];
      DM_CHECK(rr.n > 0 && rr.n <= max_run)
          << "FetchRuns run of " << rr.n
          << " pages exceeds the pin budget";
      CountRun(rr.n);
      window_pages += rr.n;
      RunState& st = states[ri];
      st.guards.resize(rr.n);
      // Pass 1: pin resident pages, collect missing offsets.
      std::vector<uint32_t> missing;
      for (uint32_t i = 0; i < rr.n; ++i) {
        const PageId id = rr.first + i;
        Shard& sh = ShardFor(id);
        MutexLock lock(sh.mu);
        sh.logical_fetches.fetch_add(1, std::memory_order_relaxed);
        if (uint8_t* data = PinIfPresentLocked(sh, id)) {
          st.guards[i] = PageGuard(this, id, data);
        } else {
          missing.push_back(i);
        }
      }
      // An expired deadline fails the run before it touches the device,
      // as ReadWithRetry does on the path without a device; resident
      // runs are still served.
      if (!missing.empty() && IoDeadline::Expired()) {
        st.status = Status::DeadlineExceeded(
            "read deadline expired before page " +
            std::to_string(rr.first + missing.front()));
        missing.clear();
      }
      // Pass 2: stage each maximal missing sub-run (or each page when
      // slicing) against the async device.
      for (size_t m = 0; m < missing.size();) {
        size_t end = m + 1;
        if (!slice) {
          while (end < missing.size() &&
                 missing[end] == missing[end - 1] + 1) {
            ++end;
          }
        }
        const uint32_t len = static_cast<uint32_t>(end - m);
        const uint64_t ud = reqs.size();
        bufs.emplace_back(static_cast<size_t>(len) * page_size);
        reqs.push_back(Req{ri, missing[m], rr.first + missing[m], len,
                           bufs.back().data(), 0});
        async_->StageRead(group, rr.first + missing[m], len,
                          bufs.back().data(), ud);
        ++st.pending;
        ++inflight_reqs;
        staged_any = true;
        m = end;
      }
      if (st.pending == 0) deliver(ri);  // fully resident
    }
    if (staged_any) async_->SubmitStaged();
    if (delivered == run_count) break;
    DM_CHECK(inflight_reqs > 0)
        << "FetchRuns stalled with undelivered runs";
    AsyncCompletion c = async_->WaitOne(group);
    handle(c);
    while (async_->PollOne(group, &c)) handle(c);
  }
  async_->ReleaseGroup(group);
  return Status::OK();
}

Status BufferPool::FlushDirty() {
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    MutexLock lock(s.mu);
    for (uint32_t idx = 0; idx < s.frames.size(); ++idx) {
      Frame& f = s.frames[idx];
      if (!f.mapped || !f.dirty || f.pins > 0) continue;
      DM_RETURN_NOT_OK(WriteWithStamp(s, f));
      f.dirty = false;
    }
  }
  return Status::OK();
}

}  // namespace dm
