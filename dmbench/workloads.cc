// The three workloads: paper_cold, flythrough_warm and sharded_open.
//
// Each run sets the terrain up several times (setup_s is the median),
// measures for the requested seconds in whole rounds of the same
// operations, then re-executes every distinct query once, untimed, and
// checks that answer against the PmTree oracle and the mesh properties;
// every timed execution must have returned the same answer.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "dm/cost_model.h"

namespace dmbench {

namespace {

// ---------------------------------------------------------------------------
// Workload settings.
// ---------------------------------------------------------------------------

// flythrough_warm: camera sessions = service workers. One: on a shared
// virtual machine every extra busy thread adds host scheduling noise
// (steal, cross-core wake-ups) that moves the latency tail by 2-3x from
// run to run.
constexpr int kFlySessions = 1;
constexpr int kFlyFrames = 120;
constexpr uint32_t kFlyPoolPages = 512;            // 2 MiB
constexpr size_t kFlyNodeCacheBytes = 4u << 20;    // 4 MiB

// sharded_open: K spatial shards x 2 replicas; every replica pool is
// smaller than its shard's working set and every page read sleeps the
// DiskManager's modelled latency.
constexpr int kShards = 4;
constexpr int kReplicas = 2;
constexpr uint32_t kShardPoolPages = 256;  // 1 MiB per replica
// Few pool shards: the pool splits its frames evenly over its shards,
// and with 16 shards a small pool leaves so few frames per shard that
// concurrent batched fetches pin them all (ResourceExhausted, absorbed
// by the router as failovers).
constexpr uint32_t kShardPoolShards = 4;
constexpr uint32_t kReadLatencyUs = 100;
constexpr int kOpenWorkers = 1;  // one, for the reason given at kFlySessions
constexpr int kUsers = 720;
// Fixed arrival-rate ladder (requests/s) and the p99 limit a rung must
// meet, with no growing backlog, to count towards slo_qps. Capacity
// with one worker is about 500-600 requests/s, well inside the gap
// between the 350 and 800 rungs. p50_ms and p99_ms are read at the
// reference rung, a light load at which a request seldom waits behind
// another (at 250/s the median flipped between waiting and not), which
// runs kReferenceWeight times as long as each other rung.
constexpr double kLadder[] = {125, 250, 350, 800, 1200};
constexpr int kReferenceRung = 0;
constexpr double kReferenceWeight = 6.0;
constexpr double kSloP99Ms = 50.0;

constexpr uint32_t kPaperPoolPages = 2048;  // 8 MiB, below the ~38 MB store

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Percentile `p` of each of up to nine consecutive windows of at least
/// 1,000 samples of `ordered` (samples in time order), and the median of
/// the windows' figures: a burst of scheduling noise on a shared machine
/// moves the windows it falls in, not the reported figure.
double WindowedPct(const std::vector<double>& ordered, double p) {
  const size_t n = ordered.size();
  const size_t windows = std::clamp<size_t>(n / 1000, 1, 9);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(Pct(
        std::vector<double>(ordered.begin() + static_cast<long>(w * n / windows),
                            ordered.begin() +
                                static_cast<long>((w + 1) * n / windows)),
        p));
  }
  return Pct(per_window, 0.5);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

dm::Result<dm::DmQueryResult> Execute(dm::DmQueryProcessor& proc,
                                      const dm::QueryRequest& q) {
  switch (q.kind) {
    case dm::QueryRequest::Kind::kUniform:
      return proc.ViewpointIndependent(q.roi, q.e);
    case dm::QueryRequest::Kind::kView:
      return q.multi_base ? proc.MultiBase(q.view) : proc.SingleBase(q.view);
    case dm::QueryRequest::Kind::kPerspective:
      return proc.Perspective(q.perspective);
  }
  return dm::Status::InvalidArgument("unknown query kind");
}

/// Pool, async, node-cache and router counters of everything a workload
/// serves from.
struct Counters {
  dm::IoStats io;
  dm::AsyncIoStats async;
  dm::NodeCacheStats cache;
  dm::RouterCounters router;
};

void AddIo(const dm::IoStats& s, dm::IoStats* sum) {
  sum->logical_fetches += s.logical_fetches;
  sum->disk_reads += s.disk_reads;
  sum->evictions += s.evictions;
  sum->io_retries += s.io_retries;
  sum->corrupt_pages += s.corrupt_pages;
  sum->fetch_runs += s.fetch_runs;
  sum->fetch_run_pages += s.fetch_run_pages;
}

void AddEnv(dm::DbEnv& env, const dm::DmStore& store, Counters* c) {
  AddIo(env.stats(), &c->io);
  if (dm::AsyncPageDevice* dev = env.async_device()) {
    const dm::AsyncIoStats a = dev->stats();
    c->async.submissions += a.submissions;
    c->async.requests += a.requests;
    c->async.completions += a.completions;
    c->async.inflight_hwm = std::max(c->async.inflight_hwm, a.inflight_hwm);
  }
  const dm::NodeCacheStats n = store.node_cache_stats();
  c->cache.hits += n.hits;
  c->cache.misses += n.misses;
}

Counters Snap(Terrain& t, dm::ShardRouter* router) {
  Counters c;
  if (t.shards != nullptr) {
    for (int s = 0; s < t.shards->num_shards(); ++s) {
      for (auto& rep : t.shards->shard(s).replicas) {
        AddEnv(*rep->env, *rep->store, &c);
      }
    }
  } else {
    AddEnv(*t.env, *t.store, &c);
  }
  if (router != nullptr) c.router = router->counters();
  return c;
}

/// Every execution's outcome, keyed by the index of the distinct query.
class AnswerBook {
 public:
  explicit AnswerBook(size_t n) : first_(n), runs_(n, 0) {}

  void Record(size_t i, const dm::Result<dm::DmQueryResult>& r) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!r.ok()) {
      ++failed_;
      Problem("query " + std::to_string(i) + " failed: " +
              r.status().ToString());
      return;
    }
    const dm::DmQueryResult& res = r.value();
    const Fingerprint f = FingerprintOf(res);
    if (!first_[i].has_value()) {
      first_[i] = f;
    } else if (!(*first_[i] == f)) {
      mismatch_ = true;
      Problem("query " + std::to_string(i) +
              " returned different answers on different executions");
    }
    splits_ += res.stats.refinement_splits;
    range_queries_ += res.stats.range_queries;
    fetched_ += res.stats.nodes_fetched;
    index_io_ += res.stats.index_io;
    vertices_ += static_cast<int64_t>(res.vertices.size());
    triangles_ += static_cast<int64_t>(res.triangles.size());
    ++runs_[i];
  }

  /// Forgets the per-query sums so a phase starts clean; fingerprints
  /// and the attempted/failed totals of the run are kept.
  void ResetSums() {
    std::lock_guard<std::mutex> lock(mu_);
    splits_ = range_queries_ = fetched_ = index_io_ = 0;
    vertices_ = triangles_ = 0;
  }

  void Problem(const std::string& p) {
    if (problems_.size() < 10) problems_.push_back(p);
  }

  std::mutex mu_;
  std::vector<std::optional<Fingerprint>> first_;
  std::vector<int64_t> runs_;  // executions per distinct query
  bool mismatch_ = false;
  std::vector<std::string> problems_;
  int64_t attempted_ = 0, failed_ = 0;
  int64_t splits_ = 0, range_queries_ = 0, fetched_ = 0, index_io_ = 0,
          vertices_ = 0, triangles_ = 0;
};

/// What one measured phase saw.
struct Phase {
  double wall_s = 0;
  std::vector<double> latency_ms;  // client-observed
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::vector<double> late_ms;  // open loop: send time - intended time
  Counters before, after;
  // Closed loop.
  double qps = 0;
  double slo_qps = 0;  // completions within the latency limit per second
  // Open loop.
  double p50_ref = 0, p99_ref = 0;
  int64_t shard_fetches = 0;
};

/// A completion latch for closed-loop clients.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  void Set() {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  }
  void WaitAndReset() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done; });
    done = false;
  }
};

// ---------------------------------------------------------------------------
// Set-up, shared by all workloads.
// ---------------------------------------------------------------------------

/// The operations of a run, generated once from the seed.
struct Inputs {
  std::vector<dm::QueryRequest> distinct;
  /// flythrough_warm: the frames of each session (also in `distinct`,
  /// session after session).
  std::vector<std::vector<dm::QueryRequest>> sessions;
  /// Candidates drawn, including those left out for folded cuts.
  int64_t candidates = 0;
  /// Index in `distinct` of the seed-independent known-faulty query,
  /// or -1.
  int64_t canary = -1;

  double LeftOutShare() const {
    const auto drawn = static_cast<double>(distinct.size()) -
                       (canary >= 0 ? 1.0 : 0.0);
    return candidates > 0 ? 1.0 - drawn / static_cast<double>(candidates)
                          : 0.0;
  }
};

struct Prepared {
  std::unique_ptr<Terrain> terrain;
  std::vector<BuildTimes> reps;
  Inputs inputs;
};

BuildTimes MedianTimes(const std::vector<BuildTimes>& reps) {
  auto med = [&](double BuildTimes::*f) {
    std::vector<double> v;
    for (const BuildTimes& b : reps) v.push_back(b.*f);
    return Pct(v, 0.5);
  };
  BuildTimes m;
  for (double BuildTimes::*f :
       {&BuildTimes::dem_s, &BuildTimes::simplify_s, &BuildTimes::pmtree_s,
        &BuildTimes::conn_s, &BuildTimes::str_s, &BuildTimes::encode_s,
        &BuildTimes::append_s, &BuildTimes::bulkload_s, &BuildTimes::catalog_s,
        &BuildTimes::shards_s, &BuildTimes::warmup_s, &BuildTimes::total_s}) {
    m.*f = med(f);
  }
  return m;
}

/// fsyncs every regular file under `dir`.
void SettleFiles(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    (void)::fsync(fd);
    ::close(fd);
  }
}

/// Builds the terrain `scale.setup_reps` times (keeping the last), each
/// followed by `warm` (timed as part of set-up). After the first build,
/// untimed, `make_inputs` generates the run's operations; it may refuse
/// candidates whose reference cut folds (see README.md).
template <typename MakeInputs, typename Warm>
dm::Result<Prepared> Prepare(const Args& args, const Scale& scale,
                             const StoreConfig& config,
                             const MakeInputs& make_inputs, const Warm& warm) {
  Prepared p;
  for (int rep = 0; rep < scale.setup_reps; ++rep) {
    p.terrain.reset();  // free the previous set-up before the next
    DM_ASSIGN_OR_RETURN(p.terrain,
                        BuildTerrain(scale, config, args.data_dir + "/terrain"));
    if (rep == 0) {
      const Terrain& t = *p.terrain;
      const Oracle oracle(*t.tree, t.base_edges);
      const Accept unfolded = [&oracle](const dm::QueryRequest& q) {
        const auto ref = oracle.Reference(q);
        return ref.size() >= 3 && !oracle.Folded(ref);
      };
      p.inputs = make_inputs(t, unfolded);
    }
    const auto t0 = Clock::now();
    DM_RETURN_NOT_OK(warm(*p.terrain, p.inputs));
    p.terrain->times.warmup_s = MillisBetween(t0, Clock::now()) / 1e3;
    p.terrain->times.total_s += p.terrain->times.warmup_s;
    p.reps.push_back(p.terrain->times);
  }
  // Untimed: write back what the set-ups left dirty in the page cache,
  // so the kernel's delayed writeback does not land in the measurement.
  SettleFiles(args.data_dir);
  return p;
}

// ---------------------------------------------------------------------------
// Measurement loops.
// ---------------------------------------------------------------------------

/// paper_cold: one client calling the query processor; the pool is
/// emptied before every query, outside the timed interval.
dm::Status MeasureCold(Terrain& t, dm::DmQueryProcessor& proc,
                       const std::vector<dm::QueryRequest>& round,
                       double seconds, Tracer* tracer, AnswerBook& book,
                       Phase* ph) {
  ph->before = Snap(t, nullptr);
  const auto start = Clock::now();
  int64_t qid = 0;
  double busy_ms = 0;
  do {
    for (size_t i = 0; i < round.size(); ++i) {
      DM_RETURN_NOT_OK(t.env->FlushAll());
      const auto t0 = Clock::now();
      auto r = Execute(proc, round[i]);
      const auto t1 = Clock::now();
      const double ms = MillisBetween(t0, t1);
      busy_ms += ms;
      ph->latency_ms.push_back(ms);
      ph->exec_ms.push_back(ms);
      ph->queue_ms.push_back(0.0);
      book.Record(i, r);
      if (tracer != nullptr) {
        Span s;
        s.name = "query";
        s.tid = ThreadId();
        s.start = t0;
        s.end = t1;
        s.arg = static_cast<int64_t>(round[i].kind);
        tracer->AddPending(s);
        tracer->Claim(qid);
      }
      ++qid;
    }
  } while (MillisBetween(start, Clock::now()) < seconds * 1e3);
  ph->wall_s = MillisBetween(start, Clock::now()) / 1e3;
  ph->after = Snap(t, nullptr);
  ph->qps = static_cast<double>(ph->latency_ms.size()) / (busy_ms / 1e3);
  ph->slo_qps = ph->qps;  // one client, no limit is ever approached
  return dm::Status::OK();
}

/// Records a service completion: answer, timings, and (traced) spans.
void OnServed(size_t i, int64_t qid, const dm::QueryRequest& q,
              const dm::Result<dm::DmQueryResult>& r,
              const dm::QueryTiming& timing, Tracer* tracer,
              AnswerBook& book) {
  book.Record(i, r);
  if (tracer == nullptr) return;
  const auto end = Clock::now();
  const auto exec_start =
      end - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(timing.exec_millis));
  Span s;
  s.name = "query";
  s.tid = ThreadId();
  s.start = exec_start;
  s.end = end;
  s.arg = static_cast<int64_t>(q.kind);
  tracer->AddPending(s);
  s.name = "queue";
  s.end = exec_start;
  s.start = exec_start - std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 timing.queue_millis));
  tracer->AddPending(s);
  tracer->Claim(qid);
}

/// flythrough_warm: C closed-loop camera sessions through the service.
/// Each client repeats whole passes over its session until time is up.
void MeasureSessions(dm::QueryService& svc,
                     const std::vector<std::vector<dm::QueryRequest>>& sessions,
                     double seconds, Tracer* tracer, AnswerBook& book,
                     Phase* ph) {
  const auto start = Clock::now();
  std::mutex mu;
  std::vector<std::pair<Clock::time_point, double>> timed;  // completion order
  std::vector<std::thread> clients;
  std::atomic<int64_t> next_qid{0};
  for (size_t c = 0; c < sessions.size(); ++c) {
    clients.emplace_back([&, c] {
      const auto& frames = sessions[c];
      size_t base = 0;
      for (size_t k = 0; k < c; ++k) base += sessions[k].size();
      Latch latch;
      std::vector<std::pair<Clock::time_point, double>> lat;
      std::vector<double> queue, exec;
      do {
        for (size_t f = 0; f < frames.size(); ++f) {
          const int64_t qid = next_qid.fetch_add(1);
          const auto submitted = Clock::now();
          svc.Submit(frames[f], [&, f, qid, submitted](
                                    const dm::Result<dm::DmQueryResult>& r,
                                    const dm::QueryTiming& timing) {
            OnServed(base + f, qid, frames[f], r, timing, tracer, book);
            const auto now = Clock::now();
            lat.emplace_back(now, MillisBetween(submitted, now));
            queue.push_back(timing.queue_millis);
            exec.push_back(timing.exec_millis);
            latch.Set();
          });
          latch.WaitAndReset();
        }
      } while (MillisBetween(start, Clock::now()) < seconds * 1e3);
      std::lock_guard<std::mutex> lock(mu);
      timed.insert(timed.end(), lat.begin(), lat.end());
      ph->queue_ms.insert(ph->queue_ms.end(), queue.begin(), queue.end());
      ph->exec_ms.insert(ph->exec_ms.end(), exec.begin(), exec.end());
    });
  }
  for (auto& th : clients) th.join();
  svc.Drain();
  std::sort(timed.begin(), timed.end());
  for (const auto& [when, ms] : timed) ph->latency_ms.push_back(ms);
  ph->wall_s = MillisBetween(start, Clock::now()) / 1e3;
  ph->qps = static_cast<double>(ph->latency_ms.size()) / ph->wall_s;
  int64_t in_limit = 0;
  for (double ms : ph->latency_ms) in_limit += ms <= kSloP99Ms ? 1 : 0;
  ph->slo_qps = static_cast<double>(in_limit) / ph->wall_s;
}

struct Rung {
  std::vector<double> latency_ms;
  double drain_ms = 0;
  double achieved_qps = 0;
  bool pass = false;
};

/// One open-loop rung: `rate` requests/s for `seconds` from one
/// generator thread, each timed from its intended send time.
Rung RunRung(dm::QueryService& svc, const std::vector<dm::QueryRequest>& users,
             double rate, double seconds, Tracer* tracer, AnswerBook& book,
             std::atomic<int64_t>* next_qid, Phase* ph) {
  Rung rung;
  const auto n = static_cast<int64_t>(std::llround(rate * seconds));
  std::vector<double> lat(static_cast<size_t>(n), 0.0);
  std::vector<double> queue(static_cast<size_t>(n), 0.0);
  std::vector<double> exec(static_cast<size_t>(n), 0.0);
  std::mutex mu;
  std::condition_variable cv;
  int64_t completed = 0;
  Clock::time_point last_done;
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  for (int64_t k = 0; k < n; ++k) {
    const auto intended =
        t0 + std::chrono::duration_cast<Clock::duration>(interval * k);
    // Sleep to just before the send time, then spin: a sleeping thread's
    // wake-up on a shared virtual machine can run milliseconds late, and
    // that lateness would count against every request behind it.
    std::this_thread::sleep_until(intended - std::chrono::microseconds(200));
    while (Clock::now() < intended) {
    }
    ph->late_ms.push_back(MillisBetween(intended, Clock::now()));
    const size_t i = static_cast<size_t>(k) % users.size();
    const int64_t qid = next_qid->fetch_add(1);
    svc.Submit(users[i], [&, k, i, qid, intended](
                             const dm::Result<dm::DmQueryResult>& r,
                             const dm::QueryTiming& timing) {
      OnServed(i, qid, users[i], r, timing, tracer, book);
      const auto now = Clock::now();
      lat[static_cast<size_t>(k)] = MillisBetween(intended, now);
      queue[static_cast<size_t>(k)] = timing.queue_millis;
      exec[static_cast<size_t>(k)] = timing.exec_millis;
      std::lock_guard<std::mutex> lock(mu);
      ++completed;
      last_done = std::max(last_done, now);
      cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == n; });
  }
  const auto window_end =
      t0 + std::chrono::duration_cast<Clock::duration>(interval * n);
  rung.drain_ms = std::max(0.0, MillisBetween(window_end, last_done));
  rung.achieved_qps =
      static_cast<double>(n) / (MillisBetween(t0, last_done) / 1e3);
  rung.pass = Pct(lat, 0.99) <= kSloP99Ms && rung.drain_ms <= kSloP99Ms;
  rung.latency_ms = lat;
  ph->latency_ms.insert(ph->latency_ms.end(), lat.begin(), lat.end());
  ph->queue_ms.insert(ph->queue_ms.end(), queue.begin(), queue.end());
  ph->exec_ms.insert(ph->exec_ms.end(), exec.begin(), exec.end());
  return rung;
}

void MeasureLadder(dm::QueryService& svc,
                   const std::vector<dm::QueryRequest>& users, double seconds,
                   Tracer* tracer, AnswerBook& book, Phase* ph) {
  const auto start = Clock::now();
  const double per_rung =
      seconds / (static_cast<double>(std::size(kLadder)) - 1 + kReferenceWeight);
  std::atomic<int64_t> next_qid{0};
  std::vector<Rung> rungs;
  for (double rate : kLadder) {
    const double weight =
        rungs.size() == kReferenceRung ? kReferenceWeight : 1.0;
    rungs.push_back(RunRung(svc, users, rate, per_rung * weight, tracer, book,
                            &next_qid, ph));
    std::fprintf(stderr,
                 "[dmbench]   rung %5.0f/s: p50 %.2f ms p99 %.2f ms drain "
                 "%.1f ms achieved %.1f/s %s\n",
                 rate, Pct(rungs.back().latency_ms, 0.5),
                 Pct(rungs.back().latency_ms, 0.99), rungs.back().drain_ms,
                 rungs.back().achieved_qps,
                 rungs.back().pass ? "meets SLO" : "misses SLO");
  }
  ph->wall_s = MillisBetween(start, Clock::now()) / 1e3;
  ph->p50_ref = WindowedPct(rungs[kReferenceRung].latency_ms, 0.5);
  ph->p99_ref = WindowedPct(rungs[kReferenceRung].latency_ms, 0.99);
  // Capacity: the completion rate of the two top rungs, both offered
  // above it.
  ph->qps = (rungs[rungs.size() - 1].achieved_qps +
             rungs[rungs.size() - 2].achieved_qps) / 2;
  ph->slo_qps = 0;
  for (const Rung& r : rungs) {
    if (r.pass) ph->slo_qps = r.achieved_qps;
  }
}

// ---------------------------------------------------------------------------
// Verification pass.
// ---------------------------------------------------------------------------

/// Re-executes every distinct query once and checks it against the
/// oracle and the mesh properties; timed answers must match it. The
/// canary's executions count as failed while the oracle rejects it.
void Verify(Terrain& t, dm::DmDataSource* source, const Inputs& in, bool cold,
            AnswerBook& book, RunResult* out) {
  const Oracle oracle(*t.tree, t.base_edges);
  dm::DmQueryProcessor proc(source);
  int64_t triangles = 0;
  int64_t checked = 0;
  for (size_t i = 0; i < in.distinct.size(); ++i) {
    if (!book.first_[i].has_value()) continue;  // never ran in time
    if (cold) {
      const dm::Status st = t.env->FlushAll();
      if (!st.ok()) out->Fail("flush: " + st.ToString());
    }
    const dm::QueryRequest& q = in.distinct[i];
    auto r = Execute(proc, q);
    if (!r.ok()) {
      out->Fail("verification run of query " + std::to_string(i) +
                " failed: " + r.status().ToString());
      continue;
    }
    const dm::DmQueryResult& res = r.value();
    ++checked;
    triangles += static_cast<int64_t>(res.triangles.size());
    if (!(FingerprintOf(res) == *book.first_[i])) {
      out->Fail("query " + std::to_string(i) + " (" + KindName(q) +
                "): timed answer differs from the checked one");
    }
    std::string why = oracle.Check(q, res);
    if (why.empty()) why = CheckMesh(*t.tree, res);
    if (static_cast<int64_t>(i) == in.canary) {
      if (!why.empty()) {
        out->failed += book.runs_[i];
        std::fprintf(stderr,
                     "[dmbench] known fault, counted as %lld failed: "
                     "canary (%s) %s\n",
                     static_cast<long long>(book.runs_[i]), KindName(q),
                     why.c_str());
      } else {
        std::fprintf(stderr, "[dmbench] the canary query now passes\n");
      }
      continue;
    }
    if (!why.empty()) {
      out->Fail("query " + std::to_string(i) + " (" + KindName(q) + "): " +
                why);
    }
  }
  if (checked == 0) out->Fail("no query was checked");
  if (triangles < checked) {
    out->Fail("workload averages under one triangle per query (" +
              std::to_string(triangles) + " over " + std::to_string(checked) +
              ")");
  }
  if (book.mismatch_) out->Fail("a query returned different answers");
  for (const std::string& p : book.problems_) out->Fail(p);
  std::fprintf(stderr,
               "[dmbench] checked %lld distinct queries against the PmTree "
               "oracle: %.1f triangles per query; %.1f%% of drawn inputs "
               "left out for folded reference cuts\n",
               static_cast<long long>(checked),
               static_cast<double>(triangles) /
                   static_cast<double>(std::max<int64_t>(1, checked)),
               100.0 * in.LeftOutShare());
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

void ReportEndToEnd(const Terrain& t, const std::vector<BuildTimes>& reps,
                    const Phase& ph, RunResult* out) {
  const double n = static_cast<double>(ph.latency_ms.size());
  out->Metric("setup_s", MedianTimes(reps).total_s, "s");
  out->Metric("qps", ph.qps, "req/s");
  out->Metric("slo_qps", ph.slo_qps, "req/s");
  out->Metric("da_per_query",
              Ratio(static_cast<double>(ph.after.io.disk_reads -
                                        ph.before.io.disk_reads),
                    n),
              "pages");
  out->Metric("peak_rss_mb", PeakRssMb(), "MiB");
  out->Metric("bytes_per_point",
              Ratio(static_cast<double>(t.ServedBytes()),
                    static_cast<double>(t.points)),
              "B");
}

/// Per-layer metrics of a traced phase, plus the account of where the
/// measured time went.
void ReportLayers(const Args& args, const Terrain& t,
                  const std::vector<BuildTimes>& reps, const Phase& ph,
                  const Phase& untraced, const Tracer& tracer,
                  const AnswerBook& book, double plan_ms, double plan_cubes,
                  uint32_t read_latency_us, RunResult* out) {
  const double n = static_cast<double>(ph.latency_ms.size());
  const dm::IoStats& a = ph.before.io;
  const dm::IoStats& b = ph.after.io;
  const auto d = [](int64_t x, int64_t y) { return static_cast<double>(y - x); };

  out->Metric("pool.hit_ratio",
              1.0 - Ratio(d(a.disk_reads, b.disk_reads),
                          d(a.logical_fetches, b.logical_fetches)),
              "ratio");
  out->Metric("heap.pages_per_query",
              Ratio(d(a.fetch_run_pages, b.fetch_run_pages), n), "pages");
  out->Metric("heap.pages_per_run",
              Ratio(d(a.fetch_run_pages, b.fetch_run_pages),
                    d(a.fetch_runs, b.fetch_runs)),
              "pages");
  out->Metric("pool.evictions_per_query",
              Ratio(d(a.evictions, b.evictions), n), "pages");
  out->Metric("pool.io_retries", d(a.io_retries, b.io_retries), "count");
  out->Metric("pool.corrupt_pages", d(a.corrupt_pages, b.corrupt_pages),
              "count");

  const dm::AsyncIoStats& aa = ph.before.async;
  const dm::AsyncIoStats& ab = ph.after.async;
  const double requests = d(aa.requests, ab.requests);
  out->Metric("async.requests_per_submission",
              Ratio(requests, d(aa.submissions, ab.submissions)), "requests");
  out->Metric("async.inflight_hwm", static_cast<double>(ab.inflight_hwm),
              "requests");
  out->Metric("async.overlap",
              Ratio(requests * read_latency_us / 1e6, ph.wall_s), "ratio");

  out->Metric("index.pages_per_query",
              Ratio(static_cast<double>(book.index_io_), n), "pages");

  const auto totals = tracer.Totals();
  auto total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? std::make_pair(0.0, int64_t{0}) : it->second;
  };
  const auto [fetch_ms, fetches] = total("fetch");
  const double exec_ms = total("query").first;
  const double queue_ms = total("queue").first;
  out->Metric("query.fetch_ms", Ratio(fetch_ms, n), "ms");
  out->Metric("query.self_ms", Ratio(exec_ms - fetch_ms, n), "ms");
  out->Metric("query.refinement_splits",
              Ratio(static_cast<double>(book.splits_), n), "count");
  out->Metric("query.range_queries",
              Ratio(static_cast<double>(book.range_queries_), n), "count");
  out->Metric("query.fetched_per_vertex",
              Ratio(static_cast<double>(book.fetched_),
                    static_cast<double>(book.vertices_)),
              "ratio");
  out->Metric("query.triangles",
              Ratio(static_cast<double>(book.triangles_), n), "count");

  const dm::NodeCacheStats& ca = ph.before.cache;
  const dm::NodeCacheStats& cb = ph.after.cache;
  out->Metric("nodecache.hit_ratio",
              Ratio(d(ca.hits, cb.hits),
                    d(ca.hits, cb.hits) + d(ca.misses, cb.misses)),
              "ratio");
  out->Metric("plan.ms", plan_ms, "ms");
  out->Metric("plan.cubes", plan_cubes, "count");

  // Client-observed latency, reported here rather than end to end: on a
  // shared virtual machine it swings with host scheduling noise by more
  // than any bound a regression gate could use (see README.md).
  const bool open_loop = t.shards != nullptr;
  out->Metric("latency.p50_ms",
              open_loop ? ph.p50_ref : WindowedPct(ph.latency_ms, 0.5), "ms");
  out->Metric("latency.p99_ms",
              open_loop ? ph.p99_ref : WindowedPct(ph.latency_ms, 0.99), "ms");
  out->Metric("service.queue_p50_ms", Pct(ph.queue_ms, 0.5), "ms");
  out->Metric("service.queue_p99_ms", Pct(ph.queue_ms, 0.99), "ms");
  out->Metric("service.exec_p50_ms", Pct(ph.exec_ms, 0.5), "ms");
  out->Metric("service.exec_p99_ms", Pct(ph.exec_ms, 0.99), "ms");
  out->Metric("loadgen.late_p99_ms", Pct(ph.late_ms, 0.99), "ms");

  const dm::RouterCounters& ra = ph.before.router;
  const dm::RouterCounters& rb = ph.after.router;
  const double shard_fetches = static_cast<double>(ph.shard_fetches);
  const double attempts = d(ra.attempts, rb.attempts);
  out->Metric("router.fetch_ms",
              t.shards != nullptr
                  ? Ratio(fetch_ms, static_cast<double>(fetches))
                  : 0.0,
              "ms");
  out->Metric("router.shards_per_fetch",
              Ratio(shard_fetches, d(ra.fanouts, rb.fanouts)), "shards");
  out->Metric("router.attempts_per_shard_fetch",
              Ratio(attempts, shard_fetches), "attempts");
  out->Metric("router.useful_attempt_ratio",
              Ratio(shard_fetches - d(ra.shards_missed, rb.shards_missed),
                    attempts),
              "ratio");
  out->Metric("router.hedges", d(ra.hedges, rb.hedges), "count");
  out->Metric("router.failovers", d(ra.failovers, rb.failovers), "count");

  const BuildTimes m = MedianTimes(reps);
  out->Metric("build.dem_s", m.dem_s, "s");
  out->Metric("build.simplify_s", m.simplify_s, "s");
  out->Metric("build.pmtree_s", m.pmtree_s, "s");
  out->Metric("build.conn_s", m.conn_s, "s");
  out->Metric("build.str_s", m.str_s, "s");
  out->Metric("build.encode_s", m.encode_s, "s");
  out->Metric("build.append_s", m.append_s, "s");
  out->Metric("build.bulkload_s", m.bulkload_s, "s");
  out->Metric("build.catalog_s", m.catalog_s, "s");
  out->Metric("build.shards_s", m.shards_s, "s");
  out->Metric("build.warmup_s", m.warmup_s, "s");
  const auto heap_pages = static_cast<double>(t.store->heap().num_pages());
  out->Metric("store.heap_pages", heap_pages, "pages");
  out->Metric("store.index_pages",
              static_cast<double>(t.env->disk().num_pages()) - heap_pages,
              "pages");

  // The account: the spans' self times against the measured time.
  double late = 0, lat = 0;
  for (double x : ph.late_ms) late += x;
  for (double x : ph.latency_ms) lat += x;
  const double parts = late + queue_ms + exec_ms;
  out->Metric("trace.accounted_pct", 100.0 * Ratio(parts, lat), "%");
  // Tracing overhead: median exec time of the traced half against the
  // untraced half of the same run.
  const double traced_exec = Pct(ph.exec_ms, 0.5);
  const double untraced_exec = Pct(untraced.exec_ms, 0.5);
  out->Metric("trace.overhead_pct",
              100.0 * (Ratio(traced_exec, untraced_exec) - 1.0), "%");
  out->Metric("trace.spans", static_cast<double>(tracer.size()), "count");

  auto row = [&](const char* what, double total_ms, const char* note) {
    std::fprintf(stderr, "[dmbench]   %-28s %9.4f ms/query  %5.1f%%  %s\n",
                 what, Ratio(total_ms, n), 100.0 * Ratio(total_ms, lat), note);
  };
  std::fprintf(stderr,
               "[dmbench] per-layer account of %s (traced half, %.0f queries; "
               "share of client latency)\n",
               args.workload.c_str(), n);
  row("loadgen.late", late, "send time behind the intended time");
  row("service.queue", queue_ms, "submit -> dequeued by a worker");
  row(t.shards != nullptr ? "router.fetch (self+shards)" : "dm.fetch (source)",
      fetch_ms, "FetchBox: index, heap, pool, decode");
  row("dm.query self", exec_ms - fetch_ms,
      "cut, refinement, triangulation, planning");
  std::fprintf(stderr,
               "[dmbench]   %-28s %9.4f ms per multi-base query (OptimizeMultiBase "
               "replayed on the same inputs, %.1f cubes)\n",
               "  planning", plan_ms, plan_cubes);
  row("= parts", parts, "");
  row("client latency", lat, "measured by the client");
  std::fprintf(stderr,
               "[dmbench]   parts/latency %.2f%% (README tolerance: within 5%%); "
               "tracing overhead on median exec time %+.2f%% (%.4f vs %.4f "
               "ms untraced)\n",
               100.0 * Ratio(parts, lat),
               100.0 * (Ratio(traced_exec, untraced_exec) - 1.0), traced_exec,
               untraced_exec);
}

/// Mean time and cube count of OptimizeMultiBase over the multi-base
/// queries of `distinct`, on the inputs the processor would use.
void ReplayPlans(dm::DmDataSource* source,
                 const std::vector<dm::QueryRequest>& distinct, double* ms,
                 double* cubes) {
  double total_ms = 0;
  double total_cubes = 0;
  int64_t n = 0;
  for (const dm::QueryRequest& q : distinct) {
    if (q.kind != dm::QueryRequest::Kind::kView || !q.multi_base) continue;
    const auto t0 = Clock::now();
    const dm::CostModelInputs inputs = source->cost_inputs();
    const auto plan = dm::OptimizeMultiBase(
        inputs, q.view.roi, q.view.gradient_along_y,
        [&q](double f) { return q.view.EAt(f); }, 64);
    total_ms += MillisBetween(t0, Clock::now());
    total_cubes += static_cast<double>(plan.size());
    ++n;
  }
  *ms = Ratio(total_ms, static_cast<double>(n));
  *cubes = Ratio(total_cubes, static_cast<double>(n));
}

/// The measure -> (traced measure) -> verify -> report sequence shared by
/// the workloads. `measure(seconds, tracer, phase)` runs one phase.
template <typename Measure>
dm::Status MeasureAndReport(const Args& args, Prepared& p, TracedSource& src,
                            dm::ShardRouter* router, bool cold,
                            AnswerBook& book, const Measure& measure,
                            RunResult* out) {
  Terrain& t = *p.terrain;
  const Inputs& in = p.inputs;
  if (!args.trace) {
    Phase ph;
    ph.before = Snap(t, router);
    DM_RETURN_NOT_OK(measure(args.seconds, nullptr, &ph));
    ph.after = Snap(t, router);
    Verify(t, &src, in, cold, book, out);
    ReportEndToEnd(t, p.reps, ph, out);
  } else {
    // First half untraced (the overhead baseline), second half traced.
    Phase base;
    DM_RETURN_NOT_OK(measure(args.seconds / 2, nullptr, &base));
    book.ResetSums();
    Tracer tracer(Clock::now());
    src.set_tracer(&tracer);
    src.reset_shard_fetches();
    Phase ph;
    ph.before = Snap(t, router);
    DM_RETURN_NOT_OK(measure(args.seconds / 2, &tracer, &ph));
    ph.after = Snap(t, router);
    src.set_tracer(nullptr);
    ph.shard_fetches = src.shard_fetches();
    Verify(t, &src, in, cold, book, out);
    double plan_ms = 0;
    double plan_cubes = 0;
    ReplayPlans(&src, in.distinct, &plan_ms, &plan_cubes);
    ReportLayers(args, t, p.reps, ph, base, tracer, book, plan_ms, plan_cubes,
                 t.shards != nullptr ? kReadLatencyUs : 0, out);
    out->Metric("inputs.left_out_share", in.LeftOutShare(), "ratio");
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    DM_RETURN_NOT_OK(tracer.WriteChromeJson(path));
    std::fprintf(stderr, "[dmbench] trace: %s (%zu spans)\n", path.c_str(),
                 tracer.size());
  }
  out->attempted += book.attempted_;
  out->failed += book.failed_;
  return dm::Status::OK();
}

dm::Status RunPaperCold(const Args& args, const Scale& scale, RunResult* out) {
  StoreConfig cfg;
  cfg.db.pool_pages = kPaperPoolPages;
  cfg.db.pool_shards = 1;
  cfg.db.async_backend = "off";
  cfg.db.node_cache_bytes = 0;
  DM_ASSIGN_OR_RETURN(
      Prepared p,
      Prepare(
          args, scale, cfg,
          [&](const Terrain& t, const Accept& accept) {
            Inputs in;
            in.distinct = PaperColdRound(t, args.seed, args.small, accept,
                                         &in.candidates);
            in.canary = static_cast<int64_t>(in.distinct.size());
            in.distinct.push_back(MultiBaseCanary(t));
            return in;
          },
          [](Terrain&, const Inputs&) { return dm::Status::OK(); }));
  Terrain& t = *p.terrain;
  dm::DmStoreSource store_src(&*t.store);
  TracedSource src(&store_src);
  dm::DmQueryProcessor proc(&src);
  AnswerBook book(p.inputs.distinct.size());
  return MeasureAndReport(
      args, p, src, nullptr, /*cold=*/true, book,
      [&](double seconds, Tracer* tracer, Phase* ph) {
        return MeasureCold(t, proc, p.inputs.distinct, seconds, tracer, book,
                           ph);
      },
      out);
}

dm::Status RunFlythrough(const Args& args, const Scale& scale,
                         RunResult* out) {
  StoreConfig cfg;
  cfg.db.pool_pages = kFlyPoolPages;
  cfg.db.pool_shards = dm::BufferPool::kDefaultShards;
  cfg.db.async_backend = "off";
  cfg.db.node_cache_bytes = kFlyNodeCacheBytes;
  const int frames = args.small ? 24 : kFlyFrames;
  dm::QueryServiceOptions so;
  so.num_threads = kFlySessions;
  so.queue_capacity = 2 * kFlySessions;
  DM_ASSIGN_OR_RETURN(
      Prepared p,
      Prepare(
          args, scale, cfg,
          [&](const Terrain& t, const Accept& accept) {
            Inputs in;
            for (int c = 0; c < kFlySessions; ++c) {
              in.sessions.push_back(FlythroughSession(
                  t, c, args.seed, frames, accept, &in.candidates));
              in.distinct.insert(in.distinct.end(), in.sessions.back().begin(),
                                 in.sessions.back().end());
            }
            return in;
          },
          // Warm-up: one untimed pass of every session fills the pool
          // and the node cache.
          [&](Terrain& t, const Inputs& in) {
            dm::DmStoreSource store_src(&*t.store);
            TracedSource src(&store_src);
            dm::QueryService svc(&src, so);
            AnswerBook scratch(in.distinct.size());
            Phase ph;
            MeasureSessions(svc, in.sessions, 0.0, nullptr, scratch, &ph);
            return dm::Status::OK();
          }));
  Terrain& t = *p.terrain;
  dm::DmStoreSource store_src(&*t.store);
  TracedSource src(&store_src);
  dm::QueryService svc(&src, so);
  AnswerBook book(p.inputs.distinct.size());
  return MeasureAndReport(
      args, p, src, nullptr, /*cold=*/false, book,
      [&](double seconds, Tracer* tracer, Phase* ph) {
        MeasureSessions(svc, p.inputs.sessions, seconds, tracer, book, ph);
        return dm::Status::OK();
      },
      out);
}

dm::Status RunShardedOpen(const Args& args, const Scale& scale,
                          RunResult* out) {
  StoreConfig cfg;
  cfg.db.pool_shards = 1;
  cfg.db.async_backend = "off";
  cfg.shards = true;
  cfg.shard_options.shards = kShards;
  cfg.shard_options.replicas = kReplicas;
  cfg.shard_options.db.pool_pages = kShardPoolPages;
  cfg.shard_options.db.pool_shards = kShardPoolShards;
  cfg.shard_options.db.async_backend = "auto";
  cfg.shard_options.db.node_cache_bytes = 0;
  cfg.shard_read_latency_us = kReadLatencyUs;
  dm::QueryServiceOptions so;
  so.num_threads = kOpenWorkers;
  // Open loop: the generator must never block on a full queue.
  so.queue_capacity = size_t{1} << 20;
  std::unique_ptr<dm::ShardRouter> router;
  DM_ASSIGN_OR_RETURN(
      Prepared p,
      Prepare(
          args, scale, cfg,
          [&](const Terrain& t, const Accept& accept) {
            Inputs in;
            in.distinct =
                IndependentUsers(t, args.seed, kUsers, accept, &in.candidates);
            return in;
          },
          // Warm-up: every user once, closed burst, through the router
          // that serves the run, so its latency windows start filled.
          [&](Terrain& t, const Inputs& in) {
            router.reset();
            router = std::make_unique<dm::ShardRouter>(t.shards.get());
            TracedSource src(router.get());
            dm::QueryService svc(&src, so);
            for (const auto& q : in.distinct) {
              svc.Submit(q, [](const dm::Result<dm::DmQueryResult>&,
                               const dm::QueryTiming&) {});
            }
            svc.Drain();
            return dm::Status::OK();
          }));
  Terrain& t = *p.terrain;
  if (dm::AsyncPageDevice* dev =
          t.shards->shard(0).replicas[0]->env->async_device()) {
    std::fprintf(stderr, "[dmbench] async backend: %s\n", dev->backend_name());
  }
  TracedSource src(router.get());
  src.count_shards(t.shards.get());
  dm::QueryService svc(&src, so);
  AnswerBook book(p.inputs.distinct.size());
  return MeasureAndReport(
      args, p, src, router.get(), /*cold=*/false, book,
      [&](double seconds, Tracer* tracer, Phase* ph) {
        MeasureLadder(svc, p.inputs.distinct, seconds, tracer, book, ph);
        return dm::Status::OK();
      },
      out);
}

}  // namespace

dm::Status RunWorkload(const Args& args, const Scale& scale, RunResult* out) {
  if (args.workload == "paper_cold") return RunPaperCold(args, scale, out);
  if (args.workload == "flythrough_warm") {
    return RunFlythrough(args, scale, out);
  }
  if (args.workload == "sharded_open") return RunShardedOpen(args, scale, out);
  return dm::Status::InvalidArgument("unknown workload '" + args.workload +
                                     "' (paper_cold, flythrough_warm, "
                                     "sharded_open)");
}

std::vector<std::string> TamperSelfTest(const Args& args, const Scale& scale) {
  std::vector<std::string> problems;
  StoreConfig cfg;
  cfg.db.async_backend = "off";
  Scale one = scale;
  one.setup_reps = 1;
  auto t_or = BuildTerrain(one, cfg, args.data_dir + "/tamper");
  if (!t_or.ok()) return {"tamper set-up: " + t_or.status().ToString()};
  Terrain& t = *t_or.value();
  const Oracle oracle(*t.tree, t.base_edges);
  dm::DmQueryProcessor proc(&*t.store);
  dm::QueryRequest q;
  q.kind = dm::QueryRequest::Kind::kUniform;
  const dm::Rect& b = t.bounds();
  q.roi = RoiAround(b, 0.5, (b.lo_x + b.hi_x) / 2, (b.lo_y + b.hi_y) / 2);
  q.e = t.Lod(0.25);
  auto r = Execute(proc, q);
  if (!r.ok()) return {"tamper query: " + r.status().ToString()};
  const dm::DmQueryResult good = r.value();
  auto verdict = [&](const dm::DmQueryResult& res) {
    std::string why = oracle.Check(q, res);
    return why.empty() ? CheckMesh(*t.tree, res) : why;
  };
  if (const std::string why = verdict(good); !why.empty()) {
    problems.push_back("untampered answer rejected: " + why);
  }

  dm::DmQueryResult dropped = good;
  const size_t mid = dropped.vertices.size() / 2;
  dropped.vertices.erase(dropped.vertices.begin() + static_cast<long>(mid));
  dropped.positions.erase(dropped.positions.begin() + static_cast<long>(mid));
  const std::string drop_why = verdict(dropped);
  std::fprintf(stderr, "[dmbench] tamper: one vertex dropped -> %s\n",
               drop_why.empty() ? "ACCEPTED" : drop_why.c_str());
  if (drop_why.empty()) problems.push_back("a dropped vertex was accepted");

  // Add a copy of an interior triangle: each of its edges is then used
  // by three triangles.
  std::map<std::pair<dm::VertexId, dm::VertexId>, int> uses;
  auto edge = [](dm::VertexId a, dm::VertexId b) {
    return std::make_pair(std::min(a, b), std::max(a, b));
  };
  for (const dm::Triangle& tri : good.triangles) {
    for (int i = 0; i < 3; ++i) ++uses[edge(tri[i], tri[(i + 1) % 3])];
  }
  dm::DmQueryResult added = good;
  for (const dm::Triangle& tri : good.triangles) {
    if (uses[edge(tri[0], tri[1])] == 2 && uses[edge(tri[1], tri[2])] == 2 &&
        uses[edge(tri[2], tri[0])] == 2) {
      added.triangles.push_back(tri);
      break;
    }
  }
  const std::string add_why =
      added.triangles.size() > good.triangles.size() ? verdict(added) : "";
  std::fprintf(stderr, "[dmbench] tamper: one triangle added -> %s\n",
               add_why.empty() ? "ACCEPTED" : add_why.c_str());
  if (add_why.empty()) problems.push_back("an added triangle was accepted");
  if (FingerprintOf(dropped) == FingerprintOf(good) ||
      FingerprintOf(added) == FingerprintOf(good)) {
    problems.push_back("a tampered answer has the untampered fingerprint");
  }
  return problems;
}

}  // namespace dmbench
