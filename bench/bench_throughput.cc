// Concurrent-serving throughput benchmark: replays one deterministic
// mixed workload (view-dependent, multi-base and perspective queries,
// see MakeMixedWorkload) through the QueryService at several worker
// counts and reports queries/sec, p50/p99/p999 latency (end-to-end
// plus its queue-wait vs execution split) and aggregate disk reads
// per configuration.
//
// Unlike the fig6/fig8 benches this measures steady-state serving
// capacity: the buffer pool runs with its concurrent sharding
// (BufferPool::kDefaultShards) instead of the paper-exact single
// shard, sized below the working set (--pool-pages) so the timed runs
// keep missing, and each page read carries a simulated device latency
// (--read-latency-us) to model the disk-bound regime the paper
// measures — the bench datasets otherwise sit entirely in the OS page
// cache and the run degenerates to a CPU microbenchmark. An untimed
// single-threaded pass first brings the system to steady state.
//
// A second sweep A/Bs the async read path (DESIGN.md §13): for each
// simulated latency in --latencies, one single-threaded pass with
// async off and one with --backend enabled, reporting the speedup and the overlap efficiency — the sum of
// simulated read latency divided by wall time, i.e. how many reads
// were in flight at once on average (1.0 = fully serialized reads).
//
// Usage: bench_throughput [--tiny] [--threads=1,2,4,8] [--queries=N]
//                         [--read-latency-us=N] [--pool-pages=N]
//                         [--latencies=50,150,500] [--backend=auto]
//                         [--out=BENCH_throughput.json]
//
// --tiny switches to a 65x65 dataset for CI smoke runs.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "server/query_service.h"
#include "storage/buffer_pool.h"

namespace dm::bench {
namespace {

struct CliOptions {
  bool tiny = false;
  std::vector<int> threads = {1, 2, 4, 8};
  int queries = 200;
  // The datasets fit in the OS page cache, so with zero simulated
  // latency a "disk read" costs a few microseconds and the benchmark
  // degenerates to a CPU microbenchmark (meaningless on small CI
  // machines). The default models an SSD-class device; 0 disables.
  int read_latency_us = 150;
  // Pool deliberately smaller than the working set so the timed runs
  // keep missing, as in the paper's buffer-starved setup.
  int pool_pages = 64;
  // Simulated latencies for the async A/B sweep; single-threaded sync
  // vs async at each point.
  std::vector<int> latencies = {50, 150, 500};
  // Async backend for the A/B ("auto" resolves to uring when the
  // kernel has it, threadpool otherwise).
  std::string backend = "auto";
  std::string out = "BENCH_throughput.json";
};

bool ParseIntList(const char* s, std::vector<int>* out, long max_value) {
  out->clear();
  while (*s != '\0') {
    char* end = nullptr;
    const long t = std::strtol(s, &end, 10);
    if (end == s || t <= 0 || t > max_value) return false;
    out->push_back(static_cast<int>(t));
    s = *end == ',' ? end + 1 : end;
    if (end == s && *end != '\0') return false;
  }
  return !out->empty();
}

bool ParseThreadList(const char* s, std::vector<int>* out) {
  return ParseIntList(s, out, 256);
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--tiny") == 0) {
      opts->tiny = true;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      if (!ParseThreadList(arg + 10, &opts->threads)) {
        std::fprintf(stderr, "bad --threads list: %s\n", arg + 10);
        return false;
      }
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      opts->queries = std::atoi(arg + 10);
      if (opts->queries <= 0) {
        std::fprintf(stderr, "bad --queries: %s\n", arg + 10);
        return false;
      }
    } else if (std::strncmp(arg, "--read-latency-us=", 18) == 0) {
      opts->read_latency_us = std::atoi(arg + 18);
      if (opts->read_latency_us < 0) {
        std::fprintf(stderr, "bad --read-latency-us: %s\n", arg + 18);
        return false;
      }
    } else if (std::strncmp(arg, "--pool-pages=", 13) == 0) {
      opts->pool_pages = std::atoi(arg + 13);
      if (opts->pool_pages < 16) {
        std::fprintf(stderr, "bad --pool-pages (min 16): %s\n", arg + 13);
        return false;
      }
    } else if (std::strncmp(arg, "--latencies=", 12) == 0) {
      if (!ParseIntList(arg + 12, &opts->latencies, 1000000)) {
        std::fprintf(stderr, "bad --latencies list: %s\n", arg + 12);
        return false;
      }
    } else if (std::strncmp(arg, "--backend=", 10) == 0) {
      opts->backend = arg + 10;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      opts->out = arg + 6;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: bench_throughput [--tiny] "
                   "[--threads=1,2,4] [--queries=N] [--read-latency-us=N] "
                   "[--pool-pages=N] [--latencies=50,150,500] "
                   "[--backend=auto|uring|threadpool] "
                   "[--out=FILE]\n",
                   arg);
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return 2;

  DatasetSpec spec = SmallDatasetSpec();
  if (opts.tiny) {
    spec.name = "tiny";
    spec.side = 65;
  }
  DbOptions db_options;
  db_options.pool_shards = BufferPool::kDefaultShards;
  db_options.pool_pages = static_cast<uint32_t>(opts.pool_pages);
  std::fprintf(stderr, "[bench] preparing dataset '%s' (%d x %d)...\n",
               spec.name.c_str(), spec.side, spec.side);
  auto ctx_or = BenchContext::Create(BenchDataDir(), spec, db_options,
                                     /*repack_dm=*/true);
  if (!ctx_or.ok()) {
    std::fprintf(stderr, "dataset build failed: %s\n",
                 ctx_or.status().ToString().c_str());
    return 1;
  }
  BenchContext ctx = std::move(ctx_or).value();
  BuiltDataset& ds = ctx.mutable_dataset();
  DmStore* store = &ds.dm.value();
  // Latency applies only from here on: the dataset build above ran at
  // native page-cache speed.
  ds.dm_env->disk().set_simulated_read_latency_micros(
      static_cast<uint32_t>(opts.read_latency_us));

  const std::vector<QueryRequest> workload =
      MakeMixedWorkload(ds.bounds, ds.max_lod, opts.queries, /*seed=*/12345);

  // Untimed warm-up: faults the working set into the pool so every
  // timed configuration sees the same warm cache.
  {
    auto warm_or = RunThroughput(store, workload, 1);
    if (!warm_or.ok()) {
      std::fprintf(stderr, "warm-up failed: %s\n",
                   warm_or.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench] warm-up: %s\n",
                 warm_or.value().ToString().c_str());
  }

  BenchJsonWriter writer("bench_throughput");
  writer.Add("queries", static_cast<double>(opts.queries));
  writer.Add("dataset_side", static_cast<double>(spec.side));
  writer.Add("read_latency_us", static_cast<double>(opts.read_latency_us));
  writer.Add("pool_pages", static_cast<double>(opts.pool_pages));

  // CRC verification A/B: single-threaded pass with checksums off,
  // then on. The pool is smaller than the working set, so misses (and
  // thus per-fetch CRC work) keep flowing in both passes; the gate in
  // check_bench_regression.py holds the overhead under 10%.
  {
    BufferPool& pool = ds.dm_env->pool();
    pool.set_verify_checksums(false);
    auto off_or = RunThroughput(store, workload, 1);
    pool.set_verify_checksums(true);
    auto on_or = RunThroughput(store, workload, 1);
    if (!off_or.ok() || !on_or.ok()) {
      std::fprintf(stderr, "checksum A/B failed: %s\n",
                   (!off_or.ok() ? off_or : on_or).status()
                       .ToString()
                       .c_str());
      return 1;
    }
    const double off_qps = off_or.value().qps;
    const double on_qps = on_or.value().qps;
    const double overhead_pct =
        (off_qps > 0 && on_qps > 0) ? 100.0 * (off_qps / on_qps - 1.0) : 0.0;
    std::printf("checksum A/B: off=%.1f qps on=%.1f qps overhead=%.2f%%\n",
                off_qps, on_qps, overhead_pct);
    writer.Add("checksum_overhead_pct", overhead_pct);
  }

  // Repack A/B (dm/repack.h): cold-cache queries against the
  // build-order DM layout and the repacked cut-locality layout, same
  // ROIs, same LODs. Two query classes, because they stress the layout
  // differently: view-dependent cubes fetch a cut-DAG prefix (the
  // repacked tile-major/coarse-first order makes those contiguous),
  // while uniform plane slices are the adversarial case the layout
  // must at least hold level on. Heap reads = disk_accesses -
  // index_io; check_bench_regression.py gates the view ratio and the
  // mean run length. Mean pages per coalesced run shows *why* the
  // repacked store wins: cuts land on contiguous page runs instead of
  // one record per page.
  {
    struct ArmTotals {
      double heap_reads = 0, disk = 0, runs = 0, run_pages = 0;
      int64_t queries = 0;

      void Tally(const QueryStats& s) {
        heap_reads += static_cast<double>(s.disk_accesses - s.index_io);
        disk += static_cast<double>(s.disk_accesses);
        runs += static_cast<double>(s.fetch_runs);
        run_pages += static_cast<double>(s.fetch_run_pages);
        ++queries;
      }
      void Average() {
        const double n = queries > 0 ? static_cast<double>(queries) : 1.0;
        heap_reads /= n;
        disk /= n;
      }
    };
    const double e_fine = ctx.dataset().LodForCutFraction(0.50);
    const double e_work = ctx.dataset().LodForCutFraction(0.10);
    double roi_frac = 0.10;
    if (const char* rf = std::getenv("DM_ROI_FRAC")) roi_frac = atof(rf);
    const auto rois = ctx.SampleRois(roi_frac, QueryLocations());
    auto run_arm = [&](Method m, ArmTotals* uni, ArmTotals* view) -> Status {
      for (const Rect& roi : rois) {
        auto uni_or = ctx.RunUniform(m, roi, e_work);
        if (!uni_or.ok()) return uni_or.status();
        uni->Tally(uni_or.value());
        ViewQuery q;
        q.roi = roi;
        q.e_min = e_fine;
        q.e_max = e_work;
        auto view_or = ctx.RunView(m, q);
        if (!view_or.ok()) return view_or.status();
        view->Tally(view_or.value());
      }
      uni->Average();
      view->Average();
      return Status::OK();
    };
    ArmTotals base_uni, base_view, rp_uni, rp_view;
    Status st = run_arm(Method::kDmSingleBase, &base_uni, &base_view);
    if (st.ok()) st = run_arm(Method::kDmRepacked, &rp_uni, &rp_view);
    if (!st.ok()) {
      std::fprintf(stderr, "repack A/B failed: %s\n", st.ToString().c_str());
      return 1;
    }
    auto ratio = [](const ArmTotals& base, const ArmTotals& rp) {
      return rp.heap_reads > 0 ? base.heap_reads / rp.heap_reads : 0.0;
    };
    auto ppr = [](const ArmTotals& t) {
      return t.runs > 0 ? t.run_pages / t.runs : 0.0;
    };
    const ArmTotals base_all = [&] {
      ArmTotals t = base_uni;
      t.heap_reads += base_view.heap_reads;
      t.runs += base_view.runs;
      t.run_pages += base_view.run_pages;
      return t;
    }();
    const ArmTotals rp_all = [&] {
      ArmTotals t = rp_uni;
      t.heap_reads += rp_view.heap_reads;
      t.runs += rp_view.runs;
      t.run_pages += rp_view.run_pages;
      return t;
    }();
    std::printf(
        "repack A/B: uniform %.1f -> %.1f heap reads/query (%.2fx), "
        "view %.1f -> %.1f (%.2fx), run length %.2f -> %.2f pages\n",
        base_uni.heap_reads, rp_uni.heap_reads, ratio(base_uni, rp_uni),
        base_view.heap_reads, rp_view.heap_reads, ratio(base_view, rp_view),
        ppr(base_all), ppr(rp_all));
    writer.Add("repack_base_heap_reads_uniform", base_uni.heap_reads);
    writer.Add("repack_rp_heap_reads_uniform", rp_uni.heap_reads);
    writer.Add("repack_heap_reads_ratio_uniform", ratio(base_uni, rp_uni));
    writer.Add("repack_base_heap_reads_view", base_view.heap_reads);
    writer.Add("repack_rp_heap_reads_view", rp_view.heap_reads);
    writer.Add("repack_heap_reads_ratio_view", ratio(base_view, rp_view));
    writer.Add("repack_base_run_pages_mean", ppr(base_all));
    writer.Add("repack_rp_run_pages_mean", ppr(rp_all));

    // Mixed serving workload, cold, async on: the per-class
    // arms above isolate page counts; this arm measures what the
    // layout buys a disk-bound server — heap I/O *batches* per query.
    // Perspective and view queries issue many box fetches whose pages
    // the build-order layout scatters (short runs, one seek each)
    // while the repacked layout coalesces them into fewer, longer
    // runs of one batched submission (DESIGN.md §13). Headline gate: runs/query ratio, with qps as the
    // end-to-end check.
    const std::vector<QueryRequest> mixed = MakeMixedWorkload(
        ds.bounds, ds.max_lod, opts.queries, /*seed=*/777,
        /*roi_fraction=*/0.10);
    auto run_mixed = [&](DbEnv* env, DmStore* st, double* reads_q,
                         double* runs_q, double* qps) -> Status {
      env->disk().set_simulated_read_latency_micros(
          static_cast<uint32_t>(opts.read_latency_us));
      env->EnableAsync(opts.backend);
      DM_RETURN_NOT_OK(env->FlushAll());
      const IoStats io0 = env->stats();
      auto report_or = RunThroughput(st, mixed, 1);
      env->DisableAsync();
      DM_RETURN_NOT_OK(report_or.status());
      const IoStats io1 = env->stats();
      const double nq = static_cast<double>(mixed.size());
      *reads_q = static_cast<double>(io1.disk_reads - io0.disk_reads) / nq;
      *runs_q = static_cast<double>(io1.fetch_runs - io0.fetch_runs) / nq;
      *qps = report_or.value().qps;
      return Status::OK();
    };
    double base_reads_q = 0, base_runs_q = 0, base_qps = 0;
    double rp_reads_q = 0, rp_runs_q = 0, rp_qps = 0;
    st = run_mixed(ds.dm_env.get(), store, &base_reads_q, &base_runs_q,
                   &base_qps);
    if (st.ok()) {
      st = run_mixed(ds.dm_rp_env.get(), &ds.dm_rp.value(), &rp_reads_q,
                     &rp_runs_q, &rp_qps);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "repack mixed A/B failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    const double runs_ratio = rp_runs_q > 0 ? base_runs_q / rp_runs_q : 0.0;
    const double qps_ratio = base_qps > 0 ? rp_qps / base_qps : 0.0;
    std::printf(
        "repack mixed cold: reads/query %.1f -> %.1f, io runs/query "
        "%.1f -> %.1f (%.2fx fewer), qps %.0f -> %.0f (%.2fx)\n",
        base_reads_q, rp_reads_q, base_runs_q, rp_runs_q, runs_ratio,
        base_qps, rp_qps, qps_ratio);
    writer.Add("repack_mixed_base_reads_per_query", base_reads_q);
    writer.Add("repack_mixed_rp_reads_per_query", rp_reads_q);
    writer.Add("repack_mixed_base_runs_per_query", base_runs_q);
    writer.Add("repack_mixed_rp_runs_per_query", rp_runs_q);
    writer.Add("repack_mixed_runs_ratio", runs_ratio);
    writer.Add("repack_mixed_qps_ratio", qps_ratio);
  }

  int64_t total_failed = 0;
  for (int threads : opts.threads) {
    auto report_or = RunThroughput(store, workload, threads);
    if (!report_or.ok()) {
      std::fprintf(stderr, "run (threads=%d) failed: %s\n", threads,
                   report_or.status().ToString().c_str());
      return 1;
    }
    const ThroughputReport& r = report_or.value();
    std::printf("%s\n", r.ToString().c_str());
    const std::string prefix = "threads_" + std::to_string(threads) + "/";
    writer.Add(prefix + "qps", r.qps);
    writer.Add(prefix + "p50_millis", r.p50_millis);
    writer.Add(prefix + "p99_millis", r.p99_millis);
    writer.Add(prefix + "p999_millis", r.p999_millis);
    writer.Add(prefix + "queue_p50_millis", r.queue_p50_millis);
    writer.Add(prefix + "queue_p99_millis", r.queue_p99_millis);
    writer.Add(prefix + "exec_p50_millis", r.exec_p50_millis);
    writer.Add(prefix + "exec_p99_millis", r.exec_p99_millis);
    writer.Add(prefix + "wall_millis", r.wall_millis);
    writer.Add(prefix + "disk_reads", static_cast<double>(r.disk_reads));
    writer.Add(prefix + "failed", static_cast<double>(r.failed));
    total_failed += r.failed;
  }

  // Async I/O A/B: at each simulated latency, one single-threaded pass
  // with async off, one with the async backend bound. The
  // sync pass pays (missing pages x latency) serially per query, so
  // overlap_efficiency — total simulated read latency over wall time —
  // is ~the mean number of reads in flight; >1 means the async path
  // really overlapped reads with each other and with decode.
  {
    DbEnv* env = ds.dm_env.get();
    std::string actual_backend = "off";
    for (int lat : opts.latencies) {
      env->disk().set_simulated_read_latency_micros(
          static_cast<uint32_t>(lat));
      env->DisableAsync();
      auto sync_or = RunThroughput(store, workload, 1);
      actual_backend = env->EnableAsync(opts.backend);
      auto async_or = RunThroughput(store, workload, 1);
      env->DisableAsync();
      if (!sync_or.ok() || !async_or.ok()) {
        std::fprintf(stderr, "async A/B (latency=%dus) failed: %s\n", lat,
                     (!sync_or.ok() ? sync_or : async_or).status()
                         .ToString()
                         .c_str());
        return 1;
      }
      const ThroughputReport& sr = sync_or.value();
      const ThroughputReport& ar = async_or.value();
      total_failed += sr.failed + ar.failed;
      const double speedup = sr.qps > 0 ? ar.qps / sr.qps : 0.0;
      const double read_millis =
          static_cast<double>(ar.disk_reads) * lat / 1000.0;
      const double overlap_eff =
          ar.wall_millis > 0 ? read_millis / ar.wall_millis : 0.0;
      std::printf(
          "async A/B latency=%dus backend=%s: sync=%.1f qps async=%.1f qps "
          "speedup=%.2fx overlap_eff=%.2f sync_p999=%.2fms "
          "async_p999=%.2fms\n",
          lat, actual_backend.c_str(), sr.qps, ar.qps, speedup, overlap_eff,
          sr.p999_millis, ar.p999_millis);
      const std::string prefix = "latency_us_" + std::to_string(lat) + "/";
      writer.Add(prefix + "sync_qps", sr.qps);
      writer.Add(prefix + "async_qps", ar.qps);
      writer.Add(prefix + "async_speedup", speedup);
      writer.Add(prefix + "overlap_efficiency", overlap_eff);
      writer.Add(prefix + "sync_p999_millis", sr.p999_millis);
      writer.Add(prefix + "async_p999_millis", ar.p999_millis);
      writer.Add(prefix + "sync_disk_reads",
                 static_cast<double>(sr.disk_reads));
      writer.Add(prefix + "async_disk_reads",
                 static_cast<double>(ar.disk_reads));
      writer.Add(prefix + "async_inflight_hwm",
                 static_cast<double>(ar.async_inflight_hwm));
      if (lat == opts.read_latency_us) {
        // The headline gate: single-thread async speedup and p999
        // ratio at the default (150us) latency.
        writer.Add("async_speedup_1t", speedup);
        writer.Add("async_p999_ratio", sr.p999_millis > 0
                                           ? ar.p999_millis / sr.p999_millis
                                           : 0.0);
      }
    }
    writer.Add("async_backend", actual_backend);
    // Restore the default latency for anything after the sweep.
    env->disk().set_simulated_read_latency_micros(
        static_cast<uint32_t>(opts.read_latency_us));
  }
  if (!writer.WriteFile(opts.out)) return 1;
  if (total_failed > 0) {
    std::fprintf(stderr, "%lld queries failed\n",
                 static_cast<long long>(total_failed));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dm::bench

int main(int argc, char** argv) { return dm::bench::Main(argc, argv); }
