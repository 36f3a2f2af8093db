// Shared declarations of the dmbench program: terrain set-up, input
// generation, the independent answer check, tracing, and workloads.
#ifndef DMBENCH_BENCH_H_
#define DMBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dm/dm_query.h"
#include "dm/dm_store.h"
#include "dm/node_source.h"
#include "pm/pm_tree.h"
#include "server/query_service.h"
#include "server/shard_router.h"
#include "server/shard_set.h"
#include "storage/db_env.h"

namespace dmbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line settings of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small-scale self-test: every workload on a small terrain, plus the
  /// tampered-result checks.
  bool small = false;
  std::string data_dir;
  std::string trace_dir;
};

/// Terrain scale of a run. The full scale is the crater dataset.
struct Scale {
  int side = 385;
  uint64_t terrain_seed = 4242;
  int setup_reps = 3;
};

// ---------------------------------------------------------------------------
// Set-up: DEM -> TriangulateDem -> SimplifyMesh -> PmTree::Build ->
// DmStore::Build (group codec) [-> ShardSet::Build], each stage timed.
// ---------------------------------------------------------------------------

struct BuildTimes {
  double dem_s = 0, simplify_s = 0, pmtree_s = 0;
  double conn_s = 0, str_s = 0, encode_s = 0, append_s = 0, bulkload_s = 0,
         catalog_s = 0;
  double shards_s = 0, warmup_s = 0;
  double total_s = 0;
};

/// How a workload wants its stores configured.
struct StoreConfig {
  dm::DbOptions db;          // the DM store itself
  bool shards = false;       // also extract a ShardSet
  dm::ShardSetOptions shard_options;
  uint32_t shard_read_latency_us = 0;
};

/// One set-up's products. The PmTree is kept in memory only for the
/// answer check; queries never touch it.
struct Terrain {
  std::unique_ptr<dm::PmTree> tree;
  std::unique_ptr<dm::DbEnv> env;
  std::optional<dm::DmStore> store;
  std::unique_ptr<dm::ShardSet> shards;
  std::string store_path;
  /// Edges of the full-resolution mesh, for the answer check only.
  std::vector<std::pair<dm::VertexId, dm::VertexId>> base_edges;
  int64_t points = 0;
  BuildTimes times;

  /// LOD whose uniform cut keeps `fraction` of the terrain points.
  double Lod(double fraction) const { return tree->LodForCutFraction(fraction); }
  const dm::Rect& bounds() const { return tree->bounds(); }
  /// ROI area fraction for a workload written for the full 385^2
  /// terrain: scaled up on smaller terrains so an ROI keeps enough
  /// points to return a mesh.
  double RoiArea(double fraction) const;
  /// Bytes of every store file the workload serves from.
  int64_t ServedBytes() const;
};

/// Builds a terrain under `dir` (removing what a previous set-up left).
dm::Result<std::unique_ptr<Terrain>> BuildTerrain(const Scale& scale,
                                                  const StoreConfig& config,
                                                  const std::string& dir);

// ---------------------------------------------------------------------------
// Inputs. LODs are resolution fractions of the terrain's LOD ladder.
// ---------------------------------------------------------------------------

/// Square ROI of `area_fraction` of `bounds` centred near (cx, cy),
/// shifted to lie inside the bounds.
dm::Rect RoiAround(const dm::Rect& bounds, double area_fraction, double cx,
                   double cy);

/// Admits a generated candidate into a workload.
using Accept = std::function<bool(const dm::QueryRequest&)>;

/// fig6/fig8 grid of ROI sizes x ladder LODs x query kinds; the seed
/// places the ROIs. `candidates` counts every draw, kept or not.
std::vector<dm::QueryRequest> PaperColdRound(const Terrain& t, uint64_t seed,
                                             bool small, const Accept& accept,
                                             int64_t* candidates);

/// A fixed multi-base query on fig8's steep plane (independent of the
/// seed), whose answer the oracle rejects: see README.md.
dm::QueryRequest MultiBaseCanary(const Terrain& t);

/// Camera session `session`: a closed orbit, so repeated passes see the
/// same cache state at every frame.
std::vector<dm::QueryRequest> FlythroughSession(const Terrain& t, int session,
                                                uint64_t seed, int frames,
                                                const Accept& accept,
                                                int64_t* candidates);

std::vector<dm::QueryRequest> IndependentUsers(const Terrain& t, uint64_t seed,
                                               int count, const Accept& accept,
                                               int64_t* candidates);

const char* KindName(const dm::QueryRequest& q);

// ---------------------------------------------------------------------------
// Answer check: brute force over the in-memory PmTree.
// ---------------------------------------------------------------------------

/// Compact identity of one answer, compared across every execution of
/// the same query.
struct Fingerprint {
  uint64_t hash = 0;
  int64_t vertices = 0;
  int64_t triangles = 0;
  bool operator==(const Fingerprint&) const = default;
};
Fingerprint FingerprintOf(const dm::DmQueryResult& r);

class Oracle {
 public:
  /// `base_edges`: the undirected edges (u < v) of the full-resolution
  /// mesh the tree was built from.
  Oracle(const dm::PmTree& tree,
         const std::vector<std::pair<dm::VertexId, dm::VertexId>>& base_edges);

  /// Empty when `r` answers `q` correctly; otherwise the reason.
  std::string Check(const dm::QueryRequest& q,
                    const dm::DmQueryResult& r) const;

  /// The reference vertex set of `q` (multi-base: the single-base one).
  std::vector<dm::VertexId> Reference(const dm::QueryRequest& q) const;

  /// True when two edges of the cut's quotient mesh (base edges mapped
  /// to their cut ancestors) cross in (x, y): the hierarchy folds there,
  /// so no triangulation of that cut is a terrain mesh.
  bool Folded(const std::vector<dm::VertexId>& cut) const;

 private:
  /// Ids of nodes whose position lies in `roi`, via a uniform grid.
  template <typename Fn>
  void ForEachInRoi(const dm::Rect& roi, const Fn& fn) const;
  std::vector<dm::VertexId> Uniform(const dm::Rect& roi, double e) const;
  /// Position-restricted refinement from the cut at `e_top`.
  template <typename Req>
  std::vector<dm::VertexId> Refine(const dm::Rect& roi, double e_top,
                                   const Req& required) const;
  std::string CheckMultiBase(const std::vector<dm::VertexId>& reference,
                             const std::vector<dm::VertexId>& got) const;

  const dm::PmTree& tree_;
  dm::Rect bounds_;
  int grid_ = 1;
  std::vector<std::vector<dm::VertexId>> cells_;
  // Base-mesh adjacency (CSR over leaf ids).
  std::vector<int64_t> adj_offsets_;
  std::vector<dm::VertexId> adj_;
  // Scratch: cut ancestor of every leaf (-1 when none), reset after use.
  mutable std::vector<dm::VertexId> anc_;
};

/// Mesh properties every answer must have: at least one vertex, every
/// triangle's vertices in the result, no edge in more than two
/// triangles, positions matching the terrain's nodes.
std::string CheckMesh(const dm::PmTree& tree, const dm::DmQueryResult& r);

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written as Chrome trace-event JSON.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t qid = -1;
  uint32_t tid = 0;
  Clock::time_point start;
  Clock::time_point end;
  int64_t arg = 0;  // nodes delivered (fetch) or kind index (query)
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Records a span on the calling thread that is not yet claimed by a
  /// query; the next Claim() on this thread takes it.
  void AddPending(const Span& s);
  /// Moves this thread's pending spans into the trace under `qid`.
  void Claim(int64_t qid);

  /// Sum of claimed span durations by name, in milliseconds, and counts.
  std::map<std::string, std::pair<double, int64_t>> Totals() const;
  dm::Status WriteChromeJson(const std::string& path) const;
  size_t size() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Current thread's small integer id for trace output.
uint32_t ThreadId();

/// Forwarding DmDataSource: every FetchBox passes through unchanged;
/// with a tracer attached it is timed as a "fetch" span.
class TracedSource final : public dm::DmDataSource {
 public:
  explicit TracedSource(dm::DmDataSource* inner) : inner_(inner) {}
  void set_tracer(Tracer* t) { tracer_ = t; }
  /// Traced fetches also count the shards of `shards` each box meets.
  void count_shards(const dm::ShardSet* shards) { shards_ = shards; }
  int64_t shard_fetches() const { return shard_fetches_.load(); }
  void reset_shard_fetches() { shard_fetches_.store(0); }

  dm::Status FetchBox(const dm::Box& box, bool allow_degraded,
                      TimePoint deadline, NodeSink* sink,
                      dm::BoxFetchStats* stats) override;
  dm::IoStats io_stats() const override { return inner_->io_stats(); }
  dm::CostModelInputs cost_inputs() const override {
    return inner_->cost_inputs();
  }

 private:
  dm::DmDataSource* inner_;
  Tracer* tracer_ = nullptr;
  const dm::ShardSet* shards_ = nullptr;
  std::atomic<int64_t> shard_fetches_{0};
};

// ---------------------------------------------------------------------------
// Workloads and their result.
// ---------------------------------------------------------------------------

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> problems;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Fail(const std::string& why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
};

/// Runs one workload at `scale`; fills end-to-end metrics (untraced) or
/// per-layer metrics (traced).
dm::Status RunWorkload(const Args& args, const Scale& scale, RunResult* out);

/// Tampered-result self-test of the answer check; returns problems.
std::vector<std::string> TamperSelfTest(const Args& args, const Scale& scale);

}  // namespace dmbench

#endif  // DMBENCH_BENCH_H_
