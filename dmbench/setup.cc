// Terrain set-up through the public build pipeline, stage by stage.

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "bench.h"
#include "dem/crater.h"
#include "mesh/triangle_mesh.h"
#include "simplify/simplifier.h"

namespace dmbench {

namespace {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(n);
}

}  // namespace

int64_t Terrain::ServedBytes() const {
  if (shards == nullptr) return FileBytes(store_path);
  int64_t total = 0;
  for (int s = 0; s < shards->num_shards(); ++s) {
    for (const auto& rep : shards->shard(s).replicas) {
      total += FileBytes(rep->path + ".db") + FileBytes(rep->path + ".meta");
    }
  }
  return total;
}

double Terrain::RoiArea(double fraction) const {
  const double full = 385.0 * 385.0;
  return std::min(0.5, fraction * std::max(1.0, full / static_cast<double>(points)));
}

dm::Result<std::unique_ptr<Terrain>> BuildTerrain(const Scale& scale,
                                                  const StoreConfig& config,
                                                  const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return dm::Status::IOError("cannot create " + dir);

  auto t = std::make_unique<Terrain>();
  const auto start = Clock::now();

  // Single-threaded ingest: the stages are bit-identical at any thread
  // count, and one thread keeps set-up time steady on a shared machine.
  auto t0 = Clock::now();
  dm::CraterParams cp;
  cp.side = scale.side;
  cp.seed = scale.terrain_seed;
  const dm::TriangleMesh base = dm::TriangulateDem(dm::GenerateCraterDem(cp));
  t->times.dem_s = SecondsSince(t0);
  t->points = base.num_vertices();

  t0 = Clock::now();
  dm::SimplifyOptions so;
  so.threads = 1;
  const dm::SimplifyResult sr = dm::SimplifyMesh(base, so);
  t->times.simplify_s = SecondsSince(t0);

  t0 = Clock::now();
  DM_ASSIGN_OR_RETURN(dm::PmTree tree, dm::PmTree::Build(base, sr));
  t->tree = std::make_unique<dm::PmTree>(std::move(tree));
  t->times.pmtree_s = SecondsSince(t0);

  t->store_path = dir + "/terrain.db";
  DM_ASSIGN_OR_RETURN(t->env, dm::DbEnv::Open(t->store_path, config.db));
  dm::DmBuildTimings bt;
  dm::DmStoreOptions dso;
  dso.codec = dm::DmCodec::kGroup;
  dso.threads = 1;
  dso.timings = &bt;
  DM_ASSIGN_OR_RETURN(
      t->store, dm::DmStore::Build(t->env.get(), base, *t->tree, sr, dso));
  DM_RETURN_NOT_OK(t->env->FlushAll());
  t->times.conn_s = bt.conn_millis / 1e3;
  t->times.str_s = bt.str_millis / 1e3;
  t->times.encode_s = bt.encode_millis / 1e3;
  t->times.append_s = bt.append_millis / 1e3;
  t->times.bulkload_s = bt.bulkload_millis / 1e3;
  t->times.catalog_s = bt.catalog_millis / 1e3;

  if (config.shards) {
    t0 = Clock::now();
    DM_ASSIGN_OR_RETURN(
        t->shards,
        dm::ShardSet::Build(*t->store, dir + "/shard", config.shard_options));
    for (int s = 0; s < t->shards->num_shards(); ++s) {
      for (auto& rep : t->shards->shard(s).replicas) {
        rep->env->disk().set_simulated_read_latency_micros(
            config.shard_read_latency_us);
        DM_RETURN_NOT_OK(rep->env->FlushAll());
        rep->env->ResetStats();
      }
    }
    t->times.shards_s = SecondsSince(t0);
  }
  t->env->ResetStats();
  t->times.total_s = SecondsSince(start);

  // Untimed: the base mesh's edges, kept for the answer check.
  for (const dm::Triangle& tri : base.triangles()) {
    for (int i = 0; i < 3; ++i) {
      const dm::VertexId a = tri[i];
      const dm::VertexId b = tri[(i + 1) % 3];
      t->base_edges.emplace_back(std::min(a, b), std::max(a, b));
    }
  }
  std::sort(t->base_edges.begin(), t->base_edges.end());
  t->base_edges.erase(std::unique(t->base_edges.begin(), t->base_edges.end()),
                      t->base_edges.end());
  return t;
}

}  // namespace dmbench
