#ifndef DIRECTMESH_DM_REPACK_H_
#define DIRECTMESH_DM_REPACK_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dm/dm_store.h"
#include "storage/db_env.h"

namespace dm {

/// Options of one RepackDmStore run.
struct RepackOptions {
  /// Worker threads for the placement sort (<= 0 means one per
  /// hardware core). The repacked file is byte-identical at any thread
  /// count: the placement key is a total order and ParallelStableSort
  /// is bit-equal to std::stable_sort, while page allocation stays
  /// sequential.
  int threads = 1;
  /// Hilbert tile-grid level: the footprint is cut into 4^level tiles
  /// (level 0 = one tile, i.e. a pure coarse-first layout). Negative =
  /// auto: sized so a typical cut spans several heap pages per tile.
  /// Finer tiles sharpen ROI selectivity at the cost of splitting each
  /// cut into more (shorter) page runs.
  int tile_level = -1;
};

/// Summary of what a repack did, for tools and tests.
struct RepackReport {
  int64_t num_nodes = 0;
  int tile_level = 0;
  uint32_t leaf_capacity = 0;
};

/// Rewrites the DM store `src` into the (fresh, empty) environment
/// `dst_env` with a cut-locality placement policy, and returns the
/// reopened repacked store.
///
/// Placement: records are ordered by (Hilbert tile of (x, y),
/// e_high desc, full Hilbert key, source order) — tile-major, coarse
/// first within the tile. A uniform cut at LOD e is {e_low <= e <
/// e_high}; in e_high-descending order it sits directly after the
/// tile's strictly-coarser ancestors ({e_low > e}), so per ROI tile
/// every cut is one near-contiguous page run, and refinement (lowering
/// e) extends that run to higher page ids, so the refined fetch
/// coalesces into longer sequential runs. View-dependent cubes
/// [e_min, e_max] fetch the same prefix as the cut at e_min.
///
/// Invariants preserved (and re-checked by `dmctl verify`):
///  - record bytes are carried verbatim — DmNode links are VertexIds,
///    not RecordIds, so nothing inside a record needs rewriting;
///  - the R*-tree is rebuilt from scratch over the new RecordIds with
///    exactly the segment geometry DmStore::Build uses, so every index
///    entry still names its record and heap pages still align with
///    R*-tree leaves;
///  - the catalog (DmMeta) is copied with `repacked` set; query
///    results are byte-identical to the source store because the query
///    layer canonicalizes rid order before triangulating.
Result<DmStore> RepackDmStore(const DmStore& src, DbEnv* dst_env,
                              const RepackOptions& options = {},
                              RepackReport* report = nullptr);

}  // namespace dm

#endif  // DIRECTMESH_DM_REPACK_H_
