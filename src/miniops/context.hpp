// context.hpp — the miniops execution engine.
//
// A Context owns a rank's view of the mesh: block declarations, dats
// (decomposed when an MPI communicator is supplied), the par_loop executor
// for its mode (sequential / pooled / distributed / tiled / device), dirty-
// bit halo maintenance, and reduction plumbing.
//
// One Context per rank; pure shared-memory modes use a single Context.  All
// par_loop calls must be issued in the same order on every rank (SPMD), as
// with real OPS over MPI.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "minimpi/cart.hpp"
#include "minimpi/comm.hpp"
#include "miniops/args.hpp"
#include "miniops/dat.hpp"
#include "miniops/range.hpp"
#include "simgpu/device.hpp"
#include "threading/thread_pool.hpp"

namespace ops {

/// Cache-blocking tiling knobs (the OPS `MPI Tiled` feature, ref. [21]).
struct TileConfig {
  // Rows per tile; 0 = size tiles so a chain's working set fits cache_bytes.
  int tile_rows = 0;
  // Last-level cache the tiles should fit in.
  std::size_t cache_bytes = std::size_t(30) * 1024 * 1024;
  // Queue at most this many loops before force-flushing.
  int max_chain = 64;
};

struct ContextOptions {
  // Host threading: if use_pool, rows are work-shared on `pool` (the global
  // pool when null).
  bool use_pool = false;
  tlp::ThreadPool* pool = nullptr;
  // Distribution: non-null comm => block decomposition over its ranks.
  minimpi::Comm* comm = nullptr;
  // Lazy-execution cache-blocking tiling.
  bool tiled = false;
  TileConfig tile;
  // Device execution: non-null => CUDA-style offload of every par_loop.
  simgpu::Device* device = nullptr;
};

/// Type-erased loop record: what the templated par_loop front-end hands the
/// engine.  Ranges inside are *local* coordinates by the time the engine
/// stores them.
struct LoopRecord {
  std::string name;
  Range local_range;  // already clipped to this rank
  int flops_per_cell = 0;

  struct DatUse {
    Dat* dat;
    AccessMode mode;
    int ylo, yhi;  // stencil y-extents (inclusive)
    int xlo, xhi;
  };
  std::vector<DatUse> dats;
  /// The loop's global-reduction arguments; the engine sizes each for the
  /// chunks it runs the loop in.
  std::vector<GblScratch*> reductions;
  /// Queued halo-maintenance record (reflection): clears rather than sets
  /// the halo dirty bit, and bypasses the stencil-hazard check.
  bool is_halo_update = false;
  /// Traffic accounting override: total cells this loop really touches when
  /// its range is much larger than its footprint (halo records).  -1 = use
  /// local_range.cells().
  std::int64_t traffic_cells_override = -1;

  /// Execute rows [y0,y1) x columns [x0,x1) (local coords) as chunk `chunk`
  /// of the loop, on host memory or, in a device context, on device memory.
  std::function<void(long chunk, int x0, int x1, int y0, int y1)> exec;
};

class Context {
public:
  explicit Context(ContextOptions options = {});
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- declarations -----------------------------------------------------------

  Block& decl_block(const std::string& name, int nx, int ny);
  Dat& decl_dat(Block& block, const std::string& name, int halo_depth);

  // --- engine (called by the par_loop front-end) -----------------------------

  /// Queue or run a loop.  Loops with reductions and device loops are always
  /// eager; in tiled mode other loops are queued for chained execution.
  void execute(LoopRecord&& loop);

  /// Combine a locally-reduced value across ranks (identity op without MPI).
  double finish_reduction(double local, ReduceOp op);

  // --- halo management --------------------------------------------------------

  /// TeaLeaf-style halo update: exchange internal edges with neighbouring
  /// ranks, then apply reflective physical boundaries, to `depth` layers.
  void update_halo(const std::vector<Dat*>& dats, int depth);

  /// Flush any queued (tiled) loops.
  void flush();

  /// Download a device-resident dat back to host memory (no-op otherwise).
  void fetch_to_host(Dat& dat);

  // --- introspection -----------------------------------------------------------

  bool is_device() const { return options_.device != nullptr; }
  bool is_distributed() const { return options_.comm != nullptr; }
  bool is_tiled() const { return options_.tiled; }
  minimpi::Comm* comm() const { return options_.comm; }
  const minimpi::Cart2D* cart() const { return cart_.get(); }
  tlp::ThreadPool* pool() const;
  simgpu::Device* device() const { return options_.device; }
  const TileConfig& tile_config() const { return options_.tile; }

  /// Local interior offset/extent of this rank's partition of `block`.
  struct Partition {
    int x0, y0, nx, ny;
  };
  Partition partition_of(const Block& block) const;

  /// Clip a global range to what this rank executes (owned cells, plus
  /// physical-boundary halo when the range reaches outside the global
  /// interior), translated to local coordinates of `dat`'s partition.
  Range clip_to_local(const Range& global, const Dat& dat) const;

  long loops_executed() const { return loops_executed_; }
  long flushes() const { return flushes_; }

private:
  void run_host_loop(const LoopRecord& loop);
  void run_device_loop(LoopRecord& loop);
  void prepare_reads(const LoopRecord& loop);
  /// True when halo maintenance can join the lazy queue: tiled host context
  /// whose halos are pure reflections (no other rank to exchange with).
  bool halo_updates_queueable() const;
  void enqueue_reflection(Dat& dat, int depth);
  void mark_after_execution(const LoopRecord& loop);
  void charge_loop_traffic(const LoopRecord& loop);
  void exchange_internal(Dat& dat, int depth);
  void reflect_physical(Dat& dat, int depth);
  void reflect_physical_device(Dat& dat, int depth);
  void ensure_on_device(Dat& dat);
  bool counts_globally() const;  // rank 0 (or no comm): owns global counters

  ContextOptions options_;
  std::unique_ptr<minimpi::Cart2D> cart_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<std::unique_ptr<Dat>> dats_;

  std::deque<LoopRecord> queue_;
  long loops_executed_ = 0;
  long flushes_ = 0;
};

}  // namespace ops
