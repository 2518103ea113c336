//! The GPU kernels of the grid-refinement algorithm (paper §III–IV), in
//! both the separate (baseline) and fused (optimized) forms.
//!
//! All kernels are *pull*-based gathers over the **post-collision** buffer
//! convention: `src()` holds post-collision populations at the level's
//! current time; streaming writes post-streaming values into `dst`, and
//! collision transforms `dst` in place (or fuses with the gather). The only
//! scatter is the optimized Accumulate, which uses atomic adds into the
//! coarse ghost layer exactly as the paper prescribes (§IV-A).
//!
//! Kernel launches go through the virtual GPU [`Executor`]; each declares
//! its honest per-cell traffic so the device model can price it.

use std::any::Any;
use std::cell::RefCell;

use lbm_gpu::{coalescing_efficiency, AtomicF64Field, Executor, LaunchCost};
use lbm_lattice::{for_each_dir, Collision, Real, VelocitySet, MAX_Q};
use lbm_sparse::{Field, LayoutRuns, Slots, SparseGrid};

use crate::flags::{BlockFlags, CellFlags};
use crate::level::Level;
use crate::links::{decode_ref, BlockLinks, LinkKind, NO_TARGET};

/// Value-size in bytes of the population scalar.
fn value_bytes<T>() -> u64 {
    std::mem::size_of::<T>() as u64
}

/// Coalescing efficiency of warp accesses to `f` under its layout: the
/// layout's contiguous run length fed into the transaction model of
/// [`coalescing_efficiency`]. BlockSoA yields 1.0; AoS / narrow tiles
/// charge their excess as uncoalesced bytes on the device model.
fn layout_coalescing<T: Copy>(f: &Field<T>) -> f64 {
    coalescing_efficiency(
        f.layout().contiguous_run(f.cells_per_block()) as u64,
        value_bytes::<T>(),
    )
}

/// How the streaming-family kernels ([`stream`], [`fused_stream_collide`])
/// gather a block's post-streaming populations.
///
/// Both paths read exactly the same source addresses, so they are
/// bit-identical by construction; `crates/core/tests/fastpath_equivalence.rs`
/// pins that down on frontier blocks (links, missing neighbor slots, ghost
/// and inactive cells) under every layout.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum InteriorPath {
    /// Every block, interior or frontier, replays the level's lowered
    /// [`LayoutRuns`] into a block-local tile (skipping runs whose source
    /// block is missing), overwrites the tile entries of the block's links
    /// with their resolved values, then collides and stores each real cell
    /// from the tile (DESIGN.md §4). The optimized path.
    #[default]
    DirMajor,
    /// Per-cell pull with inline neighbor-block resolution and a link
    /// lookup per cell, on every block: the reference the equivalence
    /// tests run the default path against.
    General,
}

impl InteriorPath {
    /// Stable snake_case label (benchmark reports, JSON output).
    pub fn name(self) -> &'static str {
        match self {
            InteriorPath::DirMajor => "dir_major",
            InteriorPath::General => "general",
        }
    }
}

/// Read-only views of one level needed by the streaming-family kernels.
#[derive(Copy, Clone)]
pub struct StreamInputs<'a, T> {
    /// Level topology.
    pub grid: &'a SparseGrid,
    /// Per-cell flags.
    pub flags: &'a Field<u8>,
    /// Per-block summaries.
    pub block_flags: &'a [BlockFlags],
    /// Per-block link tables.
    pub links: &'a [BlockLinks<T>],
    /// Own-level post-collision populations (gather source).
    pub src: &'a Field<T>,
    /// Own-level ghost accumulators (Coalescence source).
    pub acc: &'a AtomicF64Field,
    /// Next-coarser level's post-collision populations (Explosion source);
    /// `None` on level 0.
    pub coarse_src: Option<&'a Field<T>>,
    /// The coarse level's *previous* post-collision populations (the idle
    /// half of its double buffer). Used by the linear-time-interpolation
    /// extension; `None` disables it.
    pub coarse_prev: Option<&'a Field<T>>,
    /// Temporal extrapolation weight for Explosion reads: the fine substep
    /// at `t + Δt_c/2` uses `(1+b)·f(t) − b·f(t−Δt_c)` with `b = 0.5`;
    /// `b = 0` reproduces the paper's zeroth-order hold.
    pub explosion_blend: f64,
    /// Precomputed per-direction gather plans, lowered to element space for
    /// this level's block size *and* the fields' memory layout (shared per
    /// `(block_size, velocity set, layout)` triple).
    pub runs: &'a LayoutRuns,
    /// Gather path of the streaming-family kernels.
    pub interior_path: InteriorPath,
}

impl<'a, T: Real> StreamInputs<'a, T> {
    /// Builds the view pair for level `l` of a level stack: the level's own
    /// inputs plus the coarser level's populations (zeroth-order hold).
    pub fn for_level(levels: &'a [Level<T>], l: usize) -> Self {
        let level = &levels[l];
        Self {
            grid: &level.grid,
            flags: &level.flags,
            block_flags: &level.block_flags,
            links: &level.links,
            src: level.f.src(),
            acc: &level.acc,
            coarse_src: if l > 0 {
                Some(levels[l - 1].f.src())
            } else {
                None
            },
            coarse_prev: None,
            explosion_blend: 0.0,
            runs: &level.runs,
            interior_path: InteriorPath::default(),
        }
    }
}

/// Where the Accumulate scatter deposits a cell's crossing populations.
///
/// The two arms are the two halves of the determinism strategy (DESIGN.md
/// §10): the serial reference path adds straight into the coarse ghost
/// accumulators; the parallel path stores into a private per-fine-block
/// staging slab whose contents [`accumulate_merge`] later folds into the
/// same accumulators in a fixed order, making the float sum independent of
/// which pool thread ran which block.
#[derive(Copy, Clone)]
pub enum AccSink<'a> {
    /// CUDA-style `atomicAdd` directly into the coarse ghost accumulators.
    /// Deterministic only under single-thread execution (program-order
    /// arrival); this is the serial reference the staged path is pinned
    /// against.
    Atomic(&'a AtomicF64Field),
    /// Plain stores into the fine level's staging slab, addressed by the
    /// block's dense rank (`dense`, from
    /// [`crate::level::AccStage::owners`]). No atomics: every `(block,
    /// dir, cell)` slab slot has exactly one writer.
    Staged {
        /// The fine level's private staging slab.
        slab: &'a AtomicF64Field,
        /// Fine block → dense slab rank ([`lbm_sparse::NO_OWNER`] where
        /// the block does not accumulate).
        dense: &'a [u32],
    },
}

/// Accumulate tables of a (fine) level: the scatter destination plus the
/// per-cell parent targets and crossing-direction masks computed at grid
/// construction.
#[derive(Copy, Clone)]
pub struct AccTables<'a> {
    /// Scatter destination (serial atomic or staged slab).
    pub sink: AccSink<'a>,
    /// Per-block, per-cell encoded parent [`lbm_sparse::CellRef`]s.
    pub targets: &'a [Option<Box<[u64]>>],
    /// Per-block, per-cell crossing-direction bitmasks.
    pub dirs: &'a [Option<Box<[u32]>>],
}

impl AccTables<'_> {
    /// Deposits the crossing populations of one cell (read from `src`, the
    /// pre-streaming post-collision buffer) toward its parent ghost —
    /// directly ([`AccSink::Atomic`]) or via the staging slab
    /// ([`AccSink::Staged`]).
    ///
    /// Timing matters: the populations that cross the interface during a
    /// fine substep are the post-collision values *being streamed*, i.e.
    /// the substep's source buffer — accumulating the freshly collided
    /// output instead would lag the coarse Coalescence by one substep and
    /// break exact interface conservation.
    #[inline(always)]
    pub fn scatter_from<T: Real>(&self, src: &Field<T>, block: u32, cell: u32) {
        let (Some(tt), Some(dd)) = (
            self.targets[block as usize].as_deref(),
            self.dirs[block as usize].as_deref(),
        ) else {
            return;
        };
        let mut mask = dd[cell as usize];
        if mask == 0 {
            return;
        }
        debug_assert_ne!(tt[cell as usize], NO_TARGET);
        match self.sink {
            AccSink::Atomic(acc) => {
                let parent = decode_ref(tt[cell as usize]);
                while mask != 0 {
                    let i = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    acc.add(
                        parent.block,
                        i,
                        parent.cell,
                        src.get(block, i, cell).to_f64(),
                    );
                }
            }
            AccSink::Staged { slab, dense } => {
                let sb = dense[block as usize];
                debug_assert_ne!(
                    sb,
                    lbm_sparse::NO_OWNER,
                    "staged scatter from unmapped block"
                );
                while mask != 0 {
                    let i = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    slab.store(sb, i, cell, src.get(block, i, cell).to_f64());
                }
            }
        }
    }
}

/// Which link families the streaming kernel resolves inline. The families
/// it does *not* handle are left for the separate Explosion / Coalescence
/// kernels of the unfused variants (Fig. 4b/4c).
#[derive(Copy, Clone, Debug)]
pub struct StreamOptions {
    /// Resolve Explosion links inline (fused SE, Fig. 4d).
    pub explosion: bool,
    /// Resolve Coalescence links inline (fused SO, Fig. 4e).
    pub coalesce: bool,
}

impl StreamOptions {
    /// True if the streaming kernel resolves `kind` itself; boundaries
    /// always do.
    #[inline(always)]
    fn handles<T>(self, kind: &LinkKind<T>) -> bool {
        match kind {
            LinkKind::Explosion { .. } => self.explosion,
            LinkKind::Coalesce { .. } => self.coalesce,
            _ => true,
        }
    }
}

/// Longest copy run moved with an element loop instead of a `memcpy`
/// call. B = 4 lowers to runs of 1–4 elements (one-cell spill columns,
/// 4-cell rows, AoS scalars), where the call overhead dominates.
const SHORT_RUN: usize = 8;

/// Per-block gather context: the raw source slice with the field's
/// [`Slots`] resolver and the block's neighbor table hoisted once.
struct BlockGather<'a, T> {
    src_all: &'a [T],
    block_base: usize,
    stride: usize,
    slots: Slots,
    bsz: i32,
    neighbors: &'a [lbm_sparse::BlockIdx; lbm_sparse::grid::NEIGHBOR_SLOTS],
}

impl<'a, T: Real> BlockGather<'a, T> {
    #[inline(always)]
    fn new(grid: &'a SparseGrid, src: &'a Field<T>, b: u32) -> Self {
        let stride = src.block_stride();
        Self {
            src_all: src.as_slice(),
            block_base: b as usize * stride,
            stride,
            slots: src.slots(),
            bsz: grid.block_size() as i32,
            neighbors: &grid.block(b).neighbors,
        }
    }

    /// Pulls direction `i` for the cell at local coords `(lx, ly, lz)`:
    /// reads `src[x − e_i][i]`, following the precomputed neighbor-block
    /// table when the source leaves the block. The grid construction
    /// guarantees the source block exists for every non-linked direction.
    /// Only the [`InteriorPath::General`] reference calls this.
    #[inline(always)]
    fn pull(&self, lx: i32, ly: i32, lz: i32, i: usize, c: [i32; 3]) -> T {
        let b = self.bsz;
        let sx = lx - c[0];
        let sy = ly - c[1];
        let sz = lz - c[2];
        let (ox, wx) = if sx < 0 {
            (-1, sx + b)
        } else if sx >= b {
            (1, sx - b)
        } else {
            (0, sx)
        };
        let (oy, wy) = if sy < 0 {
            (-1, sy + b)
        } else if sy >= b {
            (1, sy - b)
        } else {
            (0, sy)
        };
        let (oz, wz) = if sz < 0 {
            (-1, sz + b)
        } else if sz >= b {
            (1, sz - b)
        } else {
            (0, sz)
        };
        let scell = (wx + b * (wy + b * wz)) as usize;
        let base = if ox == 0 && oy == 0 && oz == 0 {
            self.block_base
        } else {
            let slot = ((ox + 1) + 3 * (oy + 1) + 9 * (oz + 1)) as usize;
            let nb = self.neighbors[slot];
            debug_assert_ne!(nb, lbm_sparse::INVALID_BLOCK, "gather into missing block");
            nb as usize * self.stride
        };
        self.src_all[base + self.slots.of(i, scell)]
    }

    /// Direction-major tile gather: for every direction, executes the
    /// precomputed element-space [`MemRun`](lbm_sparse::MemRun) plans of
    /// the level's layout into `tile` (one block chunk, same layout).
    /// Reads exactly the addresses [`BlockGather::pull`] would read — the
    /// plans are the closed form of its branch chains, lowered through the
    /// same [`Slots`] bijection — with no per-cell branching.
    ///
    /// Runs whose source block is missing are skipped. The plans are an
    /// ordered overwrite sequence, so a skipped fix-up leaves the bulk
    /// shift's stale value in its entries; by grid construction every real
    /// `(cell, dir)` whose source block is missing is a link, so
    /// [`patch_links`] overwrites all of them, and entries of ghost and
    /// inactive cells are never read.
    #[inline(always)]
    #[allow(clippy::manual_memcpy)] // short runs: see SHORT_RUN
    fn gather_tile(&self, runs: &LayoutRuns, q: usize, tile: &mut [T]) {
        debug_assert_eq!(
            runs.layout(),
            self.slots.layout(),
            "plan/field layout mismatch"
        );
        for i in 0..q {
            for e in runs.dir(i) {
                let nb = self.neighbors[e.slot as usize];
                if nb == lbm_sparse::INVALID_BLOCK {
                    continue;
                }
                let src = &self.src_all[nb as usize * self.stride..][..self.stride];
                let (mut d, mut s) = (e.dst_off as usize, e.src_off as usize);
                let (len, stride) = (e.len as usize, e.stride as usize);
                for _ in 0..e.count {
                    if len <= SHORT_RUN {
                        for k in 0..len {
                            tile[d + k] = src[s + k];
                        }
                    } else {
                        tile[d..d + len].copy_from_slice(&src[s..s + len]);
                    }
                    d += stride;
                    s += stride;
                }
            }
        }
    }
}

/// Direction components `e_i` copied into a stack array once per kernel
/// block, so the per-cell loops index a local instead of re-loading through
/// the `V::C` static on every cell.
#[inline(always)]
fn dir_table<V: VelocitySet>() -> [[i32; 3]; MAX_Q] {
    let mut c = [[0i32; 3]; MAX_Q];
    c[..V::Q].copy_from_slice(&V::C[..V::Q]);
    c
}

#[inline(always)]
fn resolve_link<T: Real>(
    kind: &LinkKind<T>,
    inp: &StreamInputs<'_, T>,
    block: u32,
    cell: u32,
    dir: usize,
) -> T {
    let src = inp.src;
    match *kind {
        LinkKind::BounceBack { opp } => src.get(block, opp as usize, cell),
        LinkKind::MovingWall { opp, term } => src.get(block, opp as usize, cell) + term,
        LinkKind::Outflow { weight } => weight,
        LinkKind::Periodic { src: s } => src.get(s.block, dir, s.cell),
        LinkKind::Explosion { src: s } => {
            let now = inp
                .coarse_src
                .expect("explosion link on level 0")
                .get(s.block, dir, s.cell);
            match inp.coarse_prev {
                // Linear-time-interpolation extension: extrapolate the
                // coarse source to the fine substep's time.
                Some(prev) if inp.explosion_blend != 0.0 => {
                    let b = T::from_f64(inp.explosion_blend);
                    now + b * (now - prev.get(s.block, dir, s.cell))
                }
                _ => now,
            }
        }
        LinkKind::Coalesce { src: s, inv_count } => {
            T::from_f64(inp.acc.load(s.block, dir, s.cell)) * inv_count
        }
    }
}

/// Overwrites the tile entry of every link of block `b` with its resolved
/// value. A link family `opts` excludes keeps its current `out` value (the
/// separate Explosion / Coalescence kernel fills it).
#[inline(always)]
fn patch_links<T: Real>(
    inp: &StreamInputs<'_, T>,
    b: u32,
    opts: StreamOptions,
    out: &[T],
    tile: &mut [T],
) {
    let sl = inp.src.slots();
    for set in &inp.links[b as usize].cells {
        for l in &set.links {
            let (i, cell) = (l.dir as usize, set.cell);
            let s = sl.of(i, cell as usize);
            tile[s] = if opts.handles(&l.kind) {
                resolve_link(&l.kind, inp, b, cell, i)
            } else {
                out[s]
            };
        }
    }
}

/// Runs `f` on this thread's reusable gather tile of `len` values. The
/// tile lives per thread and only grows: a pool worker allocates it once
/// and reuses it across blocks, launches and levels (graph mode's per-wave
/// stream threads allocate one each). Its contents carry over from the
/// previous block and are never read before being written (see
/// [`BlockGather::gather_tile`]).
fn with_tile<T: Real, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    thread_local! {
        static TILES: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
    }
    TILES.with_borrow_mut(|tiles| {
        let idx = match tiles.iter().position(|t| t.is::<Vec<T>>()) {
            Some(idx) => idx,
            None => {
                tiles.push(Box::new(Vec::<T>::new()));
                tiles.len() - 1
            }
        };
        let tile = tiles[idx]
            .downcast_mut::<Vec<T>>()
            .expect("tile type checked above");
        if tile.len() < len {
            tile.resize(len, T::ZERO);
        }
        f(&mut tile[..len])
    })
}

/// One block of a streaming-family kernel. Gathers the block's
/// post-streaming populations along `inp.interior_path`, then for each
/// real cell in ascending order: runs the Accumulate scatter if the cell
/// has one, applies `collision` (the fused kernel's; `None` for plain
/// streaming) and stores the populations into `out`. The `out` slots of
/// ghost and inactive cells are never written, and a link family `opts`
/// excludes keeps its current `out` value.
#[inline(always)]
fn stream_block<T: Real, V: VelocitySet>(
    inp: &StreamInputs<'_, T>,
    b: u32,
    out: &mut [T],
    opts: StreamOptions,
    accumulate: Option<AccTables<'_>>,
    collision: Option<impl Fn(&mut [T; MAX_Q])>,
) {
    let bf = inp.block_flags[b as usize];
    if !bf.has(BlockFlags::HAS_REAL) {
        return; // ghost-only block: nothing streams
    }
    let finish = |f: &mut [T; MAX_Q]| {
        if let Some(c) = &collision {
            c(f)
        }
    };
    let g = BlockGather::new(inp.grid, inp.src, b);
    match inp.interior_path {
        InteriorPath::DirMajor => with_tile(out.len(), |tile: &mut [T]| {
            g.gather_tile(inp.runs, V::Q, tile);
            patch_links(inp, b, opts, out, tile);
            if collision.is_none() && bf.has(BlockFlags::ALL_REAL) {
                // Every slot is a real cell: store the tile in one copy.
                scatter_cells(inp, b, accumulate);
                out.copy_from_slice(tile);
                return;
            }
            let (sl, step) = (g.slots, g.slots.comp_stride());
            for_each_real_cell::<T, V>(inp, b, out, accumulate, finish, |cell, _, f| {
                let base = sl.cell_base(cell);
                for (i, v) in f[..V::Q].iter_mut().enumerate() {
                    *v = tile[base + i * step];
                }
            });
        }),
        InteriorPath::General => {
            let cdir = dir_table::<V>();
            let links = &inp.links[b as usize];
            let bsz = g.bsz as usize;
            for_each_real_cell::<T, V>(inp, b, out, accumulate, finish, |cell, out, f| {
                let (lx, ly, lz) = (
                    (cell % bsz) as i32,
                    (cell / bsz % bsz) as i32,
                    (cell / (bsz * bsz)) as i32,
                );
                f[0] = g.src_all[g.block_base + g.slots.of(0, cell)]; // rest
                let set = links.of(cell as u32).map_or(&[][..], |s| &s.links[..]);
                let mut li = 0usize;
                for i in 1..V::Q {
                    f[i] = if li < set.len() && set[li].dir as usize == i {
                        let kind = &set[li].kind;
                        li += 1;
                        if opts.handles(kind) {
                            resolve_link(kind, inp, b, cell as u32, i)
                        } else {
                            out[g.slots.of(i, cell)]
                        }
                    } else {
                        g.pull(lx, ly, lz, i, cdir[i])
                    };
                }
            });
        }
    }
}

/// The Accumulate scatter of every accumulating cell of block `b`, in
/// ascending cell order.
#[inline(always)]
fn scatter_cells<T: Real>(inp: &StreamInputs<'_, T>, b: u32, accumulate: Option<AccTables<'_>>) {
    if let Some(t) = accumulate.filter(|t| t.targets[b as usize].is_some()) {
        let flags = inp.flags.component(b, 0);
        for (cell, &cf) in flags.iter().enumerate() {
            if CellFlags(cf).accumulates() {
                t.scatter_from(inp.src, b, cell as u32);
            }
        }
    }
}

/// The per-real-cell loop of [`stream_block`]: scatter, `gather` the
/// cell's populations (it may read the current `out`), `finish`, store.
#[inline(always)]
fn for_each_real_cell<T: Real, V: VelocitySet>(
    inp: &StreamInputs<'_, T>,
    b: u32,
    out: &mut [T],
    accumulate: Option<AccTables<'_>>,
    finish: impl Fn(&mut [T; MAX_Q]),
    gather: impl Fn(usize, &[T], &mut [T; MAX_Q]),
) {
    let blk = inp.grid.block(b);
    let flags = inp.flags.component(b, 0);
    let tables = accumulate.filter(|t| t.targets[b as usize].is_some());
    let sl = inp.src.slots();
    let step = sl.comp_stride();
    for (cell, &cf) in flags.iter().enumerate() {
        let cf = CellFlags(cf);
        if !cf.is_real() || !blk.active.get(cell) {
            continue;
        }
        if let Some(t) = &tables {
            if cf.accumulates() {
                t.scatter_from(inp.src, b, cell as u32);
            }
        }
        let mut f = [T::ZERO; MAX_Q];
        gather(cell, out, &mut f);
        finish(&mut f);
        let base = sl.cell_base(cell);
        for (i, &v) in f[..V::Q].iter().enumerate() {
            out[base + i * step] = v;
        }
    }
}

/// Streaming kernel (paper "S"): `dst[x][i] = src[x − e_i][i]` with link
/// resolution per [`StreamOptions`]. Ghost cells are skipped. Directions
/// whose links are excluded by the options are left untouched in `dst` (the
/// separate kernel fills them).
#[allow(clippy::too_many_arguments)]
pub fn stream<T: Real, V: VelocitySet>(
    exec: &Executor,
    name: &'static str,
    inp: StreamInputs<'_, T>,
    dst: &mut Field<T>,
    opts: StreamOptions,
    accumulate: Option<AccTables<'_>>,
    real_cells: u64,
) {
    let q = V::Q;
    let cpb = inp.grid.cells_per_block();
    let stride = dst.block_stride();
    // Traffic: q loads (neighbors) + q stores per real cell, discounted by
    // the layout's coalescing efficiency.
    let cost = LaunchCost::cells(real_cells)
        .loads(q as u64)
        .stores(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(cpb)
        .coalescing(layout_coalescing(dst))
        .build();
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        stream_block::<T, V>(&inp, b, out, opts, accumulate, None::<fn(&mut [T; MAX_Q])>);
    });
}

/// Separate Explosion kernel (paper "E", baseline variants): fills the
/// directions skipped by [`stream`] with `opts.explosion == false`.
pub fn explosion<T: Real, V: VelocitySet>(
    exec: &Executor,
    name: &'static str,
    inp: StreamInputs<'_, T>,
    dst: &mut Field<T>,
    interface_cells: u64,
) {
    let q = V::Q;
    let cpb = inp.grid.cells_per_block();
    let stride = dst.block_stride();
    assert!(
        inp.coarse_src.is_some(),
        "explosion kernel launched on level 0"
    );
    // Traffic: touching only interface links, but the launch still scans
    // block metadata — the paper's point about unfused kernels.
    let cost = LaunchCost::cells(interface_cells)
        .loads(q as u64)
        .stores(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(cpb)
        .coalescing(layout_coalescing(dst))
        .build();
    let sl = dst.slots();
    // Unlike stream/fused_stream_collide there is no `V::C` table to hoist
    // here: the kernel walks precomputed link sets and never consults
    // direction components.
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        let links = &inp.links[b as usize];
        for set in &links.cells {
            for l in &set.links {
                if matches!(l.kind, LinkKind::Explosion { .. }) {
                    out[sl.of(l.dir as usize, set.cell as usize)] =
                        resolve_link(&l.kind, &inp, b, set.cell, l.dir as usize);
                }
            }
        }
    });
}

/// Separate Coalescence kernel (paper "O", baseline variants): fills the
/// directions skipped by [`stream`] with `opts.coalesce == false` from the
/// ghost accumulators.
pub fn coalesce<T: Real, V: VelocitySet>(
    exec: &Executor,
    name: &'static str,
    inp: StreamInputs<'_, T>,
    dst: &mut Field<T>,
    interface_cells: u64,
) {
    let q = V::Q;
    let cpb = inp.grid.cells_per_block();
    let stride = dst.block_stride();
    let cost = LaunchCost::cells(interface_cells)
        .loads(q as u64)
        .stores(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(cpb)
        .coalescing(layout_coalescing(dst))
        .build();
    let sl = dst.slots();
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        let links = &inp.links[b as usize];
        for set in &links.cells {
            for l in &set.links {
                if let LinkKind::Coalesce { src, inv_count } = l.kind {
                    out[sl.of(l.dir as usize, set.cell as usize)] =
                        T::from_f64(inp.acc.load(src.block, l.dir as usize, src.cell)) * inv_count;
                }
            }
        }
    });
}

/// Collision kernel (paper "C"): in-place BGK/KBC on the post-streaming
/// buffer. With `accumulate` set, fuses the optimized Accumulate step
/// (Fig. 4c): interface cells atomically add their fresh post-collision
/// populations into the parent coarse ghost cell straight from registers.
#[allow(clippy::too_many_arguments)]
pub fn collide<T: Real, V: VelocitySet, C: Collision<T, V>>(
    exec: &Executor,
    name: &'static str,
    grid: &SparseGrid,
    flags: &Field<u8>,
    op: &C,
    dst: &mut Field<T>,
    real_cells: u64,
) {
    let q = V::Q;
    let cpb = grid.cells_per_block();
    let stride = dst.block_stride();
    // Traffic: q loads + q stores per real cell.
    let cost = LaunchCost::cells(real_cells)
        .loads(q as u64)
        .stores(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(cpb)
        .coalescing(layout_coalescing(dst))
        .build();
    let (sl, step) = (dst.slots(), dst.slots().comp_stride());
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        let blk = grid.block(b);
        for cell in blk.active.iter_set() {
            let cf = CellFlags(flags.get(b, 0, cell as u32));
            if !cf.is_real() {
                continue;
            }
            let base = sl.cell_base(cell);
            let mut f = [T::ZERO; MAX_Q];
            for_each_dir::<V>(|i| f[i] = out[base + i * step]);
            op.collide(&mut f);
            for_each_dir::<V>(|i| out[base + i * step] = f[i]);
        }
    });
}

/// Standalone scatter Accumulate (paper "A", optimized but unfused form):
/// adds post-collision populations of interface fine cells into the parent
/// coarse ghost accumulators with atomics.
pub fn accumulate_scatter<T: Real, V: VelocitySet>(
    exec: &Executor,
    name: &'static str,
    grid: &SparseGrid,
    flags: &Field<u8>,
    tables: AccTables<'_>,
    src: &Field<T>,
    interface_cells: u64,
) {
    let q = V::Q;
    let cost = LaunchCost::cells(interface_cells)
        .loads(q as u64)
        .atomics(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(grid.cells_per_block())
        .coalescing(layout_coalescing(src))
        .build();
    exec.launch(name, grid.num_blocks(), cost, |b| {
        if tables.targets[b as usize].is_none() {
            return;
        }
        let blk = grid.block(b);
        for cell in blk.active.iter_set() {
            let cell = cell as u32;
            if !CellFlags(flags.get(b, 0, cell)).accumulates() {
                continue;
            }
            tables.scatter_from(src, b, cell);
        }
    });
}

/// Staged-Accumulate merge (label "M", the second half of the
/// deterministic parallel Accumulate; DESIGN.md §10): folds the fine
/// level's staging slab into the coarse ghost accumulators. One launch item
/// owns one coarse block, so parallel items never share a destination; per
/// slot the contributions are added in the plan's fixed serial order, so
/// the resulting float sums are bit-identical to the serial atomic scatter
/// for every thread count.
///
/// Reads **only** slots the staged scatter wrote this substep (the plan's
/// predicate equals the scatter's), so no slab reset is needed between
/// substeps — each deposit overwrites the previous one in place.
pub fn accumulate_merge(
    exec: &Executor,
    name: &'static str,
    stage: &crate::level::AccStage,
    acc: &AtomicF64Field,
) {
    let slots = stage.slots.len() as u64;
    let contribs = stage.contrib.len() as u64;
    // Traffic: per destination slot, one accumulator load + store, plus one
    // slab load per contribution. No lattice cells processed (the scatter
    // already counted them) and no atomics — that is the point.
    let cost = LaunchCost {
        cells: 0,
        bytes_read: (slots + contribs) * 8,
        bytes_written: slots * 8,
        ..LaunchCost::default()
    };
    exec.launch(name, stage.blocks.len(), cost, |b| {
        let bp = &stage.blocks[b as usize];
        for s in &stage.slots[bp.slots.0 as usize..bp.slots.1 as usize] {
            let mut v = acc.load(bp.coarse_block, s.dir as usize, s.cell);
            for &ci in &stage.contrib[s.start as usize..(s.start + s.len) as usize] {
                v += stage.slab.load_flat(ci as usize);
            }
            acc.store(bp.coarse_block, s.dir as usize, s.cell, v);
        }
    });
}

/// Gather Accumulate (paper "A" of the *modified baseline*, Fig. 4b /
/// §VI-B: "the Accumulate communication is initiated from the coarse
/// level"): each coarse ghost cell reads its 2³ fine children and adds them
/// into its accumulator — no atomics needed.
pub fn accumulate_gather<T: Real, V: VelocitySet>(
    exec: &Executor,
    name: &'static str,
    coarse_grid: &SparseGrid,
    gather: &[Vec<crate::level::GatherEntry>],
    own_acc: &AtomicF64Field,
    fine_src: &Field<T>,
    ghost_cells: u64,
) {
    let q = V::Q;
    // 8 child loads per ghost per component + 1 store.
    let cost = LaunchCost::cells(ghost_cells)
        .loads(8 * q as u64)
        .stores(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(coarse_grid.cells_per_block())
        .coalescing(layout_coalescing(fine_src))
        .build();
    exec.launch(name, coarse_grid.num_blocks(), cost, |b| {
        for e in &gather[b as usize] {
            for i in 0..q {
                let mut sum = 0.0;
                let mut any = false;
                for (k, &enc) in e.children.iter().enumerate() {
                    if (e.masks[k] >> i) & 1 == 1 {
                        let child = decode_ref(enc);
                        sum += fine_src.get(child.block, i, child.cell).to_f64();
                        any = true;
                    }
                }
                if any {
                    let cur = own_acc.load(b, i, e.ghost_cell);
                    own_acc.store(b, i, e.ghost_cell, cur + sum);
                }
            }
        }
    });
}

/// The fully fused kernel of Fig. 4f ("CASE"): streaming gather (with
/// Explosion and Coalescence inline), collision, and Accumulate, in one
/// pass with populations held in registers throughout.
#[allow(clippy::too_many_arguments)]
pub fn fused_stream_collide<T: Real, V: VelocitySet, C: Collision<T, V>>(
    exec: &Executor,
    name: &'static str,
    inp: StreamInputs<'_, T>,
    op: &C,
    dst: &mut Field<T>,
    accumulate: Option<AccTables<'_>>,
    real_cells: u64,
) {
    let q = V::Q;
    let cpb = inp.grid.cells_per_block();
    let stride = dst.block_stride();
    let cost = LaunchCost::cells(real_cells)
        .loads(q as u64)
        .stores(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(cpb)
        .coalescing(layout_coalescing(dst))
        .build();
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        // Every link family resolves inline (Fig. 4f).
        let opts = StreamOptions {
            explosion: true,
            coalesce: true,
        };
        let collision = |f: &mut [T; MAX_Q]| op.collide(f);
        stream_block::<T, V>(&inp, b, out, opts, accumulate, Some(collision));
    });
}

/// Resets the ghost accumulators of a level after Coalescence consumed them
/// (paper §IV-A: "when the coarse cell performs its Coalescence step, it
/// will reset the ghost layer allowing subsequent Accumulate steps to be
/// done correctly"). Only ghost slots (via the gather lists) are touched.
pub fn reset_accumulators(
    exec: &Executor,
    name: &'static str,
    coarse_grid: &SparseGrid,
    gather: &[Vec<crate::level::GatherEntry>],
    acc: &AtomicF64Field,
    ghost_cells: u64,
    q: usize,
) {
    let cost = LaunchCost::cells(ghost_cells)
        .stores(q as u64)
        .thread_block(coarse_grid.cells_per_block())
        .build();
    exec.launch(name, coarse_grid.num_blocks(), cost, |b| {
        for e in &gather[b as usize] {
            for i in 0..q {
                acc.store(b, i, e.ghost_cell, 0.0);
            }
        }
    });
}
