//! Pluggable intra-block memory layouts for population fields.
//!
//! The paper's data structure fixes one layout — component-major within a
//! block (`data[block·q·B³ + comp·B³ + cell]`) — because that is what keeps
//! warp accesses coalesced on the GPU. Whether that choice actually wins,
//! and by how much, is the dominant knob for memory-bound LBM throughput
//! (Tomczak & Szafran; Coreixas & Latt), so the reproduction makes the
//! layout a strategy instead of a constant:
//!
//! - [`Layout::BlockSoA`] — the paper's layout and the default: per block,
//!   each component's `B³` cells are contiguous. Warp-contiguous per
//!   component; streaming gathers lower to bulk `memcpy` runs.
//! - [`Layout::CellAoS`] — the `q` components of each cell are contiguous.
//!   The classic CPU layout; on the modeled GPU every warp access strides
//!   by `q` values, so nothing coalesces and the `memcpy` fast path
//!   degenerates to strided scalar copies.
//! - [`Layout::Tiled { width }`] — true AoSoA with the tile width decoupled
//!   from `B³` (paper §IV, Fig. 5–6 argue for exactly this decoupling):
//!   cells are grouped into tiles of `width`, components contiguous per
//!   tile. A warp-sized `width` keeps coalescing while shrinking the reuse
//!   distance between a cell's components.
//!
//! Every layout is a bijection `(comp, cell) → 0..q·B³` within a block;
//! blocks themselves stay contiguous (`block_stride = q·B³`) regardless of
//! layout, because the executor parallelizes over per-block chunks.

/// Intra-block placement strategy of a [`Field`](crate::Field).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Component-major within the block (the paper's layout, default):
    /// `slot = comp·B³ + cell`.
    #[default]
    BlockSoA,
    /// Cell-major within the block: `slot = cell·q + comp`.
    CellAoS,
    /// Tiled AoSoA: cells grouped into tiles of `width`, component-major
    /// within each tile: `slot = (cell/width)·q·width + comp·width +
    /// cell%width`. `width` must divide `B³`.
    Tiled {
        /// Cells per tile (must divide the block's `B³`).
        width: u32,
    },
}

impl Layout {
    /// Stable snake_case label (reports, JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Layout::BlockSoA => "block_soa",
            Layout::CellAoS => "cell_aos",
            Layout::Tiled { .. } => "tiled",
        }
    }

    /// Label with the tile width folded in (e.g. `tiled32`).
    pub fn label(self) -> String {
        match self {
            Layout::Tiled { width } => format!("tiled{width}"),
            other => other.name().to_string(),
        }
    }

    /// Panics unless the layout is valid for a block of `cpb` cells.
    pub fn validate(self, cpb: usize) {
        if let Layout::Tiled { width } = self {
            assert!(width >= 1, "tile width must be at least 1");
            assert!(
                cpb.is_multiple_of(width as usize),
                "tile width {width} must divide the block's B³ = {cpb}"
            );
        }
    }

    /// Length of the longest run of cells that stays contiguous in memory
    /// for a fixed component: `B³` for SoA, the tile width for tiled, 1 for
    /// AoS. This is both what decides whether the streaming `CopyRun`
    /// plans survive as bulk memcpys and the input to the coalescing model
    /// of the byte counters.
    pub fn contiguous_run(self, cpb: usize) -> usize {
        match self {
            Layout::BlockSoA => cpb,
            Layout::CellAoS => 1,
            Layout::Tiled { width } => width as usize,
        }
    }

    /// The intra-block slot resolver for a field with `q` components and
    /// `cpb` cells per block.
    #[inline(always)]
    pub fn slots(self, q: usize, cpb: usize) -> Slots {
        Slots {
            layout: self,
            q,
            cpb,
        }
    }
}

/// Precomputed intra-block slot resolver: maps `(comp, cell)` to the
/// element offset within one block's `q·B³`-element chunk. `Copy`, hoisted
/// once per kernel block so the per-cell dispatch is a single predictable
/// branch.
#[derive(Copy, Clone, Debug)]
pub struct Slots {
    layout: Layout,
    q: usize,
    cpb: usize,
}

impl Slots {
    /// Element offset of `(comp, cell)` within the block chunk.
    #[inline(always)]
    pub fn of(&self, comp: usize, cell: usize) -> usize {
        debug_assert!(comp < self.q && cell < self.cpb);
        match self.layout {
            Layout::BlockSoA => comp * self.cpb + cell,
            Layout::CellAoS => cell * self.q + comp,
            Layout::Tiled { width } => {
                let w = width as usize;
                (cell / w) * (self.q * w) + comp * w + cell % w
            }
        }
    }

    /// Element offset of `(0, cell)`: together with
    /// [`Slots::comp_stride`], `of(comp, cell) == cell_base(cell) + comp ·
    /// comp_stride()` under every layout, so a loop over one cell's
    /// components resolves the layout once per cell instead of per value.
    #[inline(always)]
    pub fn cell_base(&self, cell: usize) -> usize {
        self.of(0, cell)
    }

    /// Element distance between consecutive components of one cell: `B³`
    /// for SoA, 1 for AoS, the tile width for tiled.
    #[inline(always)]
    pub fn comp_stride(&self) -> usize {
        match self.layout {
            Layout::BlockSoA => self.cpb,
            Layout::CellAoS => 1,
            Layout::Tiled { width } => width as usize,
        }
    }

    /// The layout the resolver was built for.
    #[inline(always)]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The canonical walk of one block: `(comp, cell)` ascending, cut into
    /// the longest runs that stay contiguous in storage. Calls
    /// `visit(offset, len)` once per run, with `len` the layout's
    /// [`Layout::contiguous_run`] — whole components for SoA, tiles for
    /// tiled, single values for AoS. Concatenating the runs yields the same
    /// logical sequence under every layout.
    #[inline(always)]
    pub fn canonical_runs(&self, mut visit: impl FnMut(usize, usize)) {
        let run = self.layout.contiguous_run(self.cpb);
        for comp in 0..self.q {
            for start in (0..self.cpb).step_by(run) {
                visit(self.of(comp, start), run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every layout is a bijection `(comp, cell) → 0..q·cpb`.
    #[test]
    fn slots_are_bijections() {
        for layout in [
            Layout::BlockSoA,
            Layout::CellAoS,
            Layout::Tiled { width: 8 },
            Layout::Tiled { width: 64 },
        ] {
            for (q, cpb) in [(1usize, 64usize), (19, 64), (27, 512)] {
                layout.validate(cpb);
                let s = layout.slots(q, cpb);
                let mut seen = vec![false; q * cpb];
                for comp in 0..q {
                    for cell in 0..cpb {
                        let i = s.of(comp, cell);
                        assert!(!seen[i], "{layout:?} q={q} cpb={cpb} slot {i} reused");
                        seen[i] = true;
                    }
                }
                assert!(
                    seen.iter().all(|&b| b),
                    "{layout:?} q={q} cpb={cpb} not onto"
                );
            }
        }
    }

    /// Every layout is affine in the component for a fixed cell.
    #[test]
    fn slots_are_affine_per_cell() {
        for layout in [
            Layout::BlockSoA,
            Layout::CellAoS,
            Layout::Tiled { width: 8 },
        ] {
            let s = layout.slots(19, 64);
            for cell in 0..64 {
                for comp in 0..19 {
                    assert_eq!(s.of(comp, cell), s.cell_base(cell) + comp * s.comp_stride());
                }
            }
        }
    }

    #[test]
    fn soa_matches_paper_formula() {
        let s = Layout::BlockSoA.slots(19, 64);
        assert_eq!(s.of(0, 0), 0);
        assert_eq!(s.of(1, 0), 64);
        assert_eq!(s.of(1, 7), 71);
    }

    #[test]
    fn aos_is_cell_major() {
        let s = Layout::CellAoS.slots(19, 64);
        assert_eq!(s.of(0, 0), 0);
        assert_eq!(s.of(1, 0), 1);
        assert_eq!(s.of(0, 1), 19);
    }

    #[test]
    fn tiled_decouples_width_from_block() {
        let s = Layout::Tiled { width: 4 }.slots(3, 8);
        // Tile 0 holds cells 0..4 of every component, then tile 1.
        assert_eq!(s.of(0, 0), 0);
        assert_eq!(s.of(0, 3), 3);
        assert_eq!(s.of(1, 0), 4);
        assert_eq!(s.of(2, 3), 11);
        assert_eq!(s.of(0, 4), 12); // next tile
        assert_eq!(s.of(2, 7), 23);
    }

    #[test]
    fn contiguous_runs() {
        assert_eq!(Layout::BlockSoA.contiguous_run(512), 512);
        assert_eq!(Layout::CellAoS.contiguous_run(512), 1);
        assert_eq!(Layout::Tiled { width: 32 }.contiguous_run(512), 32);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn tiled_width_must_divide_block() {
        Layout::Tiled { width: 24 }.validate(64);
    }
}
