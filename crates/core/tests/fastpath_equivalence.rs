//! Gather-path equivalence: the default tile gather (lowered offset runs
//! into a block-local tile plus a sparse link patch) must produce
//! **bit-identical** population fields to the per-cell pull reference
//! ([`InteriorPath::General`]) on every block — interior and frontier.
//!
//! Both paths read exactly the same source addresses, so equality here is
//! exact `to_bits` equality of *both* halves of every level's double
//! buffer, not tolerance-based: a path that wrote a ghost or inactive
//! cell's slot, or dropped a link the split kernels leave for their
//! separate Explosion / Coalescence launch, shows up in the idle half.
//! Engines run on the sequential executor so the atomic Accumulate order —
//! the one source of legitimate f64 nondeterminism — is fixed across runs.
//!
//! Every case asserts that it exercises what the tile path has to get
//! right: blocks with links and blocks with missing neighbor slots (whose
//! runs the gather skips), plus ghost and inactive cells where the grid
//! has them.

use lbm_core::{AllWalls, Engine, GridSpec, InteriorPath, MultiGrid, Variant};
use lbm_gpu::{DeviceModel, Executor};
use lbm_lattice::{Bgk, Collision, VelocitySet, D3Q19, D3Q27};
use lbm_problems::cavity::{Cavity, CavityConfig};
use lbm_problems::sphere::{SphereConfig, SphereFlow};
use lbm_sparse::{Box3, Layout};
use proptest::prelude::*;

const LAYOUTS: [Layout; 3] = [
    Layout::BlockSoA,
    Layout::CellAoS,
    Layout::Tiled { width: 32 },
];

/// Fused (every link resolved in one kernel) and split (plain streaming
/// leaves Explosion and Coalescence links for their own kernels).
const FUSED_AND_SPLIT: [Variant; 2] = [Variant::FullyFused, Variant::ModifiedBaseline];

/// What a case's grid contains, summed over its levels.
#[derive(Debug, Default)]
struct Census {
    blocks_with_links: usize,
    blocks_missing_slots: usize,
    ghost_cells: usize,
    blocks_with_inactive_cells: usize,
}

fn census<V: VelocitySet>(grid: &MultiGrid<f64, V>) -> Census {
    let mut c = Census::default();
    for lv in &grid.levels {
        c.ghost_cells += lv.ghost_cells;
        for (b, blk) in lv.grid.blocks().iter().enumerate() {
            c.blocks_with_links += usize::from(!lv.links[b].cells.is_empty());
            c.blocks_missing_slots += usize::from(!lv.offsets.stencil_complete(&blk.neighbors));
            c.blocks_with_inactive_cells += usize::from(!blk.active.all());
        }
    }
    c
}

/// Kicks every slot of both buffer halves off its value with a
/// deterministic multiplicative perturbation (a different stream per
/// half), so streaming moves asymmetric data in every direction and a
/// stray write into a slot no kernel may touch changes its bits. The walk
/// is in canonical `(block, direction, cell)` order through the accessor
/// API, so the seeded logical state is identical across layouts.
fn perturb<V: VelocitySet>(grid: &mut MultiGrid<f64, V>) {
    for level in &mut grid.levels {
        let blocks = level.grid.num_blocks() as u32;
        for h in 0..2 {
            let f = level.f.half_mut(h);
            let cpb = f.cells_per_block() as u32;
            let mut state = 0x9E3779B97F4A7C15u64 ^ h as u64;
            for blk in 0..blocks {
                for i in 0..V::Q {
                    for cell in 0..cpb {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let jitter = (state >> 40) as f64 / (1u64 << 24) as f64; // [0, 1)
                        let v = f.get(blk, i, cell);
                        f.set(blk, i, cell, v * (1.0 + 1e-3 * (jitter - 0.5)));
                    }
                }
            }
        }
    }
}

/// Runs `steps` coarse steps under the default path and under the
/// `General` reference for every variant in `variants` × every layout, and
/// requires both halves of every level's buffer to match bit for bit.
/// `make` builds a perturbed engine for `(variant, path, layout)`.
fn assert_tile_matches_general<V, C>(
    label: &str,
    variants: &[Variant],
    steps: usize,
    make: impl Fn(Variant, InteriorPath, Layout) -> Engine<f64, V, C>,
) -> Result<(), String>
where
    V: VelocitySet,
    C: Collision<f64, V>,
{
    for &variant in variants {
        for layout in LAYOUTS {
            let mut tile = make(variant, InteriorPath::DirMajor, layout);
            let mut general = make(variant, InteriorPath::General, layout);
            tile.run(steps);
            general.run(steps);
            for (l, (lt, lg)) in tile
                .grid
                .levels
                .iter()
                .zip(&general.grid.levels)
                .enumerate()
            {
                for h in 0..2 {
                    let (a, b) = (lt.f.half(h).as_slice(), lg.f.half(h).as_slice());
                    if let Some(k) = a
                        .iter()
                        .zip(b)
                        .position(|(x, y)| x.to_bits() != y.to_bits())
                    {
                        return Err(format!(
                            "{label}: {variant:?} {layout:?} diverges from General at level \
                             {l} half {h} slot {k}: {:e} vs {:e}",
                            a[k], b[k]
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// A randomized 2-level refinement case: nested box geometry inside an
/// all-walls box, block size, fusion variant, and initial-condition
/// parameters.
#[derive(Clone, Debug)]
struct Case {
    lo: [i32; 3],
    hi: [i32; 3],
    block_size: usize,
    fused: bool,
    omega0: f64,
    u: [f64; 3],
    steps: usize,
}

/// Geometry: the coarse level spans 5 blocks per axis (the finest domain
/// is `10·B` per axis) and the refined box is ≥ `3B/2` coarse cells per
/// axis, so the fine region spans ≥ 3 fine blocks. The walled outer shell
/// supplies bounce-back links and missing neighbor slots; the refinement
/// interface supplies Explosion / Coalescence links and ghost cells.
fn random_case() -> impl Strategy<Value = Case> {
    let corner = (2..5i32, 2..5i32, 2..5i32);
    let size = (0..4i32, 0..4i32, 0..4i32);
    (
        corner,
        size,
        any::<bool>(),
        any::<bool>(),
        0.6f64..1.8,
        (-0.03f64..0.03, -0.03f64..0.03),
        1..3usize,
    )
        .prop_map(
            |((x, y, z), (sx, sy, sz), big_blocks, fused, omega0, (ux, uy), steps)| {
                let b: i32 = if big_blocks { 8 } else { 4 };
                let min_size = 3 * b / 2;
                let max_hi = 3 * b - 1;
                let clamp = |lo: i32, s: i32| (lo + min_size + s).min(max_hi);
                Case {
                    lo: [x, y, z],
                    hi: [clamp(x, sx), clamp(y, sy), clamp(z, sz)],
                    block_size: b as usize,
                    fused,
                    omega0,
                    u: [ux, uy, 0.01],
                    steps,
                }
            },
        )
}

fn boxed_grid<V: VelocitySet>(c: &Case) -> MultiGrid<f64, V> {
    let (lo, hi) = (c.lo, c.hi);
    let d = 10 * c.block_size;
    let spec = GridSpec::new(2, Box3::from_dims(d, d, d), move |l, p| {
        l == 0
            && (lo[0]..hi[0]).contains(&p.x)
            && (lo[1]..hi[1]).contains(&p.y)
            && (lo[2]..hi[2]).contains(&p.z)
    })
    .with_block_size(c.block_size);
    MultiGrid::<f64, V>::build(spec, &AllWalls, c.omega0)
}

fn check_boxed<V: VelocitySet>(c: &Case) -> Result<(), String> {
    let seen = census(&boxed_grid::<V>(c));
    if seen.blocks_with_links == 0 || seen.blocks_missing_slots == 0 || seen.ghost_cells == 0 {
        return Err(format!("case exercises no frontier blocks: {seen:?} {c:?}"));
    }
    let variant = if c.fused {
        Variant::FullyFused
    } else {
        Variant::ModifiedBaseline
    };
    assert_tile_matches_general(&format!("{c:?}"), &[variant], c.steps, |v, p, l| {
        let mut eng = Engine::builder(boxed_grid::<V>(c))
            .collision(Bgk::new(c.omega0))
            .variant(v)
            .interior_path(p)
            .layout(l)
            .build(Executor::sequential(DeviceModel::a100_40gb()));
        let u = c.u;
        eng.grid.init_equilibrium(|_, _| 1.0, move |_, _| u);
        perturb(&mut eng.grid);
        eng
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized geometries, block sizes and variants: the tile gather
    /// agrees with the per-cell pull bitwise through multi-step refined
    /// runs, under every layout (D3Q19).
    #[test]
    fn tile_gather_bit_identical_random_boxes(c in random_case()) {
        if let Err(e) = check_boxed::<D3Q19>(&c) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// The full 27-direction stencil (corner directions lower to 8 runs each),
/// both block sizes, fused and split.
#[test]
fn tile_gather_bit_identical_boxes_d3q27() {
    for (block_size, fused) in [(4usize, true), (4, false), (8, true)] {
        let c = Case {
            lo: [2, 3, 2],
            hi: [10, 11, 9],
            block_size,
            fused,
            omega0: 1.3,
            u: [0.02, -0.01, 0.01],
            steps: 2,
        };
        check_boxed::<D3Q27>(&c).unwrap();
    }
}

/// A small 3-level quasi-2D lid-driven cavity: periodic z (every block's
/// z-neighbor slots wrap through periodic links, none is stencil-complete)
/// and a moving-wall lid, BGK D3Q19 — the shape of the `cavity3-*`
/// benchmark grids. Every fusion variant, so plain streaming sees each
/// combination of excluded Explosion / Coalescence links.
#[test]
fn tile_gather_bit_identical_periodic_cavity() {
    let cavity = Cavity::new(CavityConfig {
        n_finest: 32,
        levels: 3,
        quasi_2d: true,
        depth: 8,
        ..CavityConfig::default()
    });
    let make = |v: Variant, p: InteriorPath, l: Layout| {
        let mut eng = cavity.engine_with(v, Executor::sequential(DeviceModel::a100_40gb()), |b| {
            b.interior_path(p).layout(l)
        });
        eng.grid.init_equilibrium(
            |_, _| 1.0,
            |_, p| {
                [
                    0.03 * (p.y as f64 * 0.4).sin(),
                    0.02 * (p.x as f64 * 0.3).cos(),
                    0.01,
                ]
            },
        );
        perturb(&mut eng.grid);
        eng
    };
    let seen = census(&make(Variant::FusedAll, InteriorPath::DirMajor, Layout::BlockSoA).grid);
    assert!(
        seen.blocks_with_links > 0 && seen.blocks_missing_slots > 0 && seen.ghost_cells > 0,
        "cavity exercises no frontier blocks: {seen:?}"
    );
    assert_tile_matches_general("periodic cavity", &Variant::ALL, 2, make).unwrap();
}

/// A small sphere in the wind tunnel: velocity inlet (moving-wall links),
/// lattice-weight outflow, bounce-back side walls and sphere surface, KBC
/// D3Q27, three levels. The carved sphere and the refinement interfaces
/// leave blocks with inactive cells and ghost cells.
#[test]
fn tile_gather_bit_identical_tunnel_kbc() {
    let flow = SphereFlow::new(SphereConfig::for_size([40, 32, 32]));
    let make = |v: Variant, p: InteriorPath, l: Layout| {
        let mut eng = flow.engine_with(v, Executor::sequential(DeviceModel::a100_40gb()), |b| {
            b.interior_path(p).layout(l)
        });
        perturb(&mut eng.grid);
        eng
    };
    let seen = census(&make(Variant::FusedAll, InteriorPath::DirMajor, Layout::BlockSoA).grid);
    assert!(
        seen.blocks_with_links > 0
            && seen.blocks_missing_slots > 0
            && seen.ghost_cells > 0
            && seen.blocks_with_inactive_cells > 0,
        "tunnel exercises no frontier blocks: {seen:?}"
    );
    assert_tile_matches_general("kbc tunnel", &FUSED_AND_SPLIT, 2, make).unwrap();
}

/// Uniform (single-level) walled box: pure streaming with no interface
/// kernels, interior blocks next to a bounce-back shell, fused and split.
#[test]
fn tile_gather_bit_identical_uniform() {
    assert_tile_matches_general("uniform", &FUSED_AND_SPLIT, 3, |v, p, l| {
        let spec = GridSpec::uniform(Box3::from_dims(32, 32, 32)).with_block_size(8);
        let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.5);
        let mut eng = Engine::builder(grid)
            .collision(Bgk::new(1.5))
            .variant(v)
            .interior_path(p)
            .layout(l)
            .build(Executor::sequential(DeviceModel::a100_40gb()));
        eng.grid.init_equilibrium(
            |_, _| 1.0,
            |_, p| [0.02 * (p.x as f64 * 0.3).sin(), 0.01, 0.0],
        );
        perturb(&mut eng.grid);
        eng
    })
    .unwrap();
}
