//! The AA-pattern single-buffer uniform LBM (paper ref. [7], Bailey et
//! al. 2009) — the storage scheme behind the paper's §VI-B claim that even
//! the best *uniform*-grid method caps out at ≈794³ on a 40 GB device.
//!
//! The AA pattern halves LBM's memory by streaming in place with one
//! population buffer and two alternating step flavors:
//!
//! - **even step** — every cell reads its own slots in normal orientation,
//!   collides, and stores the results into its own *opposite* slots;
//! - **odd step** — every cell gathers its inputs from the upstream
//!   neighbors' opposite slots (`f[x − e_i][ī]`), collides, and scatters
//!   the results downstream into normal slots (`f[x + e_i][i]`).
//!
//! The key invariant making this race-free is that slot `(x − e_i, ī)` is
//! read and then written by exactly one cell per odd step (`x` itself):
//! gather source and scatter target coincide, so the buffer is updated in
//! place with no conflicts. After an even+odd pair the layout is normal
//! again and the state equals two steps of the conventional two-buffer
//! algorithm — asserted against the main engine in the tests.
//!
//! Scope: fully periodic uniform domains (exactly what the memory-capacity
//! comparison needs); runs sequentially on the host.

// Stencil loops index parallel constant tables throughout.
#![allow(clippy::needless_range_loop)]

use lbm_lattice::{Collision, Real, VelocitySet, MAX_Q};
use lbm_sparse::{Box3, Coord, Field, GridBuilder, Layout, SpaceFillingCurve, SparseGrid};

/// Single-buffer AA-pattern solver on a fully periodic uniform box.
pub struct AaSolver<T, V, C> {
    grid: SparseGrid,
    /// The single population buffer — the entire point of the scheme.
    f: Field<T>,
    op: C,
    dims: [usize; 3],
    steps: u64,
    _lattice: std::marker::PhantomData<V>,
}

impl<T, V, C> AaSolver<T, V, C>
where
    T: Real,
    V: VelocitySet,
    C: Collision<T, V>,
{
    /// Builds the solver over an `nx × ny × nz` periodic box with the
    /// default population layout.
    pub fn new(dims: [usize; 3], block_size: usize, op: C) -> Self {
        Self::with_layout(dims, block_size, op, Layout::default())
    }

    /// Builds the solver with an explicit population [`Layout`]. The AA
    /// pattern is accessor-based, so any layout works; odd steps write the
    /// same slots they read regardless of placement.
    pub fn with_layout(dims: [usize; 3], block_size: usize, op: C, layout: Layout) -> Self {
        let mut gb = GridBuilder::new(block_size);
        gb.activate_box(Box3::from_dims(dims[0], dims[1], dims[2]));
        let grid = gb.build(SpaceFillingCurve::Morton);
        let f = Field::with_layout(&grid, V::Q, T::ZERO, layout);
        Self {
            grid,
            f,
            op,
            dims,
            steps: 0,
            _lattice: std::marker::PhantomData,
        }
    }

    /// The population buffer's memory layout.
    pub fn layout(&self) -> Layout {
        self.f.layout()
    }

    /// Sets every cell to equilibrium (must be called at an even step).
    pub fn init_equilibrium(&mut self, rho: impl Fn(Coord) -> f64, u: impl Fn(Coord) -> [f64; 3]) {
        assert!(self.steps.is_multiple_of(2), "initialize at even parity");
        let refs: Vec<_> = self.grid.iter_active().collect();
        for (r, c) in refs {
            let uv = u(c);
            let mut feq = [T::ZERO; MAX_Q];
            lbm_lattice::equilibrium::<T, V>(
                T::from_f64(rho(c)),
                [T::from_f64(uv[0]), T::from_f64(uv[1]), T::from_f64(uv[2])],
                &mut feq,
            );
            for i in 0..V::Q {
                self.f.set(r.block, i, r.cell, feq[i]);
            }
        }
    }

    fn wrap(&self, c: Coord) -> Coord {
        Coord::new(
            c.x.rem_euclid(self.dims[0] as i32),
            c.y.rem_euclid(self.dims[1] as i32),
            c.z.rem_euclid(self.dims[2] as i32),
        )
    }

    /// Advances one time step (even or odd flavor by parity).
    pub fn step(&mut self) {
        let even = self.steps.is_multiple_of(2);
        let refs: Vec<_> = self.grid.iter_active().collect();
        let mut fl = [T::ZERO; MAX_Q];
        for (r, c) in refs {
            if even {
                // Read own normal slots, collide, store reversed in place.
                for i in 0..V::Q {
                    fl[i] = self.f.get(r.block, i, r.cell);
                }
                self.op.collide(&mut fl);
                for i in 0..V::Q {
                    self.f.set(r.block, V::OPP[i], r.cell, fl[i]);
                }
            } else {
                // Gather upstream reversed slots, collide, scatter
                // downstream into normal slots. Each touched slot belongs
                // exclusively to this cell during the odd step.
                let mut srcs = [(0u32, 0u32); MAX_Q];
                for i in 0..V::Q {
                    let s = self.wrap(c - Coord::from_array(V::C[i]));
                    let sr = self.grid.cell_ref(s).expect("periodic uniform box");
                    srcs[i] = (sr.block, sr.cell);
                    fl[i] = self.f.get(sr.block, V::OPP[i], sr.cell);
                }
                self.op.collide(&mut fl);
                for i in 0..V::Q {
                    let t = self.wrap(c + Coord::from_array(V::C[i]));
                    let tr = self.grid.cell_ref(t).expect("periodic uniform box");
                    self.f.set(tr.block, i, tr.cell, fl[i]);
                }
            }
        }
        self.steps += 1;
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Density and velocity at a cell. Only meaningful at even parity
    /// (normal layout).
    pub fn probe(&self, c: Coord) -> Option<(f64, [f64; 3])> {
        assert!(
            self.steps.is_multiple_of(2),
            "probe at even parity (normal layout)"
        );
        let r = self.grid.cell_ref(c)?;
        let mut fl = [T::ZERO; MAX_Q];
        for i in 0..V::Q {
            fl[i] = self.f.get(r.block, i, r.cell);
        }
        let (rho, u) = lbm_lattice::density_velocity::<T, V>(&fl[..]);
        Some((rho.to_f64(), [u[0].to_f64(), u[1].to_f64(), u[2].to_f64()]))
    }

    /// Total mass.
    pub fn total_mass(&self) -> f64 {
        self.f.as_slice().iter().map(|v| v.to_f64()).sum()
    }

    /// Heap bytes of the population storage: **one** buffer — the memory
    /// advantage the paper's §VI-B capacity bound builds on.
    pub fn population_bytes(&self) -> usize {
        self.f.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllWalls, Engine, GridSpec, MultiGrid, Variant};
    use lbm_gpu::{DeviceModel, Executor};
    use lbm_lattice::{Bgk, D3Q19};

    fn init_u(c: Coord) -> [f64; 3] {
        let k = std::f64::consts::TAU / 16.0;
        [
            0.02 * (k * c.y as f64).sin(),
            0.015 * (k * c.x as f64).cos(),
            0.0,
        ]
    }

    #[test]
    fn matches_two_buffer_engine_after_even_odd_pairs() {
        let omega = 1.3;
        let mut aa = AaSolver::<f64, D3Q19, _>::new([16, 16, 8], 4, Bgk::new(omega));
        aa.init_equilibrium(|_| 1.0, init_u);

        let spec = GridSpec::uniform(Box3::from_dims(16, 16, 8)).with_periodic([true, true, true]);
        let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, omega);
        let mut eng = Engine::builder(grid)
            .collision(Bgk::new(omega))
            .variant(Variant::FusedAll)
            .build(Executor::sequential(DeviceModel::a100_40gb()));
        eng.grid.init_equilibrium(|_, _| 1.0, |_, c| init_u(c));

        aa.run(6); // three even+odd pairs
        eng.run(6);

        let mut max = 0.0f64;
        for z in 0..8 {
            for y in 0..16 {
                for x in 0..16 {
                    let c = Coord::new(x, y, z);
                    let (ra, ua) = aa.probe(c).unwrap();
                    let (rb, ub) = eng.grid.probe_finest(c).unwrap();
                    max = max.max((ra - rb).abs());
                    for k in 0..3 {
                        max = max.max((ua[k] - ub[k]).abs());
                    }
                }
            }
        }
        assert!(max < 1e-12, "AA deviates from two-buffer engine by {max:e}");
    }

    #[test]
    fn uses_half_the_population_memory() {
        let aa = AaSolver::<f64, D3Q19, _>::new([16, 16, 16], 4, Bgk::new(1.2));
        let spec = GridSpec::uniform(Box3::from_dims(16, 16, 16));
        let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.2);
        assert_eq!(2 * aa.population_bytes(), grid.levels[0].population_bytes());
    }

    #[test]
    fn conserves_mass_in_place() {
        let mut aa = AaSolver::<f64, D3Q19, _>::new([16, 16, 8], 4, Bgk::new(1.7));
        aa.init_equilibrium(|_| 1.0, init_u);
        let m0 = aa.total_mass();
        aa.run(10);
        assert!(((aa.total_mass() - m0) / m0).abs() < 1e-13);
    }

    #[test]
    #[should_panic(expected = "even parity")]
    fn probe_rejects_odd_parity() {
        let mut aa = AaSolver::<f64, D3Q19, _>::new([8, 8, 8], 4, Bgk::new(1.0));
        aa.init_equilibrium(|_| 1.0, |_| [0.0; 3]);
        aa.step();
        let _ = aa.probe(Coord::new(1, 1, 1));
    }
}
