//! A Palabos-like comparator (paper §VI-A): a *conventional* CPU
//! implementation of the same nonuniform LBM — dense array-of-structures
//! storage over each level's bounding box, strictly serial execution, one
//! pass per operator, and every routing decision (boundary, Explosion,
//! Coalescence, periodicity) re-derived at runtime per cell per step
//! instead of precomputed.
//!
//! This is an independent implementation of the volume-based coupling —
//! sharing no kernel or data-structure code with `lbm-core` — so agreement
//! between the two is a strong cross-validation of both (tested below).

// Stencil loops index parallel constant tables throughout.
#![allow(clippy::needless_range_loop)]

use lbm_core::{Boundary, GridSpec};
use lbm_lattice::{equilibrium, moments, omega_at_level, Bgk, Collision, VelocitySet, MAX_Q};
use lbm_sparse::{Box3, Coord};

/// Cell classification in the dense arrays.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Kind {
    /// Not part of this level (coarser/finer region, solid, padding).
    Outside,
    /// Evolving cell.
    Real,
    /// Coarse-side ghost accumulator.
    Ghost,
}

struct DenseLevel {
    dom: Box3,
    dims: [usize; 3],
    /// Populations, post-collision convention, AoS: `cell·q + i`.
    f: Vec<f64>,
    /// Streaming destination buffer.
    tmp: Vec<f64>,
    /// Ghost accumulators, AoS like `f`.
    acc: Vec<f64>,
    kind: Vec<Kind>,
    omega: f64,
}

impl DenseLevel {
    #[inline]
    fn cell_index(&self, p: Coord) -> Option<usize> {
        if !self.dom.contains(p) {
            return None;
        }
        let r = p - self.dom.lo;
        Some(((r.x as usize) * self.dims[1] + r.y as usize) * self.dims[2] + r.z as usize)
    }
}

/// The serial dense multi-pass solver.
pub struct PalabosLike<V: VelocitySet> {
    spec: GridSpec,
    bc: Box<dyn Fn(u32, Coord, usize) -> Boundary + Send + Sync>,
    levels: Vec<DenseLevel>,
    coarse_steps: u64,
    _lattice: std::marker::PhantomData<V>,
}

impl<V: VelocitySet> PalabosLike<V> {
    /// Builds the solver from the same spec/boundary/ω₀ inputs as the main
    /// engine. BGK only (the comparison cases are laminar).
    pub fn new(
        spec: GridSpec,
        bc: impl Fn(u32, Coord, usize) -> Boundary + Send + Sync + 'static,
        omega0: f64,
    ) -> Self {
        let mut levels = Vec::new();
        for l in 0..spec.levels {
            let dom = spec.domain_at(l);
            let dims = dom.extent();
            let n = dims[0] * dims[1] * dims[2];
            let mut kind = vec![Kind::Outside; n];
            let mut lvl = DenseLevel {
                dom,
                dims,
                f: vec![0.0; n * V::Q],
                tmp: vec![0.0; n * V::Q],
                acc: vec![0.0; n * V::Q],
                kind: Vec::new(),
                omega: omega_at_level(omega0, l),
            };
            for p in dom.iter() {
                let ci = lvl.cell_index(p).unwrap();
                if spec.owned(l, p) {
                    kind[ci] = Kind::Real;
                } else if l + 1 < spec.levels && spec.covered_by_finer(l, p) {
                    // Ghost iff adjacent to an owned cell.
                    'adj: for dz in -1..=1 {
                        for dy in -1..=1 {
                            for dx in -1..=1 {
                                if (dx, dy, dz) != (0, 0, 0)
                                    && spec.owned(l, p + Coord::new(dx, dy, dz))
                                {
                                    kind[ci] = Kind::Ghost;
                                    break 'adj;
                                }
                            }
                        }
                    }
                }
            }
            lvl.kind = kind;
            levels.push(lvl);
        }
        Self {
            spec,
            bc: Box::new(bc),
            levels,
            coarse_steps: 0,
            _lattice: std::marker::PhantomData,
        }
    }

    /// Sets all real cells to equilibrium with the given fields.
    pub fn init_equilibrium(
        &mut self,
        rho: impl Fn(u32, Coord) -> f64,
        u: impl Fn(u32, Coord) -> [f64; 3],
    ) {
        for l in 0..self.levels.len() {
            let dom = self.levels[l].dom;
            for p in dom.iter() {
                let ci = self.levels[l].cell_index(p).unwrap();
                if self.levels[l].kind[ci] != Kind::Real {
                    continue;
                }
                let mut feq = [0.0; MAX_Q];
                equilibrium::<f64, V>(rho(l as u32, p), u(l as u32, p), &mut feq);
                for i in 0..V::Q {
                    self.levels[l].f[ci * V::Q + i] = feq[i];
                }
            }
            self.levels[l].acc.fill(0.0);
        }
    }

    /// Whether the level-`l` cell's direction-`i` population leaves the
    /// level's grid into the coarser region (re-derived at runtime — this
    /// solver precomputes nothing, by design).
    fn crossing(&self, l: u32, x: Coord, i: usize) -> bool {
        let t = self.spec.wrap(l, x + Coord::from_array(V::C[i]));
        if !self.spec.domain_at(l).contains(t) {
            return false;
        }
        if self.spec.owned(l, t) {
            return false;
        }
        l > 0 && self.spec.owned(l - 1, t.div_euclid(2))
    }

    /// Coalescence contribution count for ghost `g`, direction `i`.
    fn coalesce_count(&self, l: u32, g: Coord, i: usize) -> f64 {
        let mut count = 0u32;
        for dz in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    let cc = g.scale(2) + Coord::new(dx, dy, dz);
                    if self.crossing(l + 1, cc, i) {
                        count += 1;
                    }
                }
            }
        }
        2.0 * count as f64
    }

    fn step_level(&mut self, l: usize) {
        if l + 1 < self.levels.len() {
            self.step_level(l + 1);
            self.step_level(l + 1);
        }
        let lu = l as u32;
        let dom = self.levels[l].dom;
        let op = Bgk::new(self.levels[l].omega);

        // Pass 1: Accumulate — crossing populations of the *source* buffer
        // scatter into the parent ghost accumulators.
        if l > 0 {
            for x in dom.iter() {
                let ci = self.levels[l].cell_index(x).unwrap();
                if self.levels[l].kind[ci] != Kind::Real {
                    continue;
                }
                let parent = x.div_euclid(2);
                let Some(pi) = self.levels[l - 1].cell_index(parent) else {
                    continue;
                };
                if self.levels[l - 1].kind[pi] != Kind::Ghost {
                    continue;
                }
                for i in 1..V::Q {
                    if self.crossing(lu, x, i) {
                        let v = self.levels[l].f[ci * V::Q + i];
                        self.levels[l - 1].acc[pi * V::Q + i] += v;
                    }
                }
            }
        }

        // Pass 2: Streaming (+Explosion +Coalescence +BCs), all runtime.
        for x in dom.iter() {
            let ci = self.levels[l].cell_index(x).unwrap();
            if self.levels[l].kind[ci] != Kind::Real {
                continue;
            }
            let q = V::Q;
            // Rest population.
            let rest = self.levels[l].f[ci * q];
            self.levels[l].tmp[ci * q] = rest;
            for i in 1..q {
                let d = Coord::from_array(V::C[i]);
                let s = self.spec.wrap(lu, x - d);
                let v = if let Some(si) = self.levels[l].cell_index(s) {
                    match self.levels[l].kind[si] {
                        Kind::Real => self.levels[l].f[si * q + i],
                        Kind::Ghost => {
                            let count = self.coalesce_count(lu, s, i);
                            self.levels[l].acc[si * q + i] / count
                        }
                        Kind::Outside => self.resolve_missing(l, x, s, i),
                    }
                } else {
                    self.resolve_missing(l, x, s, i)
                };
                self.levels[l].tmp[ci * q + i] = v;
            }
        }

        // Pass 3: Collision, in place on the streamed buffer.
        for x in dom.iter() {
            let ci = self.levels[l].cell_index(x).unwrap();
            if self.levels[l].kind[ci] != Kind::Real {
                continue;
            }
            let mut fl = [0.0; MAX_Q];
            for i in 0..V::Q {
                fl[i] = self.levels[l].tmp[ci * V::Q + i];
            }
            Collision::<f64, V>::collide(&op, &mut fl);
            for i in 0..V::Q {
                self.levels[l].tmp[ci * V::Q + i] = fl[i];
            }
        }

        // Pass 4: reset consumed accumulators, then swap buffers.
        if l + 1 < self.levels.len() {
            let level = &mut self.levels[l];
            for ci in 0..level.kind.len() {
                if level.kind[ci] == Kind::Ghost {
                    for i in 0..V::Q {
                        level.acc[ci * V::Q + i] = 0.0;
                    }
                }
            }
        }
        let level = &mut self.levels[l];
        std::mem::swap(&mut level.f, &mut level.tmp);
    }

    fn resolve_missing(&self, l: usize, x: Coord, s: Coord, i: usize) -> f64 {
        let lu = l as u32;
        let q = V::Q;
        let dom = self.levels[l].dom;
        if dom.contains(s) && l > 0 {
            // Explosion from the coarse parent.
            let pp = s.div_euclid(2);
            if let Some(pi) = self.levels[l - 1].cell_index(pp) {
                if self.levels[l - 1].kind[pi] == Kind::Real {
                    return self.levels[l - 1].f[pi * q + i];
                }
            }
        }
        // Boundary condition (runtime dispatch).
        let xi = self.levels[l].cell_index(x).unwrap();
        match (self.bc)(lu, s, i) {
            Boundary::BounceBack => self.levels[l].f[xi * q + V::OPP[i]],
            Boundary::MovingWall { velocity } => {
                let ci = V::C[i];
                let cu: f64 = (0..3).map(|a| ci[a] as f64 * velocity[a]).sum();
                self.levels[l].f[xi * q + V::OPP[i]] + 2.0 * V::W[i] * cu / V::CS2
            }
            Boundary::Outflow => V::W[i],
            Boundary::Periodic => {
                panic!("periodicity is configured on the GridSpec, not the boundary closure")
            }
        }
    }

    /// Advances one coarsest-level step.
    pub fn step(&mut self) {
        self.step_level(0);
        self.coarse_steps += 1;
    }

    /// Runs `n` coarse steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Density and velocity at a finest-level coordinate.
    pub fn probe_finest(&self, cf: Coord) -> Option<(f64, [f64; 3])> {
        for l in (0..self.levels.len()).rev() {
            let p = cf.div_euclid(self.spec.scale_to_finest(l as u32));
            if let Some(ci) = self.levels[l].cell_index(p) {
                if self.levels[l].kind[ci] == Kind::Real {
                    let mut fl = [0.0; MAX_Q];
                    for i in 0..V::Q {
                        fl[i] = self.levels[l].f[ci * V::Q + i];
                    }
                    let (rho, u) = moments::density_velocity::<f64, V>(&fl[..]);
                    return Some((rho, u));
                }
            }
        }
        None
    }

    /// Total mass in finest-cell volume units.
    pub fn total_mass(&self) -> f64 {
        let mut total = 0.0;
        for (l, level) in self.levels.iter().enumerate() {
            let vol = (self.spec.scale_to_finest(l as u32) as f64).powi(3);
            for ci in 0..level.kind.len() {
                if level.kind[ci] == Kind::Real {
                    let mut rho = 0.0;
                    for i in 0..V::Q {
                        rho += level.f[ci * V::Q + i];
                    }
                    total += rho * vol;
                }
            }
        }
        total
    }

    /// Lattice updates per coarse step (for MLUPS).
    pub fn work_per_coarse_step(&self) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(l, lv)| (lv.kind.iter().filter(|&&k| k == Kind::Real).count() as u64) << l)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_lattice::D3Q19;

    fn two_level_spec() -> GridSpec {
        GridSpec::new(2, Box3::from_dims(16, 16, 16), |l, p| {
            l == 0 && (2..6).contains(&p.x) && (2..6).contains(&p.y) && (2..6).contains(&p.z)
        })
    }

    #[test]
    fn equilibrium_fixed_point_and_mass() {
        let mut s =
            PalabosLike::<D3Q19>::new(two_level_spec(), |_, _, _| Boundary::BounceBack, 1.5);
        s.init_equilibrium(|_, _| 1.0, |_, _| [0.0; 3]);
        let m0 = s.total_mass();
        s.run(5);
        assert!(((s.total_mass() - m0) / m0).abs() < 1e-13);
        let (rho, u) = s.probe_finest(Coord::new(8, 8, 8)).unwrap();
        assert!((rho - 1.0).abs() < 1e-12);
        assert!(u[0].abs() < 1e-12);
    }

    #[test]
    fn work_counts_levels() {
        let s = PalabosLike::<D3Q19>::new(two_level_spec(), |_, _, _| Boundary::BounceBack, 1.5);
        // Coarse owned: 8³−4³; fine: 8³ at weight 2.
        assert_eq!(
            s.work_per_coarse_step(),
            (8 * 8 * 8 - 4 * 4 * 4) + 2 * (8 * 8 * 8)
        );
    }
}
