//! Cross-validation: the independent dense serial solver (`PalabosLike`)
//! and the optimized engine (`lbm-core`) implement the same mathematics
//! with zero shared kernel or data-structure code. Agreement on a
//! refined-domain run validates both.

use lbm_compare::PalabosLike;
use lbm_core::{Boundary, Engine, GridSpec, MultiGrid, Variant};
use lbm_gpu::{DeviceModel, Executor};
use lbm_lattice::{Bgk, D3Q19};
use lbm_sparse::{Box3, Coord};

fn spec() -> GridSpec {
    GridSpec::new(2, Box3::from_dims(24, 24, 24), |l, p| {
        l == 0 && (3..9).contains(&p.x) && (3..9).contains(&p.y) && (3..9).contains(&p.z)
    })
}

fn bc(_: u32, src: Coord, _: usize) -> Boundary {
    if src.y >= 24 {
        // Works for both levels: level-0 top is y = 12, caught below.
        Boundary::MovingWall {
            velocity: [0.08, 0.0, 0.0],
        }
    } else {
        Boundary::BounceBack
    }
}

/// Level-aware lid (the closure above is finest-level; this wraps it).
fn lid(level: u32, src: Coord, dir: usize) -> Boundary {
    let top = 24 >> (1 - level);
    if src.y >= top {
        Boundary::MovingWall {
            velocity: [0.08, 0.0, 0.0],
        }
    } else {
        bc(level, src, dir)
    }
}

fn init_u(l: u32, p: Coord) -> [f64; 3] {
    let s = if l == 0 { 2.0 } else { 1.0 };
    let x = (p.x as f64 + 0.5) * s;
    [0.02 * (x / 24.0 * std::f64::consts::TAU).sin(), 0.01, 0.0]
}

#[test]
fn dense_serial_solver_matches_optimized_engine() {
    let omega0 = 1.5;

    let mut reference = PalabosLike::<D3Q19>::new(spec(), lid, omega0);
    reference.init_equilibrium(|_, _| 1.0, init_u);

    let grid = MultiGrid::<f64, D3Q19>::build(spec(), &lid, omega0);
    let mut ours = Engine::builder(grid)
        .collision(Bgk::new(omega0))
        .variant(Variant::FusedAll)
        .build(Executor::new(DeviceModel::a100_40gb()));
    ours.grid.init_equilibrium(|_, _| 1.0, init_u);

    // Masses agree at init.
    assert!((reference.total_mass() - ours.grid.total_mass()).abs() < 1e-9);

    reference.run(3);
    ours.run(3);

    let mut checked = 0;
    let mut max_diff = 0.0f64;
    for x in (0..24).step_by(2) {
        for y in (0..24).step_by(3) {
            for z in (0..24).step_by(4) {
                let c = Coord::new(x, y, z);
                let a = reference.probe_finest(c);
                let b = ours.grid.probe_finest(c);
                match (a, b) {
                    (Some((ra, ua)), Some((rb, ub))) => {
                        checked += 1;
                        max_diff = max_diff.max((ra - rb).abs());
                        for k in 0..3 {
                            max_diff = max_diff.max((ua[k] - ub[k]).abs());
                        }
                    }
                    (None, None) => {}
                    _ => panic!("cell coverage differs at {c:?}"),
                }
            }
        }
    }
    assert!(checked > 100, "too few probes compared: {checked}");
    assert!(
        max_diff < 1e-11,
        "independent implementations disagree by {max_diff:e}"
    );
    assert!(
        (reference.total_mass() - ours.grid.total_mass()).abs() < 1e-9,
        "masses diverged"
    );
}

#[test]
fn dense_solver_matches_on_periodic_slab() {
    let spec_fn = || {
        GridSpec::new(2, Box3::from_dims(16, 16, 8), |l, p| {
            l == 0 && (2..6).contains(&p.y)
        })
        .with_periodic([true, false, true])
    };
    let omega0 = 1.3;
    let walls = |_: u32, _: Coord, _: usize| Boundary::BounceBack;

    let mut reference = PalabosLike::<D3Q19>::new(spec_fn(), walls, omega0);
    let grid = MultiGrid::<f64, D3Q19>::build(spec_fn(), &walls, omega0);
    let mut ours = Engine::builder(grid)
        .collision(Bgk::new(omega0))
        .variant(Variant::ModifiedBaseline)
        .build(Executor::sequential(DeviceModel::a100_40gb()));
    let u = |l: u32, p: Coord| {
        let s = if l == 0 { 2.0 } else { 1.0 };
        let y = (p.y as f64 + 0.5) * s;
        [0.03 * (y / 16.0 * std::f64::consts::TAU).cos(), 0.0, 0.01]
    };
    reference.init_equilibrium(|_, _| 1.0, u);
    ours.grid.init_equilibrium(|_, _| 1.0, u);
    reference.run(4);
    ours.run(4);

    let mut max_diff = 0.0f64;
    for x in 0..16 {
        for y in 0..16 {
            let c = Coord::new(x, y, 3);
            let (ra, ua) = reference.probe_finest(c).unwrap();
            let (rb, ub) = ours.grid.probe_finest(c).unwrap();
            max_diff = max_diff.max((ra - rb).abs());
            for k in 0..3 {
                max_diff = max_diff.max((ua[k] - ub[k]).abs());
            }
        }
    }
    assert!(max_diff < 1e-11, "disagreement {max_diff:e}");
}
