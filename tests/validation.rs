//! End-to-end scientific validation (fast configurations of the paper's
//! Fig. 7 experiment; the full-size runs live in the examples and the
//! report binary).

use lbm_refinement::core::Variant;
use lbm_refinement::gpu::{DeviceModel, Executor};
use lbm_refinement::problems::cavity::{Cavity, CavityConfig};
use lbm_refinement::problems::diagnostics;

/// A two-level Re=100 cavity must land near the Ghia profiles once the
/// coarse core is reasonably resolved (see EXPERIMENTS.md for the
/// resolution study).
#[test]
fn cavity_two_level_matches_ghia_loosely() {
    let cavity = Cavity::new(CavityConfig {
        n_finest: 48,
        levels: 2,
        wall_band: 4,
        quasi_2d: true,
        depth: 4,
        ..CavityConfig::default()
    });
    let mut eng = cavity.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
    let transit = cavity.transit_coarse_steps();
    let out = diagnostics::run_to_steady(&mut eng, transit, 5e-6, 80 * transit);
    assert!(out.steps > 0);
    assert!(!out.diverged, "cavity run diverged at step {}", out.steps);
    assert!(diagnostics::is_finite(&eng.grid));
    let (u_err, v_err) = cavity.validate(&eng);
    assert!(
        u_err.rms < 0.035,
        "u-profile rms {} vs Ghia too large",
        u_err.rms
    );
    assert!(
        v_err.rms < 0.035,
        "v-profile rms {} vs Ghia too large",
        v_err.rms
    );
    // The primary vortex signature: strong negative return flow below the
    // center, positive flow near the lid.
    let (u_prof, _) = cavity.profiles(&eng);
    let min = u_prof.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    let max = u_prof
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(min < -0.12, "return flow {min}");
    assert!(max > 0.6, "lid-adjacent flow {max}");
}

/// The variant choice must not change the converged physics (end-to-end
/// version of the per-step equivalence tests).
#[test]
fn cavity_baseline_and_fused_converge_to_same_state() {
    let mk = || {
        Cavity::new(CavityConfig {
            n_finest: 32,
            levels: 2,
            wall_band: 2,
            quasi_2d: true,
            depth: 4,
            ..CavityConfig::default()
        })
    };
    let cavity = mk();
    let mut a = cavity.engine(
        Variant::ModifiedBaseline,
        Executor::new(DeviceModel::a100_40gb()),
    );
    let mut b = cavity.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
    a.run(600);
    b.run(600);
    let (ua, va) = cavity.profiles(&a);
    let (ub, vb) = cavity.profiles(&b);
    for ((x, pa), (_, pb)) in ua.iter().zip(&ub).chain(va.iter().zip(&vb)) {
        assert!(
            (pa - pb).abs() < 1e-9,
            "profiles diverge at {x}: {pa} vs {pb}"
        );
    }
}
