//! Lid-driven cavity at Re = 100 with near-wall refinement, validated
//! against Ghia et al. (1982) — the paper's Figs. 6–7 experiment.
//!
//! ```text
//! cargo run --release --example lid_driven_cavity [-- N [--full3d]]
//! ```
//!
//! Defaults to the fast quasi-2D configuration (shallow periodic z), which
//! is directly comparable to the 2D reference; `--full3d` runs the paper's
//! cubic cavity (midplane profiles deviate a few percent from 2D data, as
//! in the paper's Fig. 7).

use lbm_refinement::core::Variant;
use lbm_refinement::gpu::{DeviceModel, Executor};
use lbm_refinement::problems::cavity::{Cavity, CavityConfig};
use lbm_refinement::problems::diagnostics;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .and_then(|a| a.parse().ok())
        .unwrap_or(96);
    let full3d = args.iter().any(|a| a == "--full3d");

    let cavity = Cavity::new(CavityConfig {
        n_finest: n,
        levels: 3,
        quasi_2d: !full3d,
        ..CavityConfig::default()
    });
    println!(
        "cavity: {}^2×{} finest cells, 3 levels, Re = {}, u_lid = {}, omega0 = {:.4}",
        n,
        if full3d { n } else { cavity.config.depth },
        cavity.config.re,
        cavity.config.u_lid,
        cavity.omega0
    );

    let mut eng = cavity.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
    for (l, level) in eng.grid.levels.iter().enumerate() {
        println!("  level {l}: {} real cells", level.real_cells);
    }

    // March to steady state: a few lid transits, checked on kinetic energy.
    // Convergence is diffusion-limited: the viscous timescale N²/ν far
    // exceeds the lid transit at Re = 100, so march with a tight
    // kinetic-energy criterion.
    let transit = cavity.transit_coarse_steps();
    println!("running to steady state (transit = {transit} coarse steps)...");
    let t0 = std::time::Instant::now();
    let out = diagnostics::run_to_steady(&mut eng, transit, 2e-6, 120 * transit);
    let wall = t0.elapsed();
    if out.diverged {
        eprintln!("run DIVERGED (non-finite energy) at step {}", out.steps);
        std::process::exit(1);
    }
    let steps = out.steps;
    println!(
        "reached steady state in {steps} coarse steps ({}), {:.1} s, {:.1} MLUPS measured",
        if out.converged {
            "converged"
        } else {
            "step cap"
        },
        wall.as_secs_f64(),
        eng.mlups_measured(steps as u64, wall)
    );

    let (u_err, v_err) = cavity.validate(&eng);
    println!("\n== Ghia et al. (1982) comparison (Fig. 7) ==");
    println!(
        "u-centerline: rms = {:.4}, max = {:.4}",
        u_err.rms, u_err.max
    );
    println!(
        "v-centerline: rms = {:.4}, max = {:.4}",
        v_err.rms, v_err.max
    );

    let (u_prof, v_prof) = cavity.profiles(&eng);
    let out = std::env::temp_dir().join("lbm_cavity");
    std::fs::create_dir_all(&out).unwrap();
    diagnostics::write_profile_csv(out.join("u_centerline.csv"), "y,u_over_ulid", &u_prof).unwrap();
    diagnostics::write_profile_csv(out.join("v_centerline.csv"), "x,v_over_ulid", &v_prof).unwrap();
    let vtk = lbm_refinement::problems::vtk::write_levels(&eng.grid, out.join("cavity")).unwrap();
    println!(
        "profiles written to {} (+{} VTK level files for ParaView)",
        out.display(),
        vtk.len()
    );

    println!("\n  y        u/u_lid   (Ghia)");
    for &(y, g) in lbm_refinement::problems::ghia::U_CENTERLINE_RE100.iter() {
        let m = lbm_refinement::problems::ghia::interp(&u_prof, y);
        println!("  {y:.4}   {m:+.5}   ({g:+.5})");
    }
}
