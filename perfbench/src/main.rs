//! End-to-end and per-layer benchmark of the refined LBM engine.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! chunks of steps, prints the per-layer metrics and writes a chrome trace
//! and per-layer self times. The last stdout line is the result object.
//!
//! Everything is timed from here, around calls into the public functions
//! of `lbm_problems`, `lbm_core` and `lbm_lattice`; kernel figures come
//! from the executor's own profiler.

mod metrics;
mod probe;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use lbm_core::{BoundarySpec, Engine, ExecMode, GridSpec, MultiGrid, Variant};
use lbm_gpu::{DeviceModel, Executor};
use lbm_lattice::{Bgk, Collision, Kbc, VelocitySet, D3Q19, D3Q27};
use lbm_problems::cavity::{Cavity, CavityConfig};
use lbm_problems::sphere::{SphereConfig, SphereFlow};
use lbm_problems::{diagnostics, tunnel_boundary};
use lbm_sparse::Coord;

use metrics::{Measured, Metric, SetupTimes};
use probe::{mix, unit};
use stats::min_samples_for;
use trace::{SpanId, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Untimed steps before timing, per engine.
const WARMUP_STEPS: usize = 3;
/// Health checks run after every this many timed steps.
const CHECK_EVERY: usize = 25;
/// `cavity3-restart`: coarse steps between checkpoints.
const RESTART_EVERY: usize = 10;
/// The other workloads: checkpoint/restore cycles after the timed steps.
const CHECKPOINT_CYCLES: usize = 5;
/// The traced run alternates untraced and traced chunks of this many steps.
const TRACE_CHUNK: usize = 10;
/// Timed `Engine::step_task_graph` calls in the traced run.
const SCHEDULE_REPS: usize = 20;
/// The step loop stops here even when too few steps were timed.
const LOOP_CAP_S: f64 = 140.0;
/// Amplitude of the seeded initial-velocity perturbation (lattice units).
const PERTURBATION: f64 = 1e-3;
/// Health bound on `max |u|` (lattice sound speed is 0.577).
const MAX_SPEED: f64 = 0.3;
/// Health bound on the closed cavity's relative mass drift per coarse step
/// since initialization. The refined cavity drifts about 2–4e-7 per step
/// (moving lid and corner interfaces); a broken Accumulate or Coalescence
/// drifts orders of magnitude faster.
const MASS_DRIFT_PER_STEP: f64 = 1e-6;
/// Tolerance when checking that kernel spans lie inside their step span:
/// graph-mode kernels read the clock on the stream threads' CPUs, about
/// 25 µs apart from the stepping thread's reads on this kind of VM.
const CLOCK_SLACK_US: f64 = 50.0;
/// Collision operators timed alone: cells and passes.
const COLLIDE_CELLS: usize = 4096;
const COLLIDE_REPS: usize = 100;
/// Copy-probe arrays are this many times the last-level cache.
const COPY_LLC_MULTIPLE: u64 = 4;
const COPY_PASSES: usize = 5;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Workload {
    Cavity,
    Sphere,
    Restart,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Cavity, Workload::Sphere, Workload::Restart];

    fn name(self) -> &'static str {
        match self {
            Workload::Cavity => "cavity3-bgk19",
            Workload::Sphere => "sphere3-kbc27",
            Workload::Restart => "cavity3-restart",
        }
    }

    fn threads(self) -> usize {
        match self {
            Workload::Cavity => nproc(),
            Workload::Sphere | Workload::Restart => 1,
        }
    }

    fn exec_mode(self) -> ExecMode {
        match self {
            Workload::Cavity => ExecMode::Graph,
            Workload::Sphere | Workload::Restart => ExecMode::Eager,
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    git_rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Cavity,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        git_rev: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("workload"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("duration"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad("duration (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--git-rev" => args.git_rev = value,
            "--rustc" => args.rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Seeded initial velocity: `u0` plus a small per-cell perturbation.
fn perturbed(seed: u64, u0: [f64; 3]) -> impl Fn(u32, Coord) -> [f64; 3] {
    move |level, c| {
        let key = (u64::from(level) << 48)
            ^ (u64::from(c.x as u16) << 32)
            ^ (u64::from(c.y as u16) << 16)
            ^ u64::from(c.z as u16);
        let h = mix(seed ^ mix(key));
        let (h1, h2) = (mix(h), mix(mix(h)));
        [
            u0[0] + PERTURBATION * unit(h),
            u0[1] + PERTURBATION * unit(h1),
            u0[2] + PERTURBATION * unit(h2),
        ]
    }
}

/// One set-up: `GridSpec` → `MultiGrid::build` → `EngineBuilder::build` →
/// `init_equilibrium`, each timed. `problem` makes the spec and is timed as
/// the `problems` layer.
fn set_up<V: VelocitySet, C: Collision<f64, V>, B: BoundarySpec>(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    exec: &Executor,
    mode: ExecMode,
    problem: impl FnOnce() -> (GridSpec, B, f64, C),
    u0: [f64; 3],
    seed: u64,
) -> (Engine<f64, V, C>, SetupTimes) {
    let ((spec, bc, omega0, op), spec_s, _) = tr.time("spec", "problems", parent, problem);
    let (grid, build_s, _) = tr.time("build", "core", parent, || {
        MultiGrid::<f64, V>::build(spec, &bc, omega0)
    });
    let (mut eng, engine_build_s, _) = tr.time("engine_build", "core", parent, || {
        Engine::builder(grid)
            .collision(op)
            .variant(Variant::FusedAll)
            .exec_mode(mode)
            .build(exec.clone())
    });
    let ((), init_s, _) = tr.time("init", "core", parent, || {
        eng.grid.init_equilibrium(|_, _| 1.0, perturbed(seed, u0))
    });
    let t = SetupTimes {
        spec: spec_s,
        build: build_s,
        engine_build: engine_build_s,
        init: init_s,
    };
    (eng, t)
}

/// Health checks and operation accounting.
struct Health {
    mass0: f64,
    check_mass: bool,
    attempted: u64,
    failed: u64,
    checks: u64,
    max_speed: f64,
    worst_drift: f64,
    failures: Vec<String>,
}

impl Health {
    /// Checks the state after `ops` timed steps; a failure fails them all.
    fn check<V: VelocitySet, C: Collision<f64, V>>(
        &mut self,
        eng: &Engine<f64, V, C>,
        ops: u64,
        step: usize,
    ) {
        let grid = &eng.grid;
        self.checks += 1;
        self.attempted += ops;
        let finite = diagnostics::is_finite(grid);
        let speed = diagnostics::max_speed(grid);
        let drift = ((grid.total_mass() - self.mass0) / self.mass0).abs();
        self.max_speed = speed;
        self.worst_drift = self.worst_drift.max(drift);
        let mut bad = Vec::new();
        if !finite {
            bad.push("non-finite population".to_string());
        }
        if speed.is_nan() || speed >= MAX_SPEED {
            bad.push(format!("max |u| {speed:.4} >= {MAX_SPEED}"));
        }
        let drift_bound = MASS_DRIFT_PER_STEP * eng.coarse_steps() as f64;
        if self.check_mass && (drift.is_nan() || drift > drift_bound) {
            bad.push(format!("mass drift {drift:.3e} > {drift_bound:.3e}"));
        }
        if !bad.is_empty() {
            self.failed += ops;
            self.failures
                .push(format!("after step {step}: {}", bad.join(", ")));
        }
    }

    fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            self.failures.push(e);
        }
    }
}

/// Checkpoints `src` to `path` and restores the file into `dst` (into
/// `src` itself when `dst` is `None`), timing each part; the restored
/// state must have the saved state's digest. Counts as two operations.
fn checkpoint_cycle<V: VelocitySet, C: Collision<f64, V>>(
    src: &mut Engine<f64, V, C>,
    dst: Option<&mut Engine<f64, V, C>>,
    path: &Path,
    tr: &mut Tracer,
    parent: Option<SpanId>,
    m: &mut Measured,
    h: &mut Health,
) {
    let cycle = tr.open("checkpoint_cycle", "bench", parent);
    let saved_digest = lbm_bench::grid_digest(&src.grid);
    let (snapshot, encode_s, _) = tr.time("encode", "core", cycle, || src.checkpoint());
    let (written, write_s, _) = tr.time("write", "io", cycle, || std::fs::write(path, &snapshot));
    m.snapshot_bytes = snapshot.len() as u64;
    drop(snapshot);
    let saved = written.map_err(|e| format!("snapshot write: {e}"));
    if saved.is_ok() {
        m.encode_ms.push(encode_s * 1e3);
        m.write_ms.push(write_s * 1e3);
    }
    let target = dst.unwrap_or(src);
    let restored = saved.clone().and_then(|()| {
        let (bytes, read_s, _) = tr.time("read", "io", cycle, || std::fs::read(path));
        let bytes = bytes.map_err(|e| format!("snapshot read: {e}"))?;
        let (r, decode_s, _) = tr.time("restore", "core", cycle, || target.restore(&bytes));
        r.map_err(|e| format!("restore: {e}"))?;
        m.read_ms.push(read_s * 1e3);
        m.decode_ms.push(decode_s * 1e3);
        let got = lbm_bench::grid_digest(&target.grid);
        if got != saved_digest {
            return Err(format!("restored digest {got} != saved {saved_digest}"));
        }
        Ok(())
    });
    tr.close(cycle);
    // A digest mismatch fails the checkpoint as well as the restore.
    let digest_bad = matches!(&restored, Err(e) if e.starts_with("restored digest"));
    h.op(if digest_bad {
        Err("checkpoint of a mismatched cycle".into())
    } else {
        saved
    });
    h.op(restored);
}

/// `(steal, total)` CPU ticks of the whole host from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// VmHWM of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

struct Outcome {
    measured: Measured,
    health: Health,
    steps: usize,
    staged: bool,
    unnested_kernels: usize,
}

/// Runs one workload: set-ups, warm-up, the timed closed loop with health
/// checks (and checkpoint ping-pong for the restart workload), then the
/// checkpoint cycles and, when tracing, the per-layer probes.
fn run<V, C, F>(args: &Args, mut make: F) -> Outcome
where
    V: VelocitySet,
    C: Collision<f64, V>,
    F: FnMut(&mut Tracer, Option<SpanId>, &Executor) -> (Engine<f64, V, C>, SetupTimes),
{
    let w = args.workload;
    let mut tr = Tracer::new(args.trace);
    // The profiler's epoch is taken when the executor is made.
    let exec_made = Instant::now();
    let exec = Executor::with_threads(DeviceModel::a100_40gb(), w.threads());
    let profiler_epoch_us = tr.since_epoch_us(exec_made);
    let prof = exec.profiler();
    let mut m = Measured::default();

    let setup_span = tr.open("setup", "bench", None);
    let keep = if w == Workload::Restart { 2 } else { 1 };
    let mut engines = Vec::new();
    for _ in 0..SETUP_REPS {
        if engines.len() == keep {
            engines.remove(0);
        }
        let (eng, t) = make(&mut tr, setup_span, &exec);
        m.setups.push(t);
        engines.push(eng);
    }
    tr.close(setup_span);
    let mut eng = engines.pop().expect("SETUP_REPS > 0");
    let mut spare = engines.pop();
    m.work_per_step = eng.work_per_coarse_step();
    let staged = eng.staged_accumulate();
    let mut health = Health {
        mass0: eng.grid.total_mass(),
        check_mass: w != Workload::Sphere,
        attempted: 0,
        failed: 0,
        checks: 0,
        max_speed: 0.0,
        worst_drift: 0.0,
        failures: Vec::new(),
    };
    if args.trace {
        for _ in 0..SCHEDULE_REPS {
            let (_, dt, _) = tr.time("step_task_graph", "runtime", setup_span, || {
                eng.step_task_graph()
            });
            m.schedule_ms.push(dt * 1e3);
        }
    }
    eng.run(WARMUP_STEPS);
    if let Some(s) = spare.as_mut() {
        s.run(WARMUP_STEPS);
    }

    std::fs::create_dir_all(&args.out).expect("output directory is creatable");
    let snapshot_path = args.out.join(format!("{}.snapshot", w.name()));
    prof.reset();
    let run_span = tr.open("run", "bench", None);
    let min_steps = min_samples_for(95.0);
    let ticks0 = cpu_ticks();
    let t_loop = Instant::now();
    let mut traced_steps: Vec<(SpanId, usize)> = Vec::new();
    let (mut steps, mut unchecked) = (0usize, 0u64);
    loop {
        let elapsed = t_loop.elapsed().as_secs_f64();
        if (elapsed >= args.seconds && steps >= min_steps) || elapsed >= LOOP_CAP_S {
            break;
        }
        let traced = args.trace && (steps / TRACE_CHUNK) % 2 == 1;
        tr.on = traced;
        prof.set_tracing(traced);
        let launches = prof.launches();
        let ((), dt, id) = tr.time("step", "core", run_span, || eng.step());
        if let Some(id) = id {
            traced_steps.push((id, (prof.launches() - launches) as usize));
            m.traced_step_s.push(dt);
        } else {
            m.step_s.push(dt);
        }
        tr.on = args.trace;
        prof.set_tracing(false);
        steps += 1;
        unchecked += 1;
        if unchecked == CHECK_EVERY as u64 {
            health.check(&eng, unchecked, steps);
            unchecked = 0;
        }
        if w == Workload::Restart && steps % RESTART_EVERY == 0 {
            let target = spare.as_mut().expect("restart keeps a second engine");
            let before = health.failed;
            checkpoint_cycle(
                &mut eng,
                Some(target),
                &snapshot_path,
                &mut tr,
                run_span,
                &mut m,
                &mut health,
            );
            if health.failed == before {
                std::mem::swap(&mut eng, spare.as_mut().expect("checked above"));
            }
        }
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, cpu_ticks()) {
        // Time the hypervisor ran other guests on this VM's CPUs: the main
        // source of run-to-run spread on shared hosts.
        println!(
            "host steal during the timed steps: {:.1}% of CPU time",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        );
    }
    if unchecked > 0 {
        health.check(&eng, unchecked, steps);
    }
    tr.close(run_span);

    m.profiled_steps = steps as u64;
    m.kernels = prof.per_kernel();
    m.total = prof.total();
    m.syncs = prof.syncs();
    m.waves = prof.waves();
    m.thread_blocks = prof.thread_blocks();
    m.model_mlups = eng.mlups_modeled(steps as u64);
    m.mass_drift_rel = health.worst_drift;
    m.max_speed = health.max_speed;
    let mut unnested_kernels = 0;
    if args.trace {
        let spans = prof.spans();
        let mut next = 0;
        for &(step_span, n) in &traced_steps {
            tr.add_kernels(step_span, &spans[next..next + n], profiler_epoch_us);
            next += n;
        }
        unnested_kernels = tr.unnested_kernels(CLOCK_SLACK_US);
    }

    if w != Workload::Restart {
        let span = tr.open("checkpoints", "bench", None);
        for _ in 0..CHECKPOINT_CYCLES {
            checkpoint_cycle(
                &mut eng,
                None,
                &snapshot_path,
                &mut tr,
                span,
                &mut m,
                &mut health,
            );
        }
        tr.close(span);
    }
    let _ = std::fs::remove_file(&snapshot_path);
    drop(spare);
    m.peak_rss_mib = peak_rss_mib();

    if args.trace {
        let span = tr.open("probes", "bench", None);
        let (bgk, _, _) = tr.time("collide_bgk_d3q19", "lattice", span, || {
            probe::collide_ns_per_cell::<D3Q19, _>(
                Bgk::new(1.9),
                args.seed,
                COLLIDE_CELLS,
                COLLIDE_REPS,
            )
        });
        let (kbc, _, _) = tr.time("collide_kbc_d3q27", "lattice", span, || {
            probe::collide_ns_per_cell::<D3Q27, _>(
                Kbc::new(1.9),
                args.seed,
                COLLIDE_CELLS,
                COLLIDE_REPS,
            )
        });
        m.bgk_ns_per_cell = bgk;
        m.kbc_ns_per_cell = kbc;
        let llc = probe::llc_bytes().unwrap_or(128 << 20);
        let (copy, _, _) = tr.time("copy_probe", "host", span, || {
            probe::copy_bandwidth(COPY_LLC_MULTIPLE * llc, COPY_PASSES)
        });
        m.copy_gbps = copy.gbps;
        tr.close(span);
        println!(
            "host roofline: copy {:.2} GB/s (read+write), arrays 2 x {} MiB, LLC {} MiB, median of {} passes after one discarded",
            copy.gbps,
            copy.array_bytes >> 20,
            llc >> 20,
            copy.passes
        );
        write_trace(args, &tr);
    }
    Outcome {
        measured: m,
        health,
        steps,
        staged,
        unnested_kernels,
    }
}

/// Writes the chrome trace and per-layer self times of the traced run.
fn write_trace(args: &Args, tr: &Tracer) {
    let name = args.workload.name();
    let trace_path = args.out.join(format!("{name}.trace.json"));
    let self_path = args.out.join(format!("{name}.self_time.txt"));
    let mut text = String::from("# layer/name  self_ms\n");
    for (k, us) in tr.self_times_us() {
        text.push_str(&format!("{k}  {:.3}\n", us / 1e3));
    }
    let written = std::fs::write(&trace_path, tr.chrome_trace_json())
        .and_then(|()| std::fs::write(&self_path, &text));
    match written {
        Ok(()) => println!(
            "trace: {} spans -> {}, self times -> {}",
            tr.spans().len(),
            trace_path.display(),
            self_path.display()
        ),
        Err(e) => eprintln!("trace not written: {e}"),
    }
    print!("{text}");
}

fn cavity(args: &Args) -> Outcome {
    let (mode, seed) = (args.workload.exec_mode(), args.seed);
    run(args, |tr, parent, exec| {
        set_up::<D3Q19, _, _>(
            tr,
            parent,
            exec,
            mode,
            || {
                let c = Cavity::new(CavityConfig {
                    n_finest: 96,
                    levels: 3,
                    wall_band: 4,
                    re: 100.0,
                    quasi_2d: true,
                    depth: 16,
                    ..CavityConfig::default()
                });
                (c.spec(), c.boundary(), c.omega0, Bgk::new(c.omega0))
            },
            [0.0; 3],
            seed,
        )
    })
}

fn sphere(args: &Args) -> Outcome {
    let (mode, seed) = (args.workload.exec_mode(), args.seed);
    let config = SphereConfig::for_size([68, 48, 68]);
    let u0 = [config.u_inlet, 0.0, 0.0];
    run(args, |tr, parent, exec| {
        set_up::<D3Q27, _, _>(
            tr,
            parent,
            exec,
            mode,
            || {
                let s = SphereFlow::new(config.clone());
                let c = &s.config;
                let bc = tunnel_boundary(c.size, c.levels, c.u_inlet);
                (s.spec(), bc, s.omega0, Kbc::new(s.omega0))
            },
            u0,
            seed,
        )
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "provenance: workload={} seed={} seconds={} trace={} threads={} exec_mode={:?} nproc={} llc_mib={} git_rev={} rustc=\"{}\"",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.threads(),
        w.exec_mode(),
        nproc(),
        probe::llc_bytes().map_or("unknown".into(), |b| (b >> 20).to_string()),
        args.git_rev,
        args.rustc
    );
    if w == Workload::Cavity {
        println!(
            "caveat: graph waves holding more than one kernel run them on scoped stream threads \
             that share the {}-worker pool (the small M/R/SEO0 waves, under 2% of step time)",
            w.threads()
        );
    }
    let o = match w {
        Workload::Cavity | Workload::Restart => cavity(&args),
        Workload::Sphere => sphere(&args),
    };
    report(&args, &o)
}

/// Prints the human-readable summary and the result line.
fn report(args: &Args, o: &Outcome) -> ExitCode {
    let m = &o.measured;
    let h = &o.health;
    println!(
        "workload {}: {} timed steps ({} traced), {} lattice updates/step, staged accumulate {}",
        args.workload.name(),
        o.steps,
        m.traced_step_s.len(),
        m.work_per_step,
        o.staged
    );
    if args.trace {
        for (name, s) in &m.kernels {
            println!(
                "  kernel {name:<6} launches {:>6}  wall {:>10.1} us  cells {:>10}  bytes {:>12}",
                s.launches,
                s.wall_us,
                s.cells,
                s.bytes_read + s.bytes_written + s.atomic_bytes
            );
        }
        println!(
            "  kernel spans outside their step span: {} (trace {})",
            o.unnested_kernels,
            if o.unnested_kernels == 0 {
                "nests"
            } else {
                "DOES NOT NEST"
            }
        );
    }
    let metrics: Vec<Metric> = if args.trace {
        metrics::per_layer(m)
    } else {
        metrics::end_to_end(m)
    };
    for x in &metrics {
        println!(
            "  {:<36} {:>14.6} {:<6} (n={})",
            x.name, x.value, x.unit, x.samples
        );
    }
    if !args.trace {
        for x in metrics::printed_only(m) {
            println!(
                "  {:<36} {:>14.6} {:<6} (n={}, not in the result line)",
                x.name, x.value, x.unit, x.samples
            );
        }
    }
    let finite = metrics.iter().all(|x| x.value.is_finite());
    let checks_ok = h.failures.is_empty();
    println!(
        "checks: {} health checks (finite, max|u| < {MAX_SPEED}{}), {} checkpoint/restore cycles with digest equality; max|u| {:.4}, worst mass drift {:.3e}",
        h.checks,
        if h.check_mass { format!(", mass drift <= {MASS_DRIFT_PER_STEP:e} per step") } else { String::new() },
        m.encode_ms.len().max(m.decode_ms.len()),
        h.max_speed,
        h.worst_drift
    );
    for f in &h.failures {
        println!("  FAILED: {f}");
    }
    if !finite {
        println!("  FAILED: a metric is not finite");
    }
    println!("operations: attempted {}, failed {}", h.attempted, h.failed);
    let correct = checks_ok && finite && h.failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, h.attempted, h.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_the_ones_benchmark_json_lists() {
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, metrics::tests::listed("workloads"));
    }

    #[test]
    fn perturbation_is_seeded() {
        let c = Coord { x: 3, y: -1, z: 7 };
        assert_eq!(perturbed(5, [0.0; 3])(1, c), perturbed(5, [0.0; 3])(1, c));
        assert_ne!(perturbed(5, [0.0; 3])(1, c), perturbed(6, [0.0; 3])(1, c));
        let u = perturbed(5, [0.05, 0.0, 0.0])(0, c);
        assert!((u[0] - 0.05).abs() <= PERTURBATION && u[1].abs() <= PERTURBATION);
    }
}
