//! The metric catalog (what `BENCHMARK.json` lists) and the functions that
//! turn one run's measurements into exactly those metrics.

use std::fmt::Write as _;

use lbm_gpu::KernelStats;

use crate::stats::{median, percentile};

/// End-to-end metrics: `(name, unit)`. Every workload emits all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("mlups", "MLUPS"),
    ("step_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("checkpoint_ms_p50", "ms"),
    ("restore_ms_p50", "ms"),
];

/// Printed beside the end-to-end metrics but left out of the result line:
/// the step-time tail and the mean-based throughput follow the host's
/// CPU steal time, which moves them by far more than any bound a change
/// could be held to (see `perfbench/README.md`).
pub const PRINTED_ONLY: [(&str, &str); 2] = [("step_ms_p95", "ms"), ("mlups_mean", "MLUPS")];

/// Kernels of the 3-level `FusedAll` step program that declare cells.
pub const CELL_KERNELS: [&str; 7] = ["CASE2", "SEO0", "SEO1", "C0", "C1", "R0", "R1"];

/// Staged-Accumulate merges: they declare no cells, so they get no
/// per-cell figure.
pub const MERGE_KERNELS: [&str; 2] = ["M1", "M2"];

/// Per-layer metrics that are not per kernel: `(name, unit)`.
const LAYER_SCALARS: [(&str, &str); 22] = [
    ("lattice.bgk_d3q19.ns_per_cell", "ns"),
    ("lattice.kbc_d3q27.ns_per_cell", "ns"),
    ("core.dispatch_frac", "ratio"),
    ("problems.spec_ms", "ms"),
    ("core.build_s", "s"),
    ("core.engine_build_s", "s"),
    ("core.init_s", "s"),
    ("runtime.schedule_ms", "ms"),
    ("core.checkpoint.encode_ms", "ms"),
    ("core.checkpoint.write_ms", "ms"),
    ("core.checkpoint.read_ms", "ms"),
    ("core.checkpoint.decode_ms", "ms"),
    ("core.checkpoint.snapshot_mib", "MiB"),
    ("gpu.launches_per_step", "count"),
    ("gpu.syncs_per_step", "count"),
    ("gpu.waves_per_step", "count"),
    ("gpu.bytes_per_step", "B"),
    ("gpu.model_a100_mlups", "MLUPS"),
    ("gpu.pool.imbalance", "ratio"),
    ("host.copy_gbps", "GB/s"),
    ("problems.mass_drift_rel", "ratio"),
    ("problems.max_speed", "lu"),
];

/// The traced run's own cost.
const TRACE_OVERHEAD: (&str, &str) = ("trace.overhead_frac", "ratio");

/// Every per-layer metric `(name, unit)`, in emission order.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |n: &str, u| out.push((n.to_string(), u));
    for &(n, u) in &LAYER_SCALARS[..2] {
        push(n, u);
    }
    for k in CELL_KERNELS {
        for (m, u) in [
            ("us_per_step", "us"),
            ("ns_per_cell", "ns"),
            ("gbps", "GB/s"),
            ("roofline_frac", "ratio"),
        ] {
            push(&format!("core.kernel.{k}.{m}"), u);
        }
    }
    for k in MERGE_KERNELS {
        for (m, u) in [
            ("us_per_step", "us"),
            ("gbps", "GB/s"),
            ("roofline_frac", "ratio"),
        ] {
            push(&format!("core.kernel.{k}.{m}"), u);
        }
    }
    for &(n, u) in &LAYER_SCALARS[2..] {
        push(n, u);
    }
    push(TRACE_OVERHEAD.0, TRACE_OVERHEAD.1);
    out
}

/// One reported value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalog name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Wall time of each part of one set-up, seconds.
#[derive(Copy, Clone, Debug, Default)]
pub struct SetupTimes {
    /// Building the problem's `GridSpec`.
    pub spec: f64,
    /// `MultiGrid::build`.
    pub build: f64,
    /// `EngineBuilder::build`.
    pub engine_build: f64,
    /// `MultiGrid::init_equilibrium`.
    pub init: f64,
}

impl SetupTimes {
    /// From problem config to a ready engine.
    pub fn total(&self) -> f64 {
        self.spec + self.build + self.engine_build + self.init
    }
}

/// Everything one run measured.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Lattice updates per coarse step, `Σ_L V_L·2^L`.
    pub work_per_step: u64,
    /// Wall time of each timed step without tracing, seconds.
    pub step_s: Vec<f64>,
    /// Wall time of each traced step, seconds (traced run only).
    pub traced_step_s: Vec<f64>,
    /// Each set-up of the run.
    pub setups: Vec<SetupTimes>,
    /// VmHWM of the process, MiB.
    pub peak_rss_mib: f64,
    /// Per checkpoint/restore cycle, milliseconds.
    pub encode_ms: Vec<f64>,
    /// See [`Measured::encode_ms`].
    pub write_ms: Vec<f64>,
    /// See [`Measured::encode_ms`].
    pub read_ms: Vec<f64>,
    /// See [`Measured::encode_ms`].
    pub decode_ms: Vec<f64>,
    /// Size of one snapshot.
    pub snapshot_bytes: u64,
    /// Steps the profiler counted.
    pub profiled_steps: u64,
    /// Per-kernel profiler statistics over the profiled steps.
    pub kernels: Vec<(&'static str, KernelStats)>,
    /// Profiler totals over the profiled steps.
    pub total: KernelStats,
    /// Synchronization points over the profiled steps.
    pub syncs: u64,
    /// Executor waves over the profiled steps.
    pub waves: u64,
    /// Blocks each pool thread ran (empty on one thread).
    pub thread_blocks: Vec<u64>,
    /// A100 cost model over the profiled steps.
    pub model_mlups: f64,
    /// Each timed `Engine::step_task_graph`, milliseconds.
    pub schedule_ms: Vec<f64>,
    /// `Bgk` D3Q19 alone.
    pub bgk_ns_per_cell: f64,
    /// `Kbc` D3Q27 alone.
    pub kbc_ns_per_cell: f64,
    /// Host roofline reference.
    pub copy_gbps: f64,
    /// `|M_end − M_0| / M_0` over the run.
    pub mass_drift_rel: f64,
    /// Largest `|u|` at the end of the run.
    pub max_speed: f64,
}

/// Lattice updates per second of the median step, in millions.
fn mlups(work_per_step: u64, step_s: &[f64]) -> f64 {
    work_per_step as f64 / med(step_s) / 1e6
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn sum_ms(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

fn metric(&(name, unit): &(&str, &'static str), value: f64, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// The untraced run's result-line metrics, in [`END_TO_END`] order.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let ms: Vec<f64> = m.step_s.iter().map(|s| s * 1e3).collect();
    let setup: Vec<f64> = m.setups.iter().map(SetupTimes::total).collect();
    let n = ms.len();
    let values = [
        (mlups(m.work_per_step, &m.step_s), n),
        (med(&ms), n),
        (med(&setup), setup.len()),
        (m.peak_rss_mib, 1),
        (med(&sum_ms(&m.encode_ms, &m.write_ms)), m.encode_ms.len()),
        (med(&sum_ms(&m.read_ms, &m.decode_ms)), m.read_ms.len()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(nu, (value, samples))| metric(nu, value, samples))
        .collect()
}

/// The untraced run's [`PRINTED_ONLY`] metrics.
pub fn printed_only(m: &Measured) -> Vec<Metric> {
    let ms: Vec<f64> = m.step_s.iter().map(|s| s * 1e3).collect();
    let n = ms.len();
    let mean = m.work_per_step as f64 * n as f64 / m.step_s.iter().sum::<f64>() / 1e6;
    vec![
        metric(&PRINTED_ONLY[0], percentile(&ms, 95.0).unwrap_or(0.0), n),
        metric(&PRINTED_ONLY[1], mean, n),
    ]
}

/// The traced run's metrics, in [`per_layer_catalog`] order.
pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let steps = m.profiled_steps.max(1) as f64;
    let stats = |k: &str| {
        m.kernels
            .iter()
            .find(|(n, _)| *n == k)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    };
    let traffic = |s: &KernelStats| (s.bytes_read + s.bytes_written + s.atomic_bytes) as f64;
    let gbps = |s: &KernelStats| {
        if s.wall_us > 0.0 {
            traffic(s) / (s.wall_us * 1e3)
        } else {
            0.0
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let kernel_value = |k: &str, field: &str| {
        let s = stats(k);
        match field {
            "us_per_step" => s.wall_us / steps,
            "ns_per_cell" => ratio(s.wall_us * 1e3, s.cells as f64),
            "gbps" => gbps(&s),
            "roofline_frac" => ratio(gbps(&s), m.copy_gbps),
            _ => unreachable!("unknown kernel field {field}"),
        }
    };
    let all_steps: f64 = m.step_s.iter().chain(&m.traced_step_s).sum();
    let setup = |f: fn(&SetupTimes) -> f64| med(&m.setups.iter().map(f).collect::<Vec<_>>());
    let mean_blocks =
        m.thread_blocks.iter().sum::<u64>() as f64 / m.thread_blocks.len().max(1) as f64;
    let max_blocks = m.thread_blocks.iter().copied().max().unwrap_or(0) as f64;
    let ckpt = m.encode_ms.len();
    per_layer_catalog()
        .into_iter()
        .map(|(name, unit)| {
            let (value, samples) = match name.as_str() {
                "lattice.bgk_d3q19.ns_per_cell" => (m.bgk_ns_per_cell, 1),
                "lattice.kbc_d3q27.ns_per_cell" => (m.kbc_ns_per_cell, 1),
                "core.dispatch_frac" => (
                    1.0 - ratio(m.total.wall_us * 1e-6, all_steps),
                    m.profiled_steps as usize,
                ),
                "problems.spec_ms" => (setup(|s| s.spec) * 1e3, m.setups.len()),
                "core.build_s" => (setup(|s| s.build), m.setups.len()),
                "core.engine_build_s" => (setup(|s| s.engine_build), m.setups.len()),
                "core.init_s" => (setup(|s| s.init), m.setups.len()),
                "runtime.schedule_ms" => (med(&m.schedule_ms), m.schedule_ms.len()),
                "core.checkpoint.encode_ms" => (med(&m.encode_ms), ckpt),
                "core.checkpoint.write_ms" => (med(&m.write_ms), ckpt),
                "core.checkpoint.read_ms" => (med(&m.read_ms), ckpt),
                "core.checkpoint.decode_ms" => (med(&m.decode_ms), ckpt),
                "core.checkpoint.snapshot_mib" => {
                    (m.snapshot_bytes as f64 / (1u64 << 20) as f64, ckpt)
                }
                "gpu.launches_per_step" => {
                    (m.total.launches as f64 / steps, m.profiled_steps as usize)
                }
                "gpu.syncs_per_step" => (m.syncs as f64 / steps, m.profiled_steps as usize),
                "gpu.waves_per_step" => (m.waves as f64 / steps, m.profiled_steps as usize),
                "gpu.bytes_per_step" => (traffic(&m.total) / steps, m.profiled_steps as usize),
                "gpu.model_a100_mlups" => (m.model_mlups, m.profiled_steps as usize),
                // One thread does all the work: perfectly balanced.
                "gpu.pool.imbalance" if m.thread_blocks.is_empty() => (1.0, 0),
                "gpu.pool.imbalance" => (ratio(max_blocks, mean_blocks), m.thread_blocks.len()),
                "host.copy_gbps" => (m.copy_gbps, 1),
                "problems.mass_drift_rel" => (m.mass_drift_rel, 1),
                "problems.max_speed" => (m.max_speed, 1),
                "trace.overhead_frac" => (
                    1.0 - ratio(
                        mlups(m.work_per_step, &m.traced_step_s),
                        mlups(m.work_per_step, &m.step_s),
                    ),
                    m.traced_step_s.len(),
                ),
                kernel => {
                    let (k, field) = kernel
                        .strip_prefix("core.kernel.")
                        .and_then(|r| r.split_once('.'))
                        .expect("catalog names are kernel metrics or listed above");
                    (kernel_value(k, field), stats(k).launches as usize)
                }
            };
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value", "unit"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stats::valid_name;

    /// Names listed under `key` in `BENCHMARK.json`.
    pub(crate) fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[body.find('[').unwrap()..body.find(']').unwrap()];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).unwrap().to_string())
            .collect()
    }

    fn names(ms: &[Metric]) -> Vec<String> {
        ms.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn every_listed_metric_is_emitted_by_every_workload() {
        // A run that measured nothing still emits each listed name once.
        let m = Measured::default();
        assert_eq!(names(&end_to_end(&m)), listed("end_to_end"));
        assert_eq!(names(&per_layer(&m)), listed("per_layer"));
        let units: Vec<_> = per_layer_catalog().into_iter().map(|(_, u)| u).collect();
        assert_eq!(
            units,
            per_layer(&m).iter().map(|m| m.unit).collect::<Vec<_>>()
        );
    }

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END
            .iter()
            .chain(&PRINTED_ONLY)
            .map(|(n, _)| n.to_string())
            .collect();
        all.extend(per_layer_catalog().into_iter().map(|(n, _)| n));
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn merges_get_no_per_cell_figure() {
        let cat = per_layer_catalog();
        for k in MERGE_KERNELS {
            assert!(cat
                .iter()
                .all(|(n, _)| n != &format!("core.kernel.{k}.ns_per_cell")));
            assert!(cat
                .iter()
                .any(|(n, _)| n == &format!("core.kernel.{k}.us_per_step")));
        }
    }

    #[test]
    fn end_to_end_values_come_from_the_samples() {
        let m = Measured {
            work_per_step: 2_000_000,
            step_s: vec![0.5; 200],
            setups: vec![
                SetupTimes {
                    spec: 0.1,
                    build: 0.2,
                    engine_build: 0.0,
                    init: 0.0,
                },
                SetupTimes {
                    spec: 0.1,
                    build: 0.4,
                    engine_build: 0.0,
                    init: 0.0,
                },
                SetupTimes {
                    spec: 0.1,
                    build: 0.3,
                    engine_build: 0.0,
                    init: 0.0,
                },
            ],
            encode_ms: vec![1.0, 3.0, 2.0],
            write_ms: vec![1.0, 1.0, 1.0],
            read_ms: vec![1.0, 1.0, 1.0],
            decode_ms: vec![5.0, 5.0, 6.0],
            ..Measured::default()
        };
        let e = end_to_end(&m);
        let v = |n: &str| e.iter().find(|x| x.name == n).unwrap();
        assert!((v("mlups").value - 4.0).abs() < 1e-12);
        assert_eq!(v("step_ms_p50").value, 500.0);
        assert_eq!(v("step_ms_p50").samples, 200);
        assert!((v("setup_s").value - 0.4).abs() < 1e-12);
        assert_eq!(v("checkpoint_ms_p50").value, 3.0);
        assert_eq!(v("restore_ms_p50").value, 6.0);
        let mut slow = m.clone();
        slow.step_s[0] = 100.0;
        let p = printed_only(&slow);
        assert_eq!(p[0].value, 500.0, "one slow step is beyond the p95 of 200");
        assert!(p[1].value < 4.0, "the mean-based figure sees the slow step");
        assert!(
            (end_to_end(&slow)[0].value - 4.0).abs() < 1e-12,
            "the median-based one does not"
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &end_to_end(&Measured::default()));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"mlups\": {\"value\": "));
        assert!(line.ends_with("\"unit\": \"ms\"}}}"));
    }
}
