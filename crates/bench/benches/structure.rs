//! Data-structure ablations (paper §V): space-filling-curve block
//! ordering (Sweep / Morton / Hilbert), memory block size (including the
//! waLBerla-like 2³), and gather- vs scatter-style Accumulate (§IV-A).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use lbm_core::{AllWalls, Engine, GridSpec, MultiGrid, Variant};
use lbm_gpu::{DeviceModel, Executor};
use lbm_lattice::{Bgk, D3Q19};
use lbm_sparse::{Box3, SpaceFillingCurve};

fn sphereish_spec(curve: SpaceFillingCurve, block: usize) -> GridSpec {
    // A shell-refined box: enough block-boundary traffic for ordering and
    // block-size effects to show.
    GridSpec::new(2, Box3::from_dims(64, 64, 64), |l, p| {
        let d2 = (p - lbm_sparse::Coord::new(16, 16, 16)).norm2();
        l == 0 && d2 < 121.0
    })
    .with_curve(curve)
    .with_block_size(block)
}

fn engine(
    curve: SpaceFillingCurve,
    block: usize,
    variant: Variant,
) -> Engine<f64, D3Q19, Bgk<f64>> {
    let grid = MultiGrid::<f64, D3Q19>::build(sphereish_spec(curve, block), &AllWalls, 1.6);
    let mut eng = Engine::builder(grid)
        .collision(Bgk::new(1.6))
        .variant(variant)
        .build(Executor::new(DeviceModel::a100_40gb()));
    eng.grid
        .init_equilibrium(|_, _| 1.0, |_, _| [0.02, 0.0, 0.0]);
    eng
}

fn sfc_ordering(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfc_ordering");
    group.sample_size(10);
    for curve in SpaceFillingCurve::ALL {
        let mut eng = engine(curve, 4, Variant::FusedAll);
        eng.run(1);
        group.throughput(Throughput::Elements(eng.work_per_coarse_step()));
        group.bench_function(curve.name(), |b| b.iter(|| eng.step()));
    }
    group.finish();
}

fn block_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_size");
    group.sample_size(10);
    for block in [2usize, 4, 8, 16] {
        let mut eng = engine(SpaceFillingCurve::Morton, block, Variant::FusedAll);
        eng.run(1);
        group.throughput(Throughput::Elements(eng.work_per_coarse_step()));
        group.bench_with_input(BenchmarkId::new("B", block), &(), |b, _| {
            b.iter(|| eng.step())
        });
    }
    group.finish();
}

/// Gather- vs scatter-initiated Accumulate (paper §IV-A): the modified
/// baseline gathers from the coarse side; the optimized variants scatter
/// atomically from the fine side (which is what makes the CA fusion
/// possible).
fn accumulate_style(c: &mut Criterion) {
    let mut group = c.benchmark_group("accumulate_style");
    group.sample_size(10);
    // Gather: ModifiedBaseline (coarse-initiated A kernel).
    let mut gather = engine(SpaceFillingCurve::Morton, 4, Variant::ModifiedBaseline);
    gather.run(1);
    group.bench_function("gather_coarse_initiated", |b| b.iter(|| gather.step()));
    // Scatter: FusedCa (atomic scatter fused into the fine sweep).
    let mut scatter = engine(SpaceFillingCurve::Morton, 4, Variant::FusedCa);
    scatter.run(1);
    group.bench_function("scatter_atomic_fused", |b| b.iter(|| scatter.step()));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(4));
    targets = sfc_ordering, block_size, accumulate_style
}
criterion_main!(benches);
