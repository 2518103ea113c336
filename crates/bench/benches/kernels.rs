//! Microbenchmarks of the per-cell kernels: collision operators, the
//! streaming gather, and the value of the Fig.-4f fusion on a single level
//! (the per-kernel substrate of the paper's evaluation).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use lbm_core::{AllWalls, Engine, GridSpec, MultiGrid, Variant};
use lbm_gpu::{DeviceModel, Executor};
use lbm_lattice::{equilibrium, Bgk, Collision, Kbc, D3Q19, D3Q27, MAX_Q};
use lbm_sparse::Box3;

fn collision_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("collision");
    let cells = 4096u64;
    group.throughput(Throughput::Elements(cells));

    let make_state = |q: usize| -> Vec<[f64; MAX_Q]> {
        (0..cells)
            .map(|k| {
                let mut f = [0.0; MAX_Q];
                let u = [
                    0.03 * (k as f64 * 0.01).sin(),
                    0.02 * (k as f64 * 0.02).cos(),
                    0.01,
                ];
                if q == 19 {
                    equilibrium::<f64, D3Q19>(1.0, u, &mut f);
                } else {
                    equilibrium::<f64, D3Q27>(1.0, u, &mut f);
                }
                // Perturb off equilibrium so the operators do real work.
                f[1] += 1e-3;
                f[2] -= 1e-3;
                f
            })
            .collect()
    };

    let bgk = Bgk::new(1.6_f64);
    let state19 = make_state(19);
    group.bench_function("bgk_d3q19", |b| {
        b.iter_batched_ref(
            || state19.clone(),
            |s| {
                for f in s.iter_mut() {
                    Collision::<f64, D3Q19>::collide(&bgk, black_box(f));
                }
            },
            BatchSize::LargeInput,
        )
    });

    let kbc = Kbc::new(1.6_f64);
    let state27 = make_state(27);
    group.bench_function("kbc_d3q27", |b| {
        b.iter_batched_ref(
            || state27.clone(),
            |s| {
                for f in s.iter_mut() {
                    Collision::<f64, D3Q27>::collide(&kbc, black_box(f));
                }
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn engine(n: usize, variant: Variant) -> Engine<f64, D3Q19, Bgk<f64>> {
    let spec = GridSpec::uniform(Box3::from_dims(n, n, n)).with_block_size(8);
    let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.6);
    let mut eng = Engine::builder(grid)
        .collision(Bgk::new(1.6))
        .variant(variant)
        .build(Executor::new(DeviceModel::a100_40gb()));
    eng.grid
        .init_equilibrium(|_, _| 1.0, |_, _| [0.01, 0.0, 0.0]);
    eng
}

/// Fused single-kernel step (Fig. 4f) vs the separate S-then-C pipeline on
/// a uniform grid: the single-level essence of the paper's optimization.
fn fusion_single_level(c: &mut Criterion) {
    let n = 48usize;
    let mut group = c.benchmark_group("fusion_single_level");
    group.sample_size(10);
    group.throughput(Throughput::Elements((n * n * n) as u64));
    let mut fused = engine(n, Variant::FullyFused);
    group.bench_function("fused_CS", |b| b.iter(|| fused.step()));
    let mut split = engine(n, Variant::ModifiedBaseline);
    group.bench_function("separate_S_then_C", |b| b.iter(|| split.step()));
    group.finish();
}

criterion_group!(benches, collision_ops, fusion_single_level);
criterion_main!(benches);
