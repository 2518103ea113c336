//! Table I (paper §VI-B): flow over sphere, modified baseline (Fig. 4b)
//! vs the most optimized variant (Fig. 4f), across the three tunnel sizes
//! (scaled 1/8 for the host; the shape — fused wins, margin shrinking with
//! size — is what the paper reports).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use lbm_core::Variant;
use lbm_gpu::{DeviceModel, Executor};
use lbm_problems::sphere::{SphereConfig, SphereFlow};

fn table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_sphere");
    group.sample_size(10);
    for size in SphereConfig::table1_sizes(8) {
        let label = format!("{}x{}x{}", size[0], size[1], size[2]);
        for variant in [Variant::ModifiedBaseline, Variant::FusedAll] {
            let flow = SphereFlow::new(SphereConfig::for_size(size));
            let mut eng = flow.engine(variant, Executor::new(DeviceModel::a100_40gb()));
            eng.run(1); // warm the fields
            group.throughput(Throughput::Elements(eng.work_per_coarse_step()));
            group.bench_with_input(BenchmarkId::new(variant.name(), &label), &(), |b, _| {
                b.iter(|| eng.step())
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(5));
    targets = table1
}
criterion_main!(benches);
