//! Cross-thread-count determinism: the block-parallel executor must
//! produce **bit-identical** physics at every pool width. The reference is
//! the single-thread serial atomic scatter; the parallel engines run the
//! staged scatter+merge Accumulate (DESIGN.md §10), whose fixed-order merge
//! replays the serial addition order exactly — so the comparison is
//! bit-level (FNV-1a digest plus accessor-order slot comparison), not
//! tolerance-based.
//!
//! What is *not* compared across thread counts: profiler traffic totals.
//! The staged program launches extra merge kernels with their own declared
//! traffic, so a staged engine legitimately declares more bytes than a
//! serial one — equality of physics, not of metering, is the pin here.

mod common;

use common::{assert_logical_bits_identical, grid_digest, seeded_engine_with, EngineOpts};
use lbm_refinement::core::{ExecMode, Variant};
use lbm_refinement::lattice::{VelocitySet, D3Q19, D3Q27};
use lbm_refinement::sparse::Layout;

/// Runs one seeded geometry at thread counts {1, 2, 4, 8} and asserts the
/// final state digests and every population slot agree with the 1-thread
/// serial-atomic reference.
fn check_threads_agree<V: VelocitySet>(
    seed: u64,
    variant: Variant,
    mode: ExecMode,
    layout: Layout,
    steps: usize,
) {
    let base = EngineOpts {
        mode,
        layout,
        ..EngineOpts::default()
    };
    let mut reference = seeded_engine_with::<V>(seed, variant, base);
    assert!(
        !reference.staged_accumulate(),
        "1-thread default must be the serial atomic path"
    );
    reference.run(steps);
    let ref_digest = grid_digest(&reference.grid);

    for threads in [2usize, 4, 8] {
        let mut eng = seeded_engine_with::<V>(
            seed,
            variant,
            EngineOpts {
                threads: Some(threads),
                ..base
            },
        );
        assert!(
            eng.staged_accumulate(),
            "multi-thread default must be the staged path"
        );
        assert_eq!(eng.thread_count(), threads);
        eng.run(steps);
        let what = format!(
            "seed {seed} {} {} {mode:?} {layout:?} threads={threads}",
            variant.name(),
            V::NAME
        );
        assert_eq!(
            grid_digest(&eng.grid),
            ref_digest,
            "{what}: state digest diverged from the 1-thread reference"
        );
        assert_logical_bits_identical(&reference, &eng, &what);
    }
}

#[test]
fn bit_identity_across_thread_counts_d3q19_all_variants() {
    for variant in Variant::ALL {
        check_threads_agree::<D3Q19>(31, variant, ExecMode::Eager, Layout::default(), 3);
    }
}

#[test]
fn bit_identity_across_thread_counts_d3q27() {
    check_threads_agree::<D3Q27>(32, Variant::FusedAll, ExecMode::Eager, Layout::default(), 2);
    check_threads_agree::<D3Q27>(
        33,
        Variant::ModifiedBaseline,
        ExecMode::Eager,
        Layout::default(),
        2,
    );
}

#[test]
fn bit_identity_under_graph_mode() {
    check_threads_agree::<D3Q19>(34, Variant::FusedAll, ExecMode::Graph, Layout::default(), 3);
    check_threads_agree::<D3Q19>(
        35,
        Variant::ModifiedBaseline,
        ExecMode::Graph,
        Layout::default(),
        2,
    );
    check_threads_agree::<D3Q27>(36, Variant::FusedAll, ExecMode::Graph, Layout::default(), 2);
}

#[test]
fn bit_identity_across_layouts_and_threads() {
    // The two axes compose: a tiled 8-thread engine must still match the
    // SoA 1-thread reference bit for bit (logical comparison is
    // layout-blind).
    for layout in [Layout::CellAoS, Layout::Tiled { width: 32 }] {
        check_threads_agree::<D3Q19>(37, Variant::FusedAll, ExecMode::Eager, layout, 2);
    }
}

#[test]
fn staged_path_is_bit_identical_on_one_thread() {
    // Force the staged split onto the serial executor: the ordered merge
    // must reproduce the atomic scatter's addition order exactly, so even
    // this degenerate configuration is bit-identical to the default.
    for variant in [Variant::ModifiedBaseline, Variant::FusedAll] {
        let mut serial = seeded_engine_with::<D3Q19>(38, variant, EngineOpts::default());
        let mut staged = seeded_engine_with::<D3Q19>(
            38,
            variant,
            EngineOpts {
                staged: Some(true),
                ..EngineOpts::default()
            },
        );
        assert!(!serial.staged_accumulate());
        assert!(staged.staged_accumulate());
        serial.run(3);
        staged.run(3);
        let what = format!("staged@1thread {}", variant.name());
        assert_eq!(
            grid_digest(&serial.grid),
            grid_digest(&staged.grid),
            "{what}"
        );
        assert_logical_bits_identical(&serial, &staged, &what);
    }
}

#[test]
fn digests_discriminate_different_states() {
    // Sanity of the instrument itself: different seeds produce different
    // digests (the determinism pin would be vacuous otherwise).
    let mut a = seeded_engine_with::<D3Q19>(40, Variant::FusedAll, EngineOpts::default());
    let mut b = seeded_engine_with::<D3Q19>(41, Variant::FusedAll, EngineOpts::default());
    a.run(1);
    b.run(1);
    assert_ne!(grid_digest(&a.grid), grid_digest(&b.grid));
}

/// Digest pin for the entropic KBC operator on D3Q27: the only collision
/// the committed `report` digests never run. A small wind-tunnel sphere
/// (three levels, velocity inlet, sphere and side-wall bounce-back) is
/// kicked off equilibrium in every slot so that KBC's stabilizer sees
/// `⟨Δh|Δh⟩ ≠ 0` everywhere, then steps on the sequential executor. The
/// fused program (fused kernel on the finest level, `collide` on the
/// coarser ones) runs block-SoA; the split baseline runs cell-AoS, so the
/// standalone `collide` kernel is pinned under both addressings.
#[test]
fn kbc_d3q27_sphere_digest_is_pinned() {
    use lbm_refinement::gpu::{DeviceModel, Executor};
    use lbm_refinement::problems::sphere::{SphereConfig, SphereFlow};

    let flow = SphereFlow::new(SphereConfig::for_size([40, 32, 32]));
    let cases = [
        (Variant::FusedAll, Layout::BlockSoA, 0xfaa4_ae2e_6bb2_3754),
        (
            Variant::ModifiedBaseline,
            Layout::CellAoS,
            0x3c2e_1b2c_e4ee_3cc5,
        ),
    ];
    for (variant, layout, pinned) in cases {
        let exec = Executor::sequential(DeviceModel::a100_40gb());
        let mut eng = flow.engine_with(variant, exec, |b| b.layout(layout));
        let mut state = 0x5eed_4bc2_7d3e_u64;
        for level in &mut eng.grid.levels {
            let f = level.f.src_mut();
            for (r, _) in level.grid.iter_active() {
                for i in 0..D3Q27::Q {
                    let jitter = (common::xorshift(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                    let v = f.get(r.block, i, r.cell);
                    f.set(r.block, i, r.cell, v * (1.0 + 0.02 * (jitter - 0.5)));
                }
            }
        }
        eng.run(4);
        let digest = grid_digest(&eng.grid);
        assert_eq!(
            digest, pinned,
            "KBC D3Q27 sphere {variant:?} {layout:?}: state digest {digest:#018x} moved"
        );
    }
}
