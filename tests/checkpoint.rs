//! Crash-safe checkpoint/restart: property tests for the snapshot format
//! and the engine health guards (DESIGN.md §11).
//!
//! The core property is **restart equivalence**: save → fresh engine →
//! restore → run N steps must be bit-identical to the same engine never
//! having been interrupted — across velocity sets, memory layouts,
//! execution modes and pool widths, and even when the snapshot is restored
//! under a *different* layout than it was saved under (the format is
//! canonical). Damaged snapshots must fail cleanly and leave the target
//! engine untouched.

mod common;

use common::{assert_logical_bits_identical, grid_digest, seeded_engine_with, EngineOpts};
use std::ops::Range;

use lbm_refinement::core::checkpoint::{MAGIC, VERSION};
use lbm_refinement::core::AllWalls;
use lbm_refinement::core::{
    CheckpointError, Engine, ExecMode, GridSpec, HealthAction, HealthCause, HealthGuard,
    HealthPolicy, MultiGrid, Variant,
};
use lbm_refinement::gpu::{DeviceModel, Executor};
use lbm_refinement::lattice::{Bgk, VelocitySet, D3Q19, D3Q27};
use lbm_refinement::sparse::{Box3, Layout};

/// Runs one restart-equivalence case: `reference` runs `total` steps in one
/// piece; a second engine is interrupted at `k`, snapshotted, dropped, and
/// a fresh third engine restores the snapshot and finishes. Final states
/// must agree bit-for-bit.
fn restart_case<V: VelocitySet>(seed: u64, opts: EngineOpts, total: usize, k: usize, what: &str) {
    let mut reference = seeded_engine_with::<V>(seed, Variant::FusedAll, opts);
    reference.run(total);

    let mut interrupted = seeded_engine_with::<V>(seed, Variant::FusedAll, opts);
    interrupted.run(k);
    let blob = interrupted.checkpoint();
    drop(interrupted); // the "crashed" process is gone

    let mut resumed = seeded_engine_with::<V>(seed, Variant::FusedAll, opts);
    resumed
        .restore(&blob)
        .unwrap_or_else(|e| panic!("{what}: restore failed: {e}"));
    assert_eq!(
        resumed.coarse_steps(),
        k as u64,
        "{what}: restored step count"
    );
    resumed.run(total - k);

    assert_eq!(
        grid_digest(&reference.grid),
        grid_digest(&resumed.grid),
        "{what}: resumed digest differs from uninterrupted"
    );
    assert_logical_bits_identical(&reference, &resumed, what);
}

#[test]
fn restart_is_bit_identical_across_layouts_and_modes() {
    for seed in [3u64, 11] {
        for mode in [ExecMode::Eager, ExecMode::Graph] {
            for layout in [
                Layout::BlockSoA,
                Layout::CellAoS,
                Layout::Tiled { width: 16 },
            ] {
                let opts = EngineOpts {
                    mode,
                    layout,
                    ..EngineOpts::default()
                };
                restart_case::<D3Q19>(
                    seed,
                    opts,
                    6,
                    3,
                    &format!("d3q19 seed={seed} {mode:?} {layout:?}"),
                );
            }
        }
    }
}

#[test]
fn restart_is_bit_identical_for_d3q27() {
    for (mode, layout) in [
        (ExecMode::Eager, Layout::CellAoS),
        (ExecMode::Graph, Layout::Tiled { width: 16 }),
    ] {
        let opts = EngineOpts {
            mode,
            layout,
            ..EngineOpts::default()
        };
        restart_case::<D3Q27>(5, opts, 6, 3, &format!("d3q27 {mode:?} {layout:?}"));
    }
}

#[test]
fn restart_is_bit_identical_with_thread_pool() {
    for threads in [1usize, 8] {
        let opts = EngineOpts {
            threads: Some(threads),
            ..EngineOpts::default()
        };
        restart_case::<D3Q19>(7, opts, 6, 3, &format!("threads={threads}"));
    }
}

/// A snapshot saved under one layout restores into an engine running any
/// other layout — the serialized bytes are canonical `(block, comp, cell)`
/// order, so the restore re-packs into whatever the target uses.
#[test]
fn snapshot_restores_across_layouts() {
    let (total, k, seed) = (6usize, 3usize, 13u64);
    let soa = EngineOpts::default();
    let mut reference = seeded_engine_with::<D3Q19>(seed, Variant::FusedAll, soa);
    reference.run(total);

    let mut interrupted = seeded_engine_with::<D3Q19>(seed, Variant::FusedAll, soa);
    interrupted.run(k);
    let blob = interrupted.checkpoint();

    for layout in [Layout::CellAoS, Layout::Tiled { width: 16 }] {
        let opts = EngineOpts {
            layout,
            ..EngineOpts::default()
        };
        let mut resumed = seeded_engine_with::<D3Q19>(seed, Variant::FusedAll, opts);
        resumed
            .restore(&blob)
            .unwrap_or_else(|e| panic!("cross-layout restore into {layout:?}: {e}"));
        resumed.run(total - k);
        assert_eq!(
            grid_digest(&reference.grid),
            grid_digest(&resumed.grid),
            "cross-layout restore into {layout:?}"
        );
        assert_logical_bits_identical(&reference, &resumed, &format!("soa->{layout:?}"));
    }
}

#[test]
fn bad_snapshots_fail_cleanly_and_leave_the_engine_untouched() {
    let mut eng = seeded_engine_with::<D3Q19>(9, Variant::FusedAll, EngineOpts::default());
    eng.run(2);
    let good = eng.checkpoint();
    let before = grid_digest(&eng.grid);

    // Truncation before the header is unambiguous.
    for cut in [0usize, 4] {
        let err = eng.restore(&good[..cut]).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Truncated),
            "cut at {cut}: expected Truncated, got {err}"
        );
    }
    // Mid-body truncation fails too (Truncated or ChecksumMismatch
    // depending on where the cut lands — both are clean errors).
    for cut in [good.len() / 2, good.len() - 1] {
        assert!(eng.restore(&good[..cut]).is_err(), "cut at {cut} must fail");
    }
    // A single flipped bit trips the checksum.
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    assert!(
        matches!(
            eng.restore(&bad).unwrap_err(),
            CheckpointError::ChecksumMismatch
        ),
        "bit flip must trip the checksum"
    );
    // Garbage is recognized before anything else.
    let err = eng.restore(b"definitely not a checkpoint").unwrap_err();
    assert!(matches!(err, CheckpointError::BadMagic), "got {err}");

    // Every failure above left the engine bit-identical and stepping.
    assert_eq!(
        grid_digest(&eng.grid),
        before,
        "failed restores must not mutate"
    );
    eng.run(1);
    assert_eq!(eng.coarse_steps(), 3);
}

#[test]
fn snapshot_rejects_structural_mismatch() {
    let eng19 = seeded_engine_with::<D3Q19>(9, Variant::FusedAll, EngineOpts::default());
    let blob = eng19.checkpoint();

    // Same geometry, wrong velocity set.
    let mut eng27 = seeded_engine_with::<D3Q27>(9, Variant::FusedAll, EngineOpts::default());
    let err = eng27.restore(&blob).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Mismatch(_)),
        "D3Q19 snapshot into D3Q27 engine: got {err}"
    );

    // Entirely different grid structure (single uniform level).
    let spec = GridSpec::uniform(Box3::from_dims(16, 16, 16));
    let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.6);
    let mut uniform = Engine::builder(grid)
        .collision(Bgk::new(1.6))
        .build(Executor::sequential(DeviceModel::a100_40gb()));
    let err = uniform.restore(&blob).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Mismatch(_)),
        "2-level snapshot into uniform engine: got {err}"
    );
}

// ---------------------------------------------------------------------------
// Snapshot format

/// Byte ranges of one level's record in a snapshot.
struct LevelRegions {
    echo: Range<usize>,
    flags: Range<usize>,
    halves: [Range<usize>; 2],
    /// `acc_len` and the accumulator words.
    acc: Range<usize>,
}

/// Byte ranges of a snapshot of `eng`, laid out as the format table in the
/// `lbm_core::checkpoint` module docs says.
struct Regions {
    header: Range<usize>,
    levels: Vec<LevelRegions>,
    body_len: usize,
}

fn regions<V: VelocitySet>(eng: &Engine<f64, V, Bgk<f64>>) -> Regions {
    let header = 0..MAGIC.len() + 4 * 4 + V::NAME.len() + 1 + 4 + 8 + 4;
    let mut at = header.end;
    let mut span = |n: usize| {
        at += n;
        at - n..at
    };
    let levels = eng
        .grid
        .levels
        .iter()
        .map(|lv| {
            let cells = lv.grid.num_blocks() * lv.grid.cells_per_block();
            let echo = span(8 + 4 + 1);
            let flags = span(cells);
            let halves = [span(8 * V::Q * cells), span(8 * V::Q * cells)];
            let acc = span(8 + 8 * lv.acc.len());
            LevelRegions {
                echo,
                flags,
                halves,
                acc,
            }
        })
        .collect();
    Regions {
        header,
        levels,
        body_len: span(0).end,
    }
}

/// The snapshot body (everything but the checksum trailer) of `eng`,
/// encoded independently from the public accessors — `Field::get` and
/// `AtomicF64Field::load_flat` — in canonical `(block, comp, cell)` order.
fn reference_body<V: VelocitySet>(eng: &Engine<f64, V, Bgk<f64>>) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&MAGIC);
    b.extend_from_slice(&VERSION.to_le_bytes());
    b.extend_from_slice(&64u32.to_le_bytes());
    b.extend_from_slice(&(V::Q as u32).to_le_bytes());
    b.extend_from_slice(&(V::NAME.len() as u32).to_le_bytes());
    b.extend_from_slice(V::NAME.as_bytes());
    let (tag, width) = match eng.grid.layout() {
        Layout::BlockSoA => (0u8, 0u32),
        Layout::CellAoS => (1, 0),
        Layout::Tiled { width } => (2, width),
    };
    b.push(tag);
    b.extend_from_slice(&width.to_le_bytes());
    b.extend_from_slice(&eng.coarse_steps().to_le_bytes());
    b.extend_from_slice(&(eng.grid.levels.len() as u32).to_le_bytes());
    for lv in &eng.grid.levels {
        let (blocks, cpb) = (
            lv.grid.num_blocks() as u32,
            lv.grid.cells_per_block() as u32,
        );
        b.extend_from_slice(&(blocks as u64).to_le_bytes());
        b.extend_from_slice(&cpb.to_le_bytes());
        b.push(lv.f.parity() as u8);
        for blk in 0..blocks {
            for cell in 0..cpb {
                b.push(lv.flags.get(blk, 0, cell));
            }
        }
        for h in 0..2 {
            let f = lv.f.half(h);
            for blk in 0..blocks {
                for comp in 0..V::Q {
                    for cell in 0..cpb {
                        b.extend_from_slice(&f.get(blk, comp, cell).to_bits().to_le_bytes());
                    }
                }
            }
        }
        b.extend_from_slice(&(lv.acc.len() as u64).to_le_bytes());
        for i in 0..lv.acc.len() {
            b.extend_from_slice(&lv.acc.load_flat(i).to_bits().to_le_bytes());
        }
    }
    b
}

/// For every layout, the snapshot is exactly the documented format with
/// payloads in canonical order: it equals, byte for byte up to the
/// checksum, a reference encoded from the public accessors.
#[test]
fn snapshot_payload_matches_the_accessor_reference() {
    for layout in [
        Layout::BlockSoA,
        Layout::CellAoS,
        Layout::Tiled { width: 16 },
    ] {
        let opts = EngineOpts {
            layout,
            ..EngineOpts::default()
        };
        let mut eng = seeded_engine_with::<D3Q19>(21, Variant::FusedAll, opts);
        eng.run(3);
        let blob = eng.checkpoint();
        let body = reference_body(&eng);
        assert_eq!(blob.len(), body.len() + 8, "{layout:?}: snapshot length");
        assert_eq!(regions(&eng).body_len, body.len(), "{layout:?}: regions");
        assert!(
            blob[..body.len()] == body[..],
            "{layout:?}: payload differs"
        );
    }
}

/// One flipped bit anywhere — header, every level's echo, flags, halves and
/// accumulators, the last partial 32-byte checksum group, the trailer —
/// gives a typed error and leaves the engine exactly as it was.
#[test]
fn single_bit_flips_fail_typed_and_leave_the_engine_untouched() {
    let mut eng = seeded_engine_with::<D3Q19>(9, Variant::FusedAll, EngineOpts::default());
    eng.run(2);
    let good = eng.checkpoint();
    let reg = regions(&eng);
    assert_eq!(reg.body_len + 8, good.len());

    let mut positions: Vec<usize> = reg.header.clone().collect();
    for lv in &reg.levels {
        for r in [&lv.echo, &lv.flags, &lv.halves[0], &lv.halves[1], &lv.acc] {
            positions.extend([r.start, r.start + r.len() / 2, r.end - 1]);
        }
    }
    let partial = reg.body_len % 32;
    assert!(
        partial > 0,
        "the body should end in a partial 32-byte group"
    );
    positions.extend(reg.body_len - partial..reg.body_len);
    positions.extend(reg.body_len..good.len());

    for (n, &pos) in positions.iter().enumerate() {
        let mut bad = good.clone();
        bad[pos] ^= 1 << (n % 8);
        let err = eng.restore(&bad).unwrap_err();
        let expected_ok = match pos {
            p if p < MAGIC.len() => err == CheckpointError::BadMagic,
            p if p < MAGIC.len() + 4 => matches!(err, CheckpointError::UnsupportedVersion(_)),
            _ => err == CheckpointError::ChecksumMismatch,
        };
        assert!(expected_ok, "flip at byte {pos}: {err}");
    }
    assert!(good == eng.checkpoint(), "failed restores must not mutate");
}

/// A snapshot cut short at any header offset, and at a stride through the
/// body, gives a typed error and leaves the engine untouched.
#[test]
fn truncated_snapshots_fail_typed() {
    let mut eng = seeded_engine_with::<D3Q19>(9, Variant::FusedAll, EngineOpts::default());
    eng.run(2);
    let good = eng.checkpoint();
    let reg = regions(&eng);
    let stride = good.len() / 61;
    let cuts = (0..reg.levels[0].flags.start).chain((reg.header.end..good.len()).step_by(stride));
    for cut in cuts {
        let err = eng.restore(&good[..cut]).unwrap_err();
        // Shorter than magic + version + trailer: nothing to checksum.
        let expected = if cut < MAGIC.len() + 4 + 8 {
            CheckpointError::Truncated
        } else {
            CheckpointError::ChecksumMismatch
        };
        assert_eq!(err, expected, "cut at {cut}");
    }
    assert!(good == eng.checkpoint(), "failed restores must not mutate");
}

// ---------------------------------------------------------------------------
// Health guards

fn poison(eng: &mut Engine<f64, D3Q19, Bgk<f64>>) {
    eng.grid.levels[0].f.src_mut().set(0, 3, 7, f64::NAN);
}

#[test]
fn abort_policy_halts_on_nan() {
    let opts = EngineOpts {
        health: Some(HealthGuard::new(1)),
        ..EngineOpts::default()
    };
    let mut eng = seeded_engine_with::<D3Q19>(4, Variant::FusedAll, opts);
    eng.run(2);
    assert!(!eng.halted());
    assert!(
        eng.health_events().is_empty(),
        "healthy run must record nothing"
    );

    poison(&mut eng);
    eng.run(5);
    assert!(eng.halted());
    assert_eq!(eng.coarse_steps(), 3, "run must stop at the failing step");
    let ev = *eng.health_events().last().unwrap();
    assert_eq!(ev.step, 3);
    assert_eq!(ev.cause, HealthCause::NonFinite);
    assert_eq!(ev.action, HealthAction::Aborted);

    // A halted engine refuses to step until restored.
    eng.step();
    assert_eq!(eng.coarse_steps(), 3);
}

#[test]
fn report_policy_records_but_keeps_running() {
    let opts = EngineOpts {
        health: Some(HealthGuard::new(1).policy(HealthPolicy::Report)),
        ..EngineOpts::default()
    };
    let mut eng = seeded_engine_with::<D3Q19>(4, Variant::FusedAll, opts);
    poison(&mut eng);
    eng.run(3);
    assert!(!eng.halted());
    assert_eq!(eng.coarse_steps(), 3, "Report must not stop the run");
    assert_eq!(eng.health_events().len(), 3, "one event per failing check");
    assert!(eng
        .health_events()
        .iter()
        .all(|e| e.action == HealthAction::Reported));
}

#[test]
fn speed_guard_reports_the_observed_speed() {
    // An absurdly tight bound: the seeded flow (~0.02 lattice units) trips
    // it on the first check, and the event carries the measured value.
    let opts = EngineOpts {
        health: Some(
            HealthGuard::new(1)
                .max_speed(1e-12)
                .policy(HealthPolicy::Report),
        ),
        ..EngineOpts::default()
    };
    let mut eng = seeded_engine_with::<D3Q19>(4, Variant::FusedAll, opts);
    eng.run(1);
    let ev = eng.health_events()[0];
    match ev.cause {
        HealthCause::SpeedExceeded(v) => assert!(v > 1e-12, "observed speed {v}"),
        other => panic!("expected SpeedExceeded, got {other:?}"),
    }
}

#[test]
fn rollback_policy_restores_the_last_healthy_state() {
    let opts = EngineOpts {
        health: Some(HealthGuard::new(1).policy(HealthPolicy::RollbackToLastCheckpoint(3))),
        ..EngineOpts::default()
    };
    let mut eng = seeded_engine_with::<D3Q19>(4, Variant::FusedAll, opts);
    eng.run(2); // healthy checks at steps 1 and 2 cut snapshots
    let healthy = grid_digest(&eng.grid);

    poison(&mut eng);
    eng.step(); // step 3 fails its check and rolls back to step 2
    assert!(!eng.halted());
    assert_eq!(
        eng.coarse_steps(),
        2,
        "rolled back to the last healthy step"
    );
    assert_eq!(
        grid_digest(&eng.grid),
        healthy,
        "state is the step-2 snapshot"
    );
    let ev = *eng.health_events().last().unwrap();
    assert_eq!(ev.step, 3);
    assert_eq!(ev.cause, HealthCause::NonFinite);
    assert_eq!(ev.action, HealthAction::RolledBack { to_step: 2 });

    // The standard recovery: relax omega0 toward stability and resume.
    eng.set_omega0(1.2);
    eng.run(2);
    assert!(!eng.halted());
    assert_eq!(eng.coarse_steps(), 4);
    assert!(eng.grid.is_finite());
}

#[test]
fn rollback_without_a_snapshot_halts() {
    let opts = EngineOpts {
        health: Some(HealthGuard::new(1).policy(HealthPolicy::RollbackToLastCheckpoint(3))),
        ..EngineOpts::default()
    };
    let mut eng = seeded_engine_with::<D3Q19>(4, Variant::FusedAll, opts);
    poison(&mut eng); // fails on the very first check: nothing to roll back to
    eng.run(4);
    assert!(eng.halted());
    assert_eq!(eng.coarse_steps(), 1);
    let ev = *eng.health_events().last().unwrap();
    assert_eq!(ev.action, HealthAction::Halted);
}
