//! Crash-safe checkpoint/restart for the multi-resolution grid, plus the
//! runtime health-guard policies built on top of it (DESIGN.md §11).
//!
//! # Snapshot format (version 2)
//!
//! A snapshot is a single binary blob, little-endian throughout:
//!
//! ```text
//! magic          8 B   "LBMCKPT\0"
//! version        u32   2 (fixed offset 8..12, read before the checksum)
//! value_bits     u32   bit width of the population scalar (32 or 64)
//! q              u32   velocity-set size
//! name_len/name  u32 + bytes   velocity-set tag ("D3Q19", "D3Q27")
//! layout_tag     u8    0 BlockSoA · 1 CellAoS · 2 Tiled (informational)
//! tile_width     u32   tile width for Tiled, else 0
//! coarse_steps   u64   coarsest-level steps taken when the snapshot was cut
//! num_levels     u32
//! per level:
//!   num_blocks   u64   ┐ structural echo, validated against the target
//!   cells/block  u32   ┘ grid on restore
//!   parity       u8    which double-buffer half is the source
//!   flags        num_blocks·B³ bytes (canonical order; validated echo)
//!   half 0       num_blocks·q·B³ × u64 value bit patterns (canonical order)
//!   half 1       likewise
//!   acc_len/acc  u64 + acc_len × u64 accumulator f64 bit patterns
//! checksum       u64   word-wise FNV-1a-64 over every preceding byte
//! ```
//!
//! **Checksum.** The body (every byte before the trailer) is cut into
//! 32-byte groups of four little-endian `u64` words; word `j` of each group
//! feeds lane `j`, and every lane runs FNV-1a-64 over its words
//! (`lane = (lane ^ word) · P`, starting from the FNV offset basis). The
//! trailer is FNV-1a-64 over, in order, the four lane states, the `len % 32`
//! trailing bytes one at a time, and the body length. Each step is a
//! bijection of the running state (xor with the input, then multiplication
//! by the odd prime `P`), so any change confined to one 8-byte word is
//! always detected — as byte-serial FNV-1a (version 1) always detects a
//! one-byte change — while the four independent lanes let the multiplies
//! overlap instead of forming one serial chain.
//!
//! Field payloads are serialized in *canonical order* — `(block, comp,
//! cell)` ascending, via [`lbm_sparse::Field::canonical_runs`] — so the
//! bytes are independent of the intra-block [`Layout`]: a snapshot cut from
//! a `BlockSoA` engine restores bit-exactly into a `Tiled` one and vice
//! versa. Values travel as raw IEEE-754 bit patterns
//! ([`lbm_lattice::Real::to_bits64`]), never through a float conversion, so
//! restore is a bit-level identity even for non-finite values.
//!
//! The grid's *structure* (octree spec, links, gather tables, cell flags)
//! is **not** restored — [`crate::GridSpec`] holds closures and everything
//! structural is deterministically rebuilt by [`MultiGrid::build`]. Restore
//! targets an already-built, structurally identical grid. It works in two
//! passes: the first checks the version, the checksum and every header and
//! length, compares the structural echo (level count, blocks per level,
//! cells per block, velocity set, scalar width, every cell flag) with the
//! target, and keeps only slices of the payloads; the second decodes those
//! slices straight into the target's fields. Decoding cannot fail once the
//! first pass has succeeded, so a mismatched or corrupted snapshot returns a
//! [`CheckpointError`] and leaves the target untouched without staging a
//! copy of the state.

use std::fmt;

use lbm_lattice::{Real, VelocitySet};
use lbm_sparse::{Field, Layout};

use crate::multigrid::MultiGrid;

/// Magic prefix of every snapshot.
pub const MAGIC: [u8; 8] = *b"LBMCKPT\0";
/// Current snapshot format version.
pub const VERSION: u32 = 2;

/// Why a snapshot could not be loaded. Loading never panics: every failure
/// mode — truncation, corruption, wrong solver configuration — surfaces as
/// a variant here, and the target grid is left exactly as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob ends before the format says it should.
    Truncated,
    /// The blob does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The blob is a snapshot, but of a format version this build does not
    /// read.
    UnsupportedVersion(u32),
    /// The checksum trailer does not match the body: bit rot or truncation.
    ChecksumMismatch,
    /// The snapshot is intact but describes a different solver
    /// configuration (velocity set, scalar width, grid structure, cell
    /// flags) than the restore target.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot is truncated"),
            Self::BadMagic => write!(f, "not a checkpoint snapshot (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {VERSION})"
                )
            }
            Self::ChecksumMismatch => write!(f, "snapshot checksum mismatch (corrupted)"),
            Self::Mismatch(why) => write!(f, "snapshot does not match this engine: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One FNV-1a step: a bijection of `h` for every input `x`.
#[inline(always)]
fn fnv_step(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

#[inline(always)]
fn le_u64(word: &[u8]) -> u64 {
    u64::from_le_bytes(word.try_into().expect("an 8-byte word"))
}

/// The version-2 trailer: word-wise FNV-1a-64 in four interleaved lanes
/// (defined in the module docs).
fn checksum(body: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    let groups = body.chunks_exact(32);
    let tail = groups.remainder();
    for group in groups {
        for (lane, word) in lanes.iter_mut().zip(group.chunks_exact(8)) {
            *lane = fnv_step(*lane, le_u64(word));
        }
    }
    let h = lanes.into_iter().fold(FNV_OFFSET, fnv_step);
    let h = tail.iter().fold(h, |h, &b| fnv_step(h, b as u64));
    fnv_step(h, body.len() as u64)
}

fn layout_tag(layout: Layout) -> (u8, u32) {
    match layout {
        Layout::BlockSoA => (0, 0),
        Layout::CellAoS => (1, 0),
        Layout::Tiled { width } => (2, width),
    }
}

/// Sequential writer into a pre-sized buffer: every field takes exactly the
/// bytes the format gives it.
struct Writer<'a> {
    out: &'a mut [u8],
}

impl<'a> Writer<'a> {
    fn take(&mut self, n: usize) -> &'a mut [u8] {
        let (head, tail) = std::mem::take(&mut self.out).split_at_mut(n);
        self.out = tail;
        head
    }
    fn bytes(&mut self, v: &[u8]) {
        self.take(v.len()).copy_from_slice(v);
    }
    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// Every value of `field` in canonical order, `N` bytes each.
    fn field<T: Copy, const N: usize>(&mut self, field: &Field<T>, encode: impl Fn(T) -> [u8; N]) {
        let mut dst = self.take(N * field.as_slice().len());
        field.canonical_runs(|run| {
            let (head, tail) = std::mem::take(&mut dst).split_at_mut(N * run.len());
            for (d, &v) in head.chunks_exact_mut(N).zip(run) {
                d.copy_from_slice(&encode(v));
            }
            dst = tail;
        });
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(le_u64(self.take(8)?))
    }
    fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Serializes the full simulation state of `grid` — every level's flags,
/// both population halves, accumulators and buffer parity — plus the
/// engine's `coarse_steps`, into a self-contained checksummed blob. The
/// blob's size is computed up front and every payload is written straight
/// from the fields into that one allocation.
pub fn save<T: Real, V: VelocitySet>(grid: &MultiGrid<T, V>, coarse_steps: u64) -> Vec<u8> {
    let header = MAGIC.len() + 4 + 4 + 4 + 4 + V::NAME.len() + 1 + 4 + 8 + 4;
    let levels: usize = grid
        .levels
        .iter()
        .map(|lv| {
            let values = lv.f.half(0).as_slice().len();
            8 + 4 + 1 + lv.flags.as_slice().len() + 2 * 8 * values + 8 + 8 * lv.acc.len()
        })
        .sum();
    let mut buf = vec![0u8; header + levels + 8];
    let body_len = buf.len() - 8;
    let mut w = Writer {
        out: &mut buf[..body_len],
    };
    w.bytes(&MAGIC);
    w.u32(VERSION);
    w.u32(T::BITS);
    w.u32(V::Q as u32);
    w.u32(V::NAME.len() as u32);
    w.bytes(V::NAME.as_bytes());
    let (tag, width) = layout_tag(grid.layout());
    w.u8(tag);
    w.u32(width);
    w.u64(coarse_steps);
    w.u32(grid.levels.len() as u32);
    for lv in &grid.levels {
        w.u64(lv.grid.num_blocks() as u64);
        w.u32(lv.grid.cells_per_block() as u32);
        w.u8(lv.f.parity() as u8);
        w.field(&lv.flags, |flag| [flag]);
        for h in 0..2 {
            w.field(lv.f.half(h), |v| v.to_bits64().to_le_bytes());
        }
        w.u64(lv.acc.len() as u64);
        for (i, d) in w.take(8 * lv.acc.len()).chunks_exact_mut(8).enumerate() {
            d.copy_from_slice(&lv.acc.load_flat(i).to_bits().to_le_bytes());
        }
    }
    assert!(w.out.is_empty(), "snapshot size computed wrong");
    let ck = checksum(&buf[..body_len]);
    buf[body_len..].copy_from_slice(&ck.to_le_bytes());
    buf
}

/// One level's validated record: slices of the snapshot's payloads, decoded
/// into the target only once every level has passed validation.
struct LevelRecord<'a> {
    parity: usize,
    halves: [&'a [u8]; 2],
    acc: &'a [u8],
}

/// Restores a snapshot produced by [`save`] into `grid`, returning the
/// recorded `coarse_steps`. The target must be structurally identical to
/// the snapshot's source (same spec / build inputs, hence the same cell
/// flags); its current memory [`Layout`] may differ — payloads are
/// canonical-order and re-pack into whatever layout the target uses.
///
/// All validation happens before the first write: on any `Err`, `grid` is
/// untouched.
pub fn restore<T: Real, V: VelocitySet>(
    grid: &mut MultiGrid<T, V>,
    bytes: &[u8],
) -> Result<u64, CheckpointError> {
    let (coarse_steps, records) = validate(grid, bytes)?;
    // Validated: nothing below can fail.
    for (lv, rec) in grid.levels.iter_mut().zip(records) {
        for (h, mut src) in rec.halves.into_iter().enumerate() {
            lv.f.half_mut(h).canonical_runs_mut(|run| {
                let (head, tail) = src.split_at(8 * run.len());
                for (v, s) in run.iter_mut().zip(head.chunks_exact(8)) {
                    *v = T::from_bits64(le_u64(s));
                }
                src = tail;
            });
        }
        lv.f.set_parity(rec.parity);
        for (i, s) in rec.acc.chunks_exact(8).enumerate() {
            lv.acc.store_flat(i, f64::from_bits(le_u64(s)));
        }
    }
    Ok(coarse_steps)
}

/// The first pass of [`restore`]: checks the version, the checksum, every
/// header field and length and the structural echo against `grid`, and
/// returns the step count and one payload record per level.
fn validate<'a, T: Real, V: VelocitySet>(
    grid: &MultiGrid<T, V>,
    bytes: &'a [u8],
) -> Result<(u64, Vec<LevelRecord<'a>>), CheckpointError> {
    if bytes.len() < MAGIC.len() {
        return Err(CheckpointError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    // The version sits at a fixed offset ahead of the checksum, so a
    // snapshot of another format version is named, not reported corrupted.
    let mut r = Reader {
        buf: bytes,
        pos: MAGIC.len(),
    };
    let version = r.u32()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    if bytes.len() < r.pos + 8 {
        return Err(CheckpointError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if checksum(body) != le_u64(tail) {
        return Err(CheckpointError::ChecksumMismatch);
    }
    r.buf = body;
    let bits = r.u32()?;
    if bits != T::BITS {
        return Err(CheckpointError::Mismatch(format!(
            "snapshot holds {bits}-bit values, engine runs {}-bit",
            T::BITS
        )));
    }
    let q = r.u32()?;
    let name_len = r.u32()? as usize;
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| CheckpointError::Mismatch("velocity-set tag is not UTF-8".into()))?;
    if q != V::Q as u32 || name != V::NAME {
        return Err(CheckpointError::Mismatch(format!(
            "snapshot velocity set {name} (q={q}), engine uses {} (q={})",
            V::NAME,
            V::Q
        )));
    }
    let _layout_tag = r.u8()?;
    let _tile_width = r.u32()?;
    let coarse_steps = r.u64()?;
    let num_levels = r.u32()? as usize;
    if num_levels != grid.levels.len() {
        return Err(CheckpointError::Mismatch(format!(
            "snapshot has {num_levels} levels, grid has {}",
            grid.levels.len()
        )));
    }

    let mut records = Vec::with_capacity(num_levels);
    for (l, lv) in grid.levels.iter().enumerate() {
        let num_blocks = r.u64()?;
        let cpb = r.u32()? as usize;
        if num_blocks != lv.grid.num_blocks() as u64 || cpb != lv.grid.cells_per_block() {
            return Err(CheckpointError::Mismatch(format!(
                "level {l}: snapshot geometry {num_blocks} blocks × {cpb} cells/block, \
                 grid has {} × {}",
                lv.grid.num_blocks(),
                lv.grid.cells_per_block()
            )));
        }
        let parity = r.u8()?;
        if parity > 1 {
            return Err(CheckpointError::Mismatch(format!(
                "level {l}: parity byte {parity} is not 0 or 1"
            )));
        }
        let flags = r.take(lv.flags.as_slice().len())?;
        if let Some(k) = first_difference(&lv.flags, flags) {
            return Err(CheckpointError::Mismatch(format!(
                "level {l}: cell flags differ from the grid's at block {}, cell {}",
                k / cpb,
                k % cpb
            )));
        }
        let n = 8 * lv.f.half(0).as_slice().len();
        let halves = [r.take(n)?, r.take(n)?];
        let acc_len = r.u64()?;
        if acc_len != lv.acc.len() as u64 {
            return Err(CheckpointError::Mismatch(format!(
                "level {l}: snapshot has {acc_len} accumulator slots, grid has {}",
                lv.acc.len()
            )));
        }
        let acc = r.take(8 * lv.acc.len())?;
        records.push(LevelRecord {
            parity: parity as usize,
            halves,
            acc,
        });
    }
    if !r.exhausted() {
        return Err(CheckpointError::Mismatch(format!(
            "{} trailing bytes after the last level payload",
            body.len() - r.pos
        )));
    }
    Ok((coarse_steps, records))
}

/// Canonical index of the first byte where `snapshot` differs from
/// `flags`, if any (`snapshot` holds exactly the field's element count).
fn first_difference(flags: &Field<u8>, snapshot: &[u8]) -> Option<usize> {
    let (mut at, mut found) = (0, None);
    flags.canonical_runs(|run| {
        if found.is_none() {
            let mismatch = run.iter().zip(&snapshot[at..]).position(|(a, b)| a != b);
            found = mismatch.map(|i| at + i);
        }
        at += run.len();
    });
    found
}

/// What a failed health check triggers (see [`HealthGuard::policy`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HealthPolicy {
    /// Halt the engine: [`crate::Engine::run`] stops at the failing step.
    Abort,
    /// Record the event and keep stepping (monitoring only).
    Report,
    /// Restore the last healthy in-engine snapshot and keep going, at most
    /// `n` times over the engine's lifetime; with no snapshot yet, or once
    /// the budget is spent, the engine halts instead. After a rollback the
    /// caller can adjust parameters (e.g. [`crate::Engine::set_omega0`])
    /// before resuming.
    RollbackToLastCheckpoint(u32),
}

/// What an unhealthy check found.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum HealthCause {
    /// A non-finite value (NaN/inf) in either half of some level's
    /// populations.
    NonFinite,
    /// Finite state, but the maximum flow speed exceeded the guard's bound
    /// (the recorded value is the observed speed).
    SpeedExceeded(f64),
}

/// What the engine did about an unhealthy check.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HealthAction {
    /// Policy [`HealthPolicy::Abort`]: the engine halted.
    Aborted,
    /// Policy [`HealthPolicy::Report`]: recorded, stepping continues.
    Reported,
    /// Rolled back to the last healthy snapshot (cut at `to_step`).
    RolledBack {
        /// Coarse step the restored snapshot was cut at.
        to_step: u64,
    },
    /// Rollback was requested but impossible (no snapshot yet, or the
    /// rollback budget is exhausted): the engine halted.
    Halted,
}

/// One recorded health incident (see [`crate::Engine::health_events`]).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HealthEvent {
    /// Coarse step count at which the check fired.
    pub step: u64,
    /// What the check found.
    pub cause: HealthCause,
    /// What the engine did.
    pub action: HealthAction,
}

/// Periodic engine health checks: every `check_every` coarse steps the
/// engine scans both halves of every level for non-finite values and (when
/// finite) checks the maximum flow speed against a bound, then applies the
/// configured [`HealthPolicy`]. Under the rollback policy, each *healthy*
/// check also cuts an in-memory snapshot — the state the next unhealthy
/// check rolls back to.
///
/// ```ignore
/// let eng = Engine::builder(grid)
///     .health(HealthGuard::new(10).policy(HealthPolicy::RollbackToLastCheckpoint(1)))
///     .collision(Bgk::new(omega0))
///     .build(exec);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct HealthGuard {
    check_every: u64,
    max_speed: f64,
    policy: HealthPolicy,
}

impl HealthGuard {
    /// A guard checking every `check_every` coarse steps, with the default
    /// speed bound (the lattice sound speed, `1/√3` — any resolved LBM flow
    /// must stay well below it) and policy [`HealthPolicy::Abort`].
    ///
    /// # Panics
    /// If `check_every == 0` (a zero period would mean never checking —
    /// the same class of bug as the `run_to_steady` hang this crate's
    /// diagnostics guard against).
    pub fn new(check_every: u64) -> Self {
        assert!(check_every > 0, "health check period must be positive");
        Self {
            check_every,
            max_speed: 1.0 / 3f64.sqrt(),
            policy: HealthPolicy::Abort,
        }
    }

    /// Overrides the maximum-speed bound (lattice units).
    pub fn max_speed(mut self, v: f64) -> Self {
        self.max_speed = v;
        self
    }

    /// Sets the policy applied when a check fails.
    pub fn policy(mut self, p: HealthPolicy) -> Self {
        self.policy = p;
        self
    }

    /// The check period in coarse steps.
    pub fn check_every(&self) -> u64 {
        self.check_every
    }

    /// The speed bound.
    pub fn speed_bound(&self) -> f64 {
        self.max_speed
    }

    /// The configured policy.
    pub fn configured_policy(&self) -> HealthPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::AllWalls;
    use crate::spec::GridSpec;
    use lbm_lattice::D3Q19;
    use lbm_sparse::Box3;

    type MG = MultiGrid<f64, D3Q19>;

    fn two_level_grid() -> MG {
        let spec = GridSpec::new(2, Box3::from_dims(32, 32, 32), |l, p| {
            l == 0 && (4..12).contains(&p.x) && (4..12).contains(&p.y) && (4..12).contains(&p.z)
        });
        let mut mg = MG::build(spec, &AllWalls, 1.5);
        mg.init_equilibrium(
            |_, _| 1.0,
            |l, c| {
                [
                    0.01 + 0.001 * l as f64,
                    1e-4 * c.x as f64,
                    -1e-4 * c.y as f64,
                ]
            },
        );
        mg
    }

    #[test]
    fn save_restore_round_trips_bit_exactly() {
        let src = two_level_grid();
        // Distinct accumulator values, so a misplaced slot shows.
        for (l, lv) in src.levels.iter().enumerate() {
            for i in 0..lv.acc.len() {
                lv.acc.store_flat(i, (l * 1_000_000 + i) as f64 + 0.25);
            }
        }
        let blob = save(&src, 7);
        let mut dst = two_level_grid();
        // Perturb the target so the restore provably overwrites it.
        dst.init_equilibrium(|_, _| 0.5, |_, _| [0.0; 3]);
        dst.levels[0].f.swap();
        let steps = restore(&mut dst, &blob).expect("restore");
        assert_eq!(steps, 7);
        assert_logically_equal(&src, &dst);
    }

    /// Every level's parity, both halves (value by value through the
    /// layout-independent accessor), accumulators and flags agree bit for
    /// bit.
    fn assert_logically_equal(a: &MG, b: &MG) {
        for (la, lb) in a.levels.iter().zip(&b.levels) {
            assert_eq!(la.f.parity(), lb.f.parity());
            for h in 0..2 {
                let (fa, fb) = (la.f.half(h), lb.f.half(h));
                for blk in 0..la.grid.num_blocks() as u32 {
                    for comp in 0..D3Q19::Q {
                        for cell in 0..la.grid.cells_per_block() as u32 {
                            assert_eq!(
                                fa.get(blk, comp, cell).to_bits(),
                                fb.get(blk, comp, cell).to_bits()
                            );
                        }
                    }
                }
            }
            for i in 0..la.acc.len() {
                assert_eq!(la.acc.load_flat(i).to_bits(), lb.acc.load_flat(i).to_bits());
            }
            assert_eq!(la.flags.as_slice(), lb.flags.as_slice());
        }
    }

    /// Overwrites the trailer with the checksum of the (edited) body.
    fn reseal(blob: &mut [u8]) {
        let body_len = blob.len() - 8;
        let ck = checksum(&blob[..body_len]);
        blob[body_len..].copy_from_slice(&ck.to_le_bytes());
    }

    #[test]
    fn restore_rejects_truncation_and_corruption_cleanly() {
        let src = two_level_grid();
        let blob = save(&src, 3);
        let mut dst = two_level_grid();
        // Truncations at every interesting boundary fail cleanly.
        for cut in [0, 4, MAGIC.len(), blob.len() / 2, blob.len() - 1] {
            let err = restore(&mut dst, &blob[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::ChecksumMismatch
                ),
                "cut at {cut}: {err:?}"
            );
        }
        // Single-bit corruption anywhere in the body is caught.
        let mut bad = blob.clone();
        bad[MAGIC.len() + 20] ^= 0x40;
        assert_eq!(
            restore(&mut dst, &bad).unwrap_err(),
            CheckpointError::ChecksumMismatch
        );
        // Garbage is not a snapshot.
        assert_eq!(
            restore(&mut dst, b"definitely not a checkpoint blob").unwrap_err(),
            CheckpointError::BadMagic
        );
        // An unknown future version is refused by name.
        let mut vnext = blob.clone();
        vnext[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&(VERSION + 1).to_le_bytes());
        reseal(&mut vnext);
        assert_eq!(
            restore(&mut dst, &vnext).unwrap_err(),
            CheckpointError::UnsupportedVersion(VERSION + 1)
        );
    }

    /// A version-1 snapshot — byte-serial FNV-1a trailer, which the v2
    /// checksum rejects — is named by its version, not reported corrupted.
    #[test]
    fn restore_names_version_1_snapshots() {
        let src = two_level_grid();
        let mut v1 = save(&src, 3);
        v1[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
        let body_len = v1.len() - 8;
        let byte_fnv = v1[..body_len]
            .iter()
            .fold(FNV_OFFSET, |h, &b| fnv_step(h, b as u64));
        v1[body_len..].copy_from_slice(&byte_fnv.to_le_bytes());
        let mut dst = two_level_grid();
        assert_eq!(
            restore(&mut dst, &v1).unwrap_err(),
            CheckpointError::UnsupportedVersion(1)
        );
    }

    /// Cell flags are structure, rebuilt by `MultiGrid::build`: a snapshot
    /// whose flags differ from the target's is refused, not loaded.
    #[test]
    fn restore_rejects_foreign_flags() {
        let src = two_level_grid();
        let mut blob = save(&src, 4);
        // Level 0's flags follow the header and the level's 13-byte
        // echo + parity.
        let flags_at = MAGIC.len() + 16 + D3Q19::NAME.len() + 1 + 4 + 8 + 4 + 13;
        let k = 3 * src.levels[0].grid.cells_per_block() + 5;
        assert_eq!(blob[flags_at + k], src.levels[0].flags.get(3, 0, 5));
        blob[flags_at + k] ^= 0x01;
        reseal(&mut blob);
        let mut dst = two_level_grid();
        dst.levels[1].f.swap();
        let before = save(&dst, 0);
        match restore(&mut dst, &blob).unwrap_err() {
            CheckpointError::Mismatch(why) => {
                assert!(why.contains("level 0: cell flags"), "{why}");
                assert!(why.contains("block 3, cell 5"), "{why}");
            }
            e => panic!("expected Mismatch, got {e:?}"),
        }
        assert_eq!(save(&dst, 0), before, "a refused snapshot must not mutate");
    }

    /// The checksum detects every single-bit flip of a word, whichever lane
    /// carries it, and of the trailing bytes; it depends on the length.
    #[test]
    fn checksum_detects_single_word_changes() {
        let body: Vec<u8> = (0..77u32).map(|i| (i * 37 + 11) as u8).collect();
        let base = checksum(&body);
        for pos in 0..body.len() {
            for bit in 0..8 {
                let mut b = body.clone();
                b[pos] ^= 1 << bit;
                assert_ne!(checksum(&b), base, "flip at byte {pos}, bit {bit}");
            }
        }
        assert_ne!(checksum(&body[..76]), base);
        assert_ne!(checksum(&[0u8; 32]), checksum(&[0u8; 64]));
    }

    #[test]
    fn restore_rejects_structural_mismatch() {
        let src = two_level_grid();
        let blob = save(&src, 1);
        // A different geometry refuses the snapshot.
        let spec = GridSpec::uniform(Box3::from_dims(16, 16, 16));
        let mut other = MG::build(spec, &AllWalls, 1.0);
        match restore(&mut other, &blob).unwrap_err() {
            CheckpointError::Mismatch(why) => assert!(why.contains("levels"), "{why}"),
            e => panic!("expected Mismatch, got {e:?}"),
        }
        // A different velocity set refuses the snapshot.
        let spec = GridSpec::new(2, Box3::from_dims(32, 32, 32), |l, p| {
            l == 0 && (4..12).contains(&p.x) && (4..12).contains(&p.y) && (4..12).contains(&p.z)
        });
        let mut q27 = MultiGrid::<f64, lbm_lattice::D3Q27>::build(spec, &AllWalls, 1.5);
        match restore(&mut q27, &blob).unwrap_err() {
            CheckpointError::Mismatch(why) => assert!(why.contains("velocity set"), "{why}"),
            e => panic!("expected Mismatch, got {e:?}"),
        }
    }

    #[test]
    fn snapshot_bytes_are_layout_independent() {
        let soa = two_level_grid();
        let mut tiled = two_level_grid();
        tiled.set_layout(Layout::Tiled { width: 16 });
        // The payload is canonical-order: the two blobs may differ ONLY in
        // the 5-byte layout provenance tag (u8 tag + u32 tile width, right
        // after the velocity-set name) and, consequently, the 8-byte
        // checksum trailer.
        let a = save(&soa, 5);
        let b = save(&tiled, 5);
        assert_eq!(a.len(), b.len());
        let tag_at = MAGIC.len() + 4 + 4 + 4 + 4 + lbm_lattice::D3Q19::NAME.len();
        assert_eq!(a[..tag_at], b[..tag_at], "header before the tag");
        assert_eq!(
            a[tag_at + 5..a.len() - 8],
            b[tag_at + 5..b.len() - 8],
            "payload after the tag"
        );
        // And a SoA snapshot restores into an AoS grid bit-exactly.
        let blob = save(&soa, 5);
        let mut aos = two_level_grid();
        aos.set_layout(Layout::CellAoS);
        aos.init_equilibrium(|_, _| 2.0, |_, _| [0.0; 3]);
        restore(&mut aos, &blob).expect("cross-layout restore");
        assert_logically_equal(&soa, &aos);
    }

    #[test]
    fn health_guard_defaults_and_builders() {
        let g = HealthGuard::new(25);
        assert_eq!(g.check_every(), 25);
        assert_eq!(g.configured_policy(), HealthPolicy::Abort);
        assert!((g.speed_bound() - 1.0 / 3f64.sqrt()).abs() < 1e-15);
        let g = g
            .max_speed(0.1)
            .policy(HealthPolicy::RollbackToLastCheckpoint(2));
        assert_eq!(g.speed_bound(), 0.1);
        assert_eq!(
            g.configured_policy(),
            HealthPolicy::RollbackToLastCheckpoint(2)
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn health_guard_rejects_zero_period() {
        let _ = HealthGuard::new(0);
    }
}
