//! Space-filling-curve block ordering (paper §V-A: "to improve the data
//! locality between blocks, we arrange blocks in memory using space-filling
//! curves (Sweep, Morton, or Hilbert)").

use crate::coords::Coord;

/// Block-ordering curve choices.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SpaceFillingCurve {
    /// Plain x-fastest sweep (row-major) order.
    Sweep,
    /// Morton (Z-order) curve: bit interleaving.
    #[default]
    Morton,
    /// Hilbert curve: best locality, slightly costlier keys (setup only).
    Hilbert,
}

impl SpaceFillingCurve {
    /// Sort key for a non-negative coordinate where every component fits in
    /// `bits` bits (`bits ≤ 21` so three interleaved components fit in u64).
    pub fn key(&self, c: Coord, bits: u32) -> u64 {
        assert!((1..=21).contains(&bits), "bits {bits} out of range");
        let (x, y, z) = (c.x as u64, c.y as u64, c.z as u64);
        debug_assert!(
            c.x >= 0 && c.y >= 0 && c.z >= 0,
            "SFC keys need non-negative coords, got {c:?}"
        );
        debug_assert!(
            x < (1 << bits) && y < (1 << bits) && z < (1 << bits),
            "coord {c:?} exceeds {bits}-bit range"
        );
        match self {
            SpaceFillingCurve::Sweep => x | (y << bits) | (z << (2 * bits)),
            SpaceFillingCurve::Morton => morton3(x, y, z),
            SpaceFillingCurve::Hilbert => hilbert3(c.x as u32, c.y as u32, c.z as u32, bits),
        }
    }

    /// All variants, for ablation sweeps.
    pub const ALL: [SpaceFillingCurve; 3] = [
        SpaceFillingCurve::Sweep,
        SpaceFillingCurve::Morton,
        SpaceFillingCurve::Hilbert,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SpaceFillingCurve::Sweep => "sweep",
            SpaceFillingCurve::Morton => "morton",
            SpaceFillingCurve::Hilbert => "hilbert",
        }
    }
}

/// Spreads the low 21 bits of `v` so consecutive bits land 3 apart.
#[inline]
fn part1by2(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Morton (Z-order) key: interleaves x, y, z bits (x least significant).
#[inline]
pub fn morton3(x: u64, y: u64, z: u64) -> u64 {
    part1by2(x) | (part1by2(y) << 1) | (part1by2(z) << 2)
}

/// 3D Hilbert curve index via Skilling's transpose algorithm
/// ("Programming the Hilbert curve", AIP 2004): converts axis coordinates to
/// the transposed Hilbert representation, then gathers bits into the index.
pub fn hilbert3(x: u32, y: u32, z: u32, bits: u32) -> u64 {
    const N: usize = 3;
    let mut xs = [x, y, z];
    let m = 1u32 << (bits - 1);

    // Inverse undo excess work.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..N {
            if xs[i] & q != 0 {
                xs[0] ^= p;
            } else {
                let t = (xs[0] ^ xs[i]) & p;
                xs[0] ^= t;
                xs[i] ^= t;
            }
        }
        q >>= 1;
    }

    // Gray encode.
    for i in 1..N {
        xs[i] ^= xs[i - 1];
    }
    let mut t = 0;
    let mut q = m;
    while q > 1 {
        if xs[N - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for v in xs.iter_mut() {
        *v ^= t;
    }

    // Gather the transposed bits into a single index, MSB first, axis 0
    // contributing the most significant bit of each 3-bit group.
    let mut h = 0u64;
    for k in (0..bits).rev() {
        for v in xs.iter() {
            h = (h << 1) | ((*v >> k) & 1) as u64;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn morton_small_values() {
        assert_eq!(morton3(0, 0, 0), 0);
        assert_eq!(morton3(1, 0, 0), 1);
        assert_eq!(morton3(0, 1, 0), 2);
        assert_eq!(morton3(1, 1, 0), 3);
        assert_eq!(morton3(0, 0, 1), 4);
        assert_eq!(morton3(1, 1, 1), 7);
        assert_eq!(morton3(2, 0, 0), 8);
    }

    #[test]
    fn morton_high_bits() {
        // 21-bit coordinates must interleave without collision.
        let a = morton3((1 << 20) as u64, 0, 0);
        let b = morton3(0, (1 << 20) as u64, 0);
        assert_ne!(a, b);
        assert_eq!(a, 1u64 << 60);
        assert_eq!(b, 1u64 << 61);
    }

    fn check_bijective(curve: SpaceFillingCurve, n: i32, bits: u32) {
        let mut seen = HashSet::new();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let k = curve.key(Coord::new(x, y, z), bits);
                    assert!(
                        seen.insert(k),
                        "{} key collision at ({x},{y},{z})",
                        curve.name()
                    );
                }
            }
        }
        assert_eq!(seen.len(), (n * n * n) as usize);
    }

    #[test]
    fn sweep_bijective() {
        check_bijective(SpaceFillingCurve::Sweep, 8, 3);
    }
    #[test]
    fn morton_bijective() {
        check_bijective(SpaceFillingCurve::Morton, 8, 3);
    }
    #[test]
    fn hilbert_bijective() {
        check_bijective(SpaceFillingCurve::Hilbert, 8, 3);
    }

    #[test]
    fn hilbert_is_continuous_path() {
        // Defining property: ordering the full 2^b cube by Hilbert key gives
        // a Hamiltonian path whose consecutive cells are face neighbors.
        let bits = 3;
        let n = 1 << bits;
        let mut cells: Vec<(u64, Coord)> = Vec::new();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let c = Coord::new(x, y, z);
                    cells.push((SpaceFillingCurve::Hilbert.key(c, bits as u32), c));
                }
            }
        }
        cells.sort_by_key(|&(k, _)| k);
        // Keys are exactly 0..n³.
        for (i, &(k, _)) in cells.iter().enumerate() {
            assert_eq!(k, i as u64, "Hilbert keys must be a permutation of 0..n³");
        }
        for w in cells.windows(2) {
            let d = w[1].1 - w[0].1;
            let manhattan = d.x.abs() + d.y.abs() + d.z.abs();
            assert_eq!(
                manhattan, 1,
                "consecutive Hilbert cells {:?} -> {:?} are not face neighbors",
                w[0].1, w[1].1
            );
        }
    }

    #[test]
    fn hilbert_locality_beats_sweep() {
        // Locality metric: the fraction of face-neighbor cell pairs whose
        // index distance is ≤ 8 (i.e. likely to land in the same cached
        // region). Sweep achieves this only for x-neighbors (exactly 1/3 of
        // pairs on a cube); Hilbert must do strictly better — that is the
        // point of SFC block ordering (paper §V-A).
        let bits = 4u32;
        let n = 1i32 << bits;
        let close_fraction = |curve: SpaceFillingCurve| -> f64 {
            let mut close = 0u64;
            let mut count = 0u64;
            let axes = [
                Coord::new(1, 0, 0),
                Coord::new(0, 1, 0),
                Coord::new(0, 0, 1),
            ];
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        let c = Coord::new(x, y, z);
                        for d in axes {
                            let t = c + d;
                            if t.x < n && t.y < n && t.z < n {
                                let a = curve.key(c, bits) as i64;
                                let b = curve.key(t, bits) as i64;
                                if (a - b).unsigned_abs() <= 8 {
                                    close += 1;
                                }
                                count += 1;
                            }
                        }
                    }
                }
            }
            close as f64 / count as f64
        };
        let hil = close_fraction(SpaceFillingCurve::Hilbert);
        let swp = close_fraction(SpaceFillingCurve::Sweep);
        assert!(
            hil > swp,
            "Hilbert close-pair fraction {hil} not better than sweep {swp}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_oversized_bits() {
        let _ = SpaceFillingCurve::Morton.key(Coord::ZERO, 22);
    }
}
