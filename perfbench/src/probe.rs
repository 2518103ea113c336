//! Host measurements that are not a workload: the memory-bandwidth
//! roofline reference, the last-level cache size, and collision operators
//! timed in isolation.

use std::hint::black_box;
use std::time::Instant;

use lbm_lattice::{equilibrium, Collision, VelocitySet, MAX_Q};

use crate::stats::median;

/// Deterministic 64-bit mixer (splitmix64): the benchmark's only source of
/// pseudo-randomness, so a seed fixes every generated input.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform value in `[-1, 1)` from a hash.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Size in bytes of the highest-level CPU cache sysfs reports, if any.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1u64 << 10),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1u64 << 20),
                None => (size, 1),
            },
        };
        let Ok(num) = num.parse::<u64>() else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, num * mult));
        }
    }
    best.map(|(_, b)| b)
}

/// Measured host copy bandwidth.
pub struct CopyProbe {
    /// Median over the timed passes, counting bytes read plus bytes
    /// written (the convention of the kernels' declared traffic), GB/s.
    pub gbps: f64,
    /// Bytes in each of the two arrays.
    pub array_bytes: u64,
    /// Timed passes (one untimed pass before them takes the page faults).
    pub passes: usize,
}

/// Times `copy_from_slice` between two arrays of `array_bytes` each.
pub fn copy_bandwidth(array_bytes: u64, passes: usize) -> CopyProbe {
    let n = (array_bytes / 8) as usize;
    let src: Vec<u64> = (0..n as u64).collect();
    let mut dst = vec![0u64; n];
    dst.copy_from_slice(&src);
    let mut gbps = Vec::with_capacity(passes);
    for _ in 0..passes {
        let t0 = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        gbps.push(2.0 * array_bytes as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    CopyProbe {
        gbps: median(&gbps).expect("passes > 0"),
        array_bytes: n as u64 * 8,
        passes,
    }
}

/// Median ns per cell of `op.collide` over `cells` seeded near-equilibrium
/// cells, over `reps` passes. Each pass collides a fresh copy of the same
/// inputs, so every pass does the same work.
pub fn collide_ns_per_cell<V: VelocitySet, C: Collision<f64, V>>(
    op: C,
    seed: u64,
    cells: usize,
    reps: usize,
) -> f64 {
    let input: Vec<[f64; MAX_Q]> = (0..cells as u64)
        .map(|c| {
            let h = |k: u64| unit(mix(seed ^ mix(c * 64 + k)));
            let mut f = [0.0; MAX_Q];
            equilibrium::<f64, V>(
                1.0 + 0.01 * h(0),
                [0.05 * h(1), 0.05 * h(2), 0.05 * h(3)],
                &mut f,
            );
            for (i, v) in f.iter_mut().take(V::Q).enumerate() {
                *v *= 1.0 + 1e-3 * h(8 + i as u64);
            }
            f
        })
        .collect();
    let mut work = input.clone();
    let mut ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        work.copy_from_slice(&input);
        let t0 = Instant::now();
        for f in work.iter_mut() {
            op.collide(black_box(f));
        }
        black_box(&work);
        ns.push(t0.elapsed().as_secs_f64() * 1e9 / cells as f64);
    }
    median(&ns).expect("reps > 0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stays_in_range_and_depends_on_the_seed() {
        for i in 0..1000 {
            let u = unit(mix(i));
            assert!((-1.0..1.0).contains(&u));
        }
        assert_ne!(mix(1), mix(2));
    }
}
