//! Test-only reference: the per-direction loops of the moments, the
//! equilibrium and the BGK / TRT / KBC operators as plain `for i in 0..V::Q`
//! loops over the velocity tables, with every lattice coefficient applied
//! as a multiply (`T::from_f64(c) * x`).
//!
//! The production code drives the same arithmetic through
//! [`for_each_dir`](crate::velocity_set::for_each_dir) and
//! [`signed_add`](crate::velocity_set::signed_add), which skip the `0·x`
//! terms and turn `±1·x` into an add or a subtract. That is exact, so the
//! tests below require `to_bits` equality, not a tolerance.
#![allow(clippy::needless_range_loop)] // indexes parallel constant tables

use crate::real::Real;
use crate::velocity_set::{VelocitySet, MAX_Q};

fn density<T: Real, V: VelocitySet>(f: &[T]) -> T {
    let mut rho = T::ZERO;
    for i in 0..V::Q {
        rho += f[i];
    }
    rho
}

fn momentum<T: Real, V: VelocitySet>(f: &[T]) -> [T; 3] {
    let mut m = [T::ZERO; 3];
    for i in 0..V::Q {
        let c = V::C[i];
        m[0] += T::from_f64(c[0] as f64) * f[i];
        m[1] += T::from_f64(c[1] as f64) * f[i];
        m[2] += T::from_f64(c[2] as f64) * f[i];
    }
    m
}

fn density_velocity<T: Real, V: VelocitySet>(f: &[T]) -> (T, [T; 3]) {
    let rho = density::<T, V>(f);
    let m = momentum::<T, V>(f);
    let inv = T::ONE / rho;
    (rho, [m[0] * inv, m[1] * inv, m[2] * inv])
}

fn second_moment<T: Real, V: VelocitySet>(f: &[T]) -> [T; 6] {
    let mut pi = [T::ZERO; 6];
    for i in 0..V::Q {
        let c = V::C[i];
        let (cx, cy, cz) = (c[0], c[1], c[2]);
        let v = f[i];
        if cx != 0 {
            pi[0] += v; // xx: cx² ∈ {0,1}
        }
        if cy != 0 {
            pi[1] += v;
        }
        if cz != 0 {
            pi[2] += v;
        }
        let sxy = cx * cy;
        if sxy == 1 {
            pi[3] += v;
        } else if sxy == -1 {
            pi[3] -= v;
        }
        let sxz = cx * cz;
        if sxz == 1 {
            pi[4] += v;
        } else if sxz == -1 {
            pi[4] -= v;
        }
        let syz = cy * cz;
        if syz == 1 {
            pi[5] += v;
        } else if syz == -1 {
            pi[5] -= v;
        }
    }
    pi
}

fn ci_dot_u<T: Real, V: VelocitySet>(i: usize, u: [T; 3]) -> T {
    let c = V::C[i];
    T::from_f64(c[0] as f64) * u[0]
        + T::from_f64(c[1] as f64) * u[1]
        + T::from_f64(c[2] as f64) * u[2]
}

fn equilibrium<T: Real, V: VelocitySet>(rho: T, u: [T; 3], out: &mut [T; MAX_Q]) {
    let inv_cs2 = T::from_f64(1.0 / V::CS2);
    let half_inv_cs4 = T::from_f64(0.5 / (V::CS2 * V::CS2));
    let half_inv_cs2 = T::from_f64(0.5 / V::CS2);
    let usq = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    let common = T::ONE - half_inv_cs2 * usq;
    for i in 0..V::Q {
        let cu = ci_dot_u::<T, V>(i, u);
        let w = T::from_f64(V::W[i]);
        out[i] = w * rho * (common + inv_cs2 * cu + half_inv_cs4 * cu * cu);
    }
}

fn bgk<T: Real, V: VelocitySet>(om: T, f: &mut [T; MAX_Q]) {
    let (rho, u) = density_velocity::<T, V>(&f[..]);
    let mut feq = [T::ZERO; MAX_Q];
    equilibrium::<T, V>(rho, u, &mut feq);
    for i in 0..V::Q {
        f[i] -= om * (f[i] - feq[i]);
    }
}

fn trt<T: Real, V: VelocitySet>(wp: T, wm: T, f: &mut [T; MAX_Q]) {
    let (rho, u) = density_velocity::<T, V>(&f[..]);
    let mut feq = [T::ZERO; MAX_Q];
    equilibrium::<T, V>(rho, u, &mut feq);
    let half = T::from_f64(0.5);
    f[0] -= wp * (f[0] - feq[0]);
    for i in 1..V::Q {
        let o = V::OPP[i];
        if o < i {
            continue;
        }
        let f_plus = half * (f[i] + f[o]);
        let f_minus = half * (f[i] - f[o]);
        let feq_plus = half * (feq[i] + feq[o]);
        let feq_minus = half * (feq[i] - feq[o]);
        let d_plus = wp * (f_plus - feq_plus);
        let d_minus = wm * (f_minus - feq_minus);
        f[i] -= d_plus + d_minus;
        f[o] -= d_plus - d_minus;
    }
}

fn kbc<T: Real, V: VelocitySet>(omega: T, f: &mut [T; MAX_Q]) {
    let (rho, u) = density_velocity::<T, V>(&f[..]);
    let mut feq = [T::ZERO; MAX_Q];
    equilibrium::<T, V>(rho, u, &mut feq);
    let mut fneq = [T::ZERO; MAX_Q];
    for i in 0..V::Q {
        fneq[i] = f[i] - feq[i];
    }
    let pi = second_moment::<T, V>(&fneq[..]);
    let third = T::from_f64(1.0 / 3.0);
    let tr = (pi[0] + pi[1] + pi[2]) * third;
    let pxx = pi[0] - tr;
    let pyy = pi[1] - tr;
    let pzz = pi[2] - tr;
    let (pxy, pxz, pyz) = (pi[3], pi[4], pi[5]);
    let half_inv_cs4 = T::from_f64(0.5 / (V::CS2 * V::CS2));
    let two = T::from_f64(2.0);
    let mut ds = [T::ZERO; MAX_Q];
    for i in 0..V::Q {
        let c = V::C[i];
        let (cx, cy, cz) = (c[0] as f64, c[1] as f64, c[2] as f64);
        let quad = T::from_f64(cx * cx) * pxx
            + T::from_f64(cy * cy) * pyy
            + T::from_f64(cz * cz) * pzz
            + two
                * (T::from_f64(cx * cy) * pxy
                    + T::from_f64(cx * cz) * pxz
                    + T::from_f64(cy * cz) * pyz);
        ds[i] = T::from_f64(V::W[i]) * half_inv_cs4 * quad;
    }
    let mut sh = T::ZERO;
    let mut hh = T::ZERO;
    for i in 0..V::Q {
        let dh = fneq[i] - ds[i];
        let inv_feq = T::ONE / feq[i];
        sh += ds[i] * dh * inv_feq;
        hh += dh * dh * inv_feq;
    }
    let beta = omega * T::from_f64(0.5);
    let inv_beta = T::ONE / beta;
    let gamma = if hh.to_f64().abs() < 1e-30 {
        two
    } else {
        inv_beta - (two - inv_beta) * (sh / hh)
    };
    for i in 0..V::Q {
        let dh = fneq[i] - ds[i];
        f[i] -= beta * (two * ds[i] + gamma * dh);
    }
}

mod tests {
    use super::*;
    use crate::collision::{Bgk, Collision, Kbc, Trt, MAGIC_BOUNCE_BACK};
    use crate::velocity_set::{D2Q9, D3Q19, D3Q27};

    /// Cells per regime and lattice.
    const CELLS: u64 = 4000;

    /// Uniform in `[-1, 1)` from a splitmix64 hash of `(seed, k)`.
    fn unit(seed: u64, k: u64) -> f64 {
        let mut x = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// The ways a test cell is built from its seed.
    #[derive(Clone, Copy, Debug)]
    enum Regime {
        /// Equilibrium at |u| ≤ 0.05, each population kicked by ≤ 1e-3.
        Near,
        /// Equilibrium at |u| ≤ 0.15, each population kicked by ≤ 40 %.
        Far,
        /// The exact rest equilibrium, u = 0.
        Rest,
        /// The rest equilibrium, each population kicked by ≤ 1e-2.
        NearRest,
    }

    const REGIMES: [Regime; 4] = [Regime::Near, Regime::Far, Regime::Rest, Regime::NearRest];

    fn cell<T: Real, V: VelocitySet>(regime: Regime, seed: u64) -> [T; MAX_Q] {
        let h = |k: u64| unit(seed, k);
        let (umax, kick) = match regime {
            Regime::Near => (0.05, 1e-3),
            Regime::Far => (0.15, 0.4),
            Regime::Rest => (0.0, 0.0),
            Regime::NearRest => (0.0, 1e-2),
        };
        let rho = T::from_f64(1.0 + 0.02 * h(0));
        let z = if V::D == 3 { umax * h(3) } else { 0.0 };
        let u = [umax * h(1), umax * h(2), z].map(T::from_f64);
        let mut f = [T::ZERO; MAX_Q];
        crate::equilibrium::equilibrium::<T, V>(rho, u, &mut f);
        for (i, v) in f.iter_mut().take(V::Q).enumerate() {
            *v *= T::from_f64(1.0 + kick * h(8 + i as u64));
        }
        f
    }

    fn assert_bits<T: Real>(what: &str, new: &[T], old: &[T]) {
        for (i, (a, b)) in new.iter().zip(old).enumerate() {
            assert_eq!(
                a.to_bits64(),
                b.to_bits64(),
                "{what}: component {i} is {a:?}, reference {b:?}"
            );
        }
    }

    /// Moments, equilibrium, BGK and TRT of every regime on lattice `V`.
    fn check_lattice<T: Real, V: VelocitySet>() {
        let bgk = Bgk::new(T::from_f64(1.7));
        let trt = Trt::new(T::from_f64(1.7), MAGIC_BOUNCE_BACK);
        for regime in REGIMES {
            for c in 0..CELLS {
                let f = cell::<T, V>(regime, c);
                let what =
                    |part: &str| format!("{} {} {regime:?} cell {c} {part}", V::NAME, T::BITS);
                let (rho, u) = crate::moments::density_velocity::<T, V>(&f);
                let (rho_ref, u_ref) = density_velocity::<T, V>(&f);
                assert_bits(&what("density"), &[rho], &[rho_ref]);
                assert_bits(&what("velocity"), &u, &u_ref);
                let pi = crate::moments::second_moment::<T, V>(&f);
                assert_bits(&what("second moment"), &pi, &second_moment::<T, V>(&f));

                let (mut feq, mut feq_ref) = ([T::ZERO; MAX_Q], [T::ZERO; MAX_Q]);
                crate::equilibrium::equilibrium::<T, V>(rho, u, &mut feq);
                equilibrium::<T, V>(rho, u, &mut feq_ref);
                assert_bits(&what("equilibrium"), &feq, &feq_ref);

                let (mut a, mut b) = (f, f);
                Collision::<T, V>::collide(&bgk, &mut a);
                super::bgk::<T, V>(T::from_f64(1.7), &mut b);
                assert_bits(&what("BGK"), &a, &b);

                let (mut a, mut b) = (f, f);
                Collision::<T, V>::collide(&trt, &mut a);
                super::trt::<T, V>(T::from_f64(1.7), trt.omega_minus(), &mut b);
                assert_bits(&what("TRT"), &a, &b);
            }
        }
    }

    /// KBC on D3Q27 in every regime, plus pure-shear cells (`Δh = 0`, so
    /// `⟨Δh|Δh⟩` vanishes and the operator takes its BGK fallback).
    fn check_kbc<T: Real>() {
        let omega = T::from_f64(1.93);
        let op = Kbc::new(omega);
        let run = |what: String, f: [T; MAX_Q]| {
            let (mut a, mut b) = (f, f);
            Collision::<T, D3Q27>::collide(&op, &mut a);
            kbc::<T, D3Q27>(omega, &mut b);
            assert_bits(&what, &a, &b);
        };
        for regime in REGIMES {
            for c in 0..CELLS {
                run(
                    format!("KBC {} {regime:?} cell {c}", T::BITS),
                    cell::<T, D3Q27>(regime, c),
                );
            }
        }
        let cs4 = D3Q27::CS2 * D3Q27::CS2;
        for c in 0..CELLS {
            let h = |k: u64| 2e-3 * unit(c, k);
            let (pxx, pyy, pxy, pxz, pyz) = (h(0), h(1), h(2), h(3), h(4));
            let pzz = -(pxx + pyy);
            let mut f = [T::ZERO; MAX_Q];
            crate::equilibrium::equilibrium::<T, D3Q27>(T::ONE, [T::ZERO; 3], &mut f);
            for (i, v) in f.iter_mut().take(D3Q27::Q).enumerate() {
                let [cx, cy, cz] = D3Q27::C[i].map(f64::from);
                let quad = cx * cx * pxx
                    + cy * cy * pyy
                    + cz * cz * pzz
                    + 2.0 * (cx * cy * pxy + cx * cz * pxz + cy * cz * pyz);
                *v += T::from_f64(D3Q27::W[i] * quad / (2.0 * cs4));
            }
            run(format!("KBC {} pure shear cell {c}", T::BITS), f);
        }
    }

    #[test]
    fn d2q9_matches_reference_bit_for_bit() {
        check_lattice::<f64, D2Q9>();
        check_lattice::<f32, D2Q9>();
    }

    #[test]
    fn d3q19_matches_reference_bit_for_bit() {
        check_lattice::<f64, D3Q19>();
        check_lattice::<f32, D3Q19>();
    }

    #[test]
    fn d3q27_matches_reference_bit_for_bit() {
        check_lattice::<f64, D3Q27>();
        check_lattice::<f32, D3Q27>();
    }

    #[test]
    fn kbc_matches_reference_bit_for_bit() {
        check_kbc::<f64>();
        check_kbc::<f32>();
    }
}
