//! Macroscopic moments of the distribution functions (paper Eqs. 6–8).

use crate::real::Real;
use crate::velocity_set::{for_each_dir, signed_add, VelocitySet};

/// Density `ρ = Σ_i f_i` (Eq. 6).
#[inline(always)]
pub fn density<T: Real, V: VelocitySet>(f: &[T]) -> T {
    let f = &f[..V::Q]; // one bounds check; f may be MAX_Q long
    let mut rho = T::ZERO;
    for_each_dir::<V>(|i| rho += f[i]);
    rho
}

/// Momentum `ρu = Σ_i e_i f_i` (numerator of Eq. 7).
#[inline(always)]
pub fn momentum<T: Real, V: VelocitySet>(f: &[T]) -> [T; 3] {
    let f = &f[..V::Q];
    let mut m = [T::ZERO; 3];
    for_each_dir::<V>(|i| {
        for (m, c) in m.iter_mut().zip(V::C[i]) {
            *m = signed_add(*m, c, f[i]);
        }
    });
    m
}

/// Density and velocity in one pass: `u = (Σ e_i f_i)/ρ` (Eqs. 6–7).
#[inline(always)]
pub fn density_velocity<T: Real, V: VelocitySet>(f: &[T]) -> (T, [T; 3]) {
    let rho = density::<T, V>(f);
    let m = momentum::<T, V>(f);
    let inv = T::ONE / rho;
    (rho, [m[0] * inv, m[1] * inv, m[2] * inv])
}

/// Pressure `p = cs² ρ` (Eq. 8).
#[inline(always)]
pub fn pressure<T: Real, V: VelocitySet>(rho: T) -> T {
    T::from_f64(V::CS2) * rho
}

/// Full second-moment tensor `Π_ab = Σ_i e_ia e_ib f_i`, returned in
/// symmetric packing `[xx, yy, zz, xy, xz, yz]`.
///
/// Applied to `f − f^eq` this yields the non-equilibrium stress used by the
/// KBC collision operator and by strain-rate diagnostics.
#[inline(always)]
pub fn second_moment<T: Real, V: VelocitySet>(f: &[T]) -> [T; 6] {
    let f = &f[..V::Q];
    let mut pi = [T::ZERO; 6];
    for_each_dir::<V>(|i| {
        let [cx, cy, cz] = V::C[i];
        let c = [cx * cx, cy * cy, cz * cz, cx * cy, cx * cz, cy * cz];
        for (p, c) in pi.iter_mut().zip(c) {
            *p = signed_add(*p, c, f[i]);
        }
    });
    pi
}

/// Velocity magnitude `‖u‖`.
#[inline(always)]
pub fn speed<T: Real>(u: [T; 3]) -> T {
    (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::equilibrium;
    use crate::velocity_set::{D3Q19, D3Q27, MAX_Q};

    #[test]
    fn moments_of_equilibrium() {
        let rho = 1.23;
        let u = [0.02, 0.05, -0.01];
        let mut feq = [0.0; MAX_Q];
        equilibrium::<f64, D3Q27>(rho, u, &mut feq);
        let (r, v) = density_velocity::<f64, D3Q27>(&feq);
        assert!((r - rho).abs() < 1e-13);
        for a in 0..3 {
            assert!((v[a] - u[a]).abs() < 1e-14);
        }
        assert!((pressure::<f64, D3Q27>(r) - rho / 3.0).abs() < 1e-13);
    }

    #[test]
    fn second_moment_of_equilibrium() {
        let rho = 0.97;
        let u = [0.06, -0.04, 0.02];
        let mut feq = [0.0; MAX_Q];
        equilibrium::<f64, D3Q19>(rho, u, &mut feq);
        let pi = second_moment::<f64, D3Q19>(&feq);
        let cs2 = D3Q19::CS2;
        let expect = [
            rho * (cs2 + u[0] * u[0]),
            rho * (cs2 + u[1] * u[1]),
            rho * (cs2 + u[2] * u[2]),
            rho * u[0] * u[1],
            rho * u[0] * u[2],
            rho * u[1] * u[2],
        ];
        for k in 0..6 {
            assert!(
                (pi[k] - expect[k]).abs() < 1e-13,
                "Pi[{k}] = {}, expected {}",
                pi[k],
                expect[k]
            );
        }
    }

    #[test]
    fn second_moment_matches_naive() {
        // Compare the packed implementation against the obvious triple
        // product on an arbitrary (non-equilibrium) vector.
        let f: Vec<f64> = (0..D3Q27::Q).map(|i| 0.01 + 0.003 * i as f64).collect();
        let pi = second_moment::<f64, D3Q27>(&f);
        let pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)];
        for (k, (a, b)) in pairs.iter().enumerate() {
            let naive: f64 = (0..D3Q27::Q)
                .map(|i| f[i] * (D3Q27::C[i][*a] * D3Q27::C[i][*b]) as f64)
                .sum();
            assert!((pi[k] - naive).abs() < 1e-14);
        }
    }

    #[test]
    fn speed_is_euclidean_norm() {
        assert!((speed([3.0_f64, 4.0, 12.0]) - 13.0).abs() < 1e-15);
    }
}
