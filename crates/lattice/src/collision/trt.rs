//! Two-relaxation-time (TRT) collision operator (Ginzburg et al.).
//!
//! A widely used middle ground between BGK and full MRT: the even
//! (symmetric) and odd (antisymmetric) parts of the non-equilibrium relax
//! with separate rates `ω⁺` (sets the viscosity) and `ω⁻` (free; fixed
//! through the "magic parameter" Λ = (1/ω⁺ − ½)(1/ω⁻ − ½)). With
//! Λ = 3/16 the halfway bounce-back wall sits exactly halfway for Poiseuille
//! flow — the property that makes TRT the standard choice for wall-bounded
//! refinement studies. Included as a beyond-paper collision family (the
//! paper uses BGK and KBC); it drops into every engine variant unchanged.

use super::Collision;
use crate::equilibrium::equilibrium;
use crate::moments::density_velocity;
use crate::real::Real;
use crate::velocity_set::{for_each_dir, VelocitySet, MAX_Q};

/// The "magic" value of Λ that places halfway bounce-back walls exactly.
pub const MAGIC_BOUNCE_BACK: f64 = 3.0 / 16.0;

/// TRT operator with viscosity rate `ω⁺` and magic parameter Λ.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Trt<T> {
    omega_plus: T,
    omega_minus: T,
}

impl<T: Real> Trt<T> {
    /// Creates the operator from the viscosity-setting rate `ω⁺ ∈ (0, 2)`
    /// and the magic parameter Λ (use [`MAGIC_BOUNCE_BACK`] for exact
    /// halfway walls).
    pub fn new(omega_plus: T, lambda: f64) -> Self {
        let wp = omega_plus.to_f64();
        assert!(wp > 0.0 && wp < 2.0, "TRT omega+ {wp} outside (0, 2)");
        assert!(lambda > 0.0, "magic parameter must be positive");
        // Λ = (1/ω⁺ − ½)(1/ω⁻ − ½)  ⇒  ω⁻ = 1 / (Λ/(1/ω⁺ − ½) + ½).
        let om = 1.0 / (lambda / (1.0 / wp - 0.5) + 0.5);
        assert!(om > 0.0 && om < 2.0, "derived omega- {om} outside (0, 2)");
        Self {
            omega_plus,
            omega_minus: T::from_f64(om),
        }
    }

    /// Creates the operator from the lattice kinematic viscosity
    /// `ν = cs²(1/ω⁺ − ½)` with the bounce-back magic parameter.
    pub fn from_viscosity<V: VelocitySet>(nu: T) -> Self {
        let nu = nu.to_f64();
        assert!(nu > 0.0);
        Self::new(T::from_f64(1.0 / (nu / V::CS2 + 0.5)), MAGIC_BOUNCE_BACK)
    }

    /// The antisymmetric-mode rate `ω⁻` derived from Λ.
    pub fn omega_minus(&self) -> T {
        self.omega_minus
    }
}

impl<T: Real, V: VelocitySet> Collision<T, V> for Trt<T> {
    #[inline(always)]
    fn collide(&self, f: &mut [T; MAX_Q]) {
        let (rho, u) = density_velocity::<T, V>(&f[..]);
        let mut feq = [T::ZERO; MAX_Q];
        equilibrium::<T, V>(rho, u, &mut feq);
        let half = T::from_f64(0.5);
        let wp = self.omega_plus;
        let wm = self.omega_minus;
        for_each_dir::<V>(|i| {
            let o = V::OPP[i];
            if o == i {
                // The rest population is purely symmetric.
                f[i] -= wp * (f[i] - feq[i]);
            } else if o > i {
                // Each opposite pair once, from its lower index.
                let f_plus = half * (f[i] + f[o]);
                let f_minus = half * (f[i] - f[o]);
                let feq_plus = half * (feq[i] + feq[o]);
                let feq_minus = half * (feq[i] - feq[o]);
                let d_plus = wp * (f_plus - feq_plus);
                let d_minus = wm * (f_minus - feq_minus);
                f[i] -= d_plus + d_minus;
                f[o] -= d_plus - d_minus;
            }
        });
    }

    #[inline(always)]
    fn omega(&self) -> T {
        self.omega_plus
    }

    fn with_omega(&self, omega: T) -> Self {
        // Preserve the magic parameter across levels (Λ is the invariant
        // the wall placement depends on, not ω⁻ itself).
        let wp0 = self.omega_plus.to_f64();
        let wm0 = self.omega_minus.to_f64();
        let lambda = (1.0 / wp0 - 0.5) * (1.0 / wm0 - 0.5);
        Self::new(omega, lambda)
    }

    fn name(&self) -> &'static str {
        "TRT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::Bgk;
    use crate::velocity_set::{D3Q19, D3Q27};

    #[test]
    fn conserves_mass_and_momentum() {
        let op = Trt::new(1.4_f64, MAGIC_BOUNCE_BACK);
        let mut f = [0.0; MAX_Q];
        for i in 0..D3Q19::Q {
            f[i] = D3Q19::W[i] * (1.0 + 0.08 * ((i * 5 % 7) as f64 - 3.0));
        }
        let (r0, u0) = density_velocity::<f64, D3Q19>(&f[..]);
        Collision::<f64, D3Q19>::collide(&op, &mut f);
        let (r1, u1) = density_velocity::<f64, D3Q19>(&f[..]);
        assert!((r0 - r1).abs() < 1e-14);
        for a in 0..3 {
            assert!((u0[a] - u1[a]).abs() < 1e-14);
        }
    }

    #[test]
    fn equilibrium_is_fixed_point() {
        let op = Trt::new(0.9_f64, MAGIC_BOUNCE_BACK);
        let mut f = [0.0; MAX_Q];
        equilibrium::<f64, D3Q27>(1.0, [0.03, -0.01, 0.02], &mut f);
        let before = f;
        Collision::<f64, D3Q27>::collide(&op, &mut f);
        for i in 0..D3Q27::Q {
            assert!((f[i] - before[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn reduces_to_bgk_when_rates_match() {
        // Λ = (1/ω − ½)² forces ω⁻ = ω⁺ = ω: TRT degenerates to BGK.
        let omega = 1.3_f64;
        let lambda = (1.0 / omega - 0.5) * (1.0 / omega - 0.5);
        let trt = Trt::new(omega, lambda);
        let bgk = Bgk::new(omega);
        let mut a = [0.0; MAX_Q];
        for i in 0..D3Q19::Q {
            a[i] = D3Q19::W[i] * (1.0 + 0.05 * ((i % 5) as f64 - 2.0));
        }
        let mut b = a;
        Collision::<f64, D3Q19>::collide(&trt, &mut a);
        Collision::<f64, D3Q19>::collide(&bgk, &mut b);
        for i in 0..D3Q19::Q {
            assert!((a[i] - b[i]).abs() < 1e-14, "dir {i}: {} vs {}", a[i], b[i]);
        }
    }

    #[test]
    fn with_omega_preserves_magic_parameter() {
        let op = Trt::new(1.2_f64, MAGIC_BOUNCE_BACK);
        let op2 = Collision::<f64, D3Q19>::with_omega(&op, 0.8);
        let lam = |wp: f64, wm: f64| (1.0 / wp - 0.5) * (1.0 / wm - 0.5);
        assert!(
            (lam(0.8, op2.omega_minus()) - MAGIC_BOUNCE_BACK).abs() < 1e-12,
            "magic parameter drifted"
        );
    }

    #[test]
    #[should_panic(expected = "outside (0, 2)")]
    fn rejects_bad_rate() {
        let _ = Trt::new(2.5_f64, MAGIC_BOUNCE_BACK);
    }
}
