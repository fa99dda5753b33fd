//! Particle-in-cell substrate: structured 2-D grids of *moments*, charge/
//! current deposition, gather interpolation, and the 27-point space-time
//! stencil used by the retarded-potential integrand.
//!
//! Terminology follows the paper (Sec. II-A): at every time step `k` the
//! particle distribution is deposited onto an `N_X × N_Y` grid yielding a
//! multi-component **moment grid** `D_k` (charge density plus the two current
//! densities). The history of these grids is what the `rp-integral` reads.

mod deposit;
mod grid;
mod history;
mod interp;
mod soa;

pub use deposit::{deposit_cic, deposit_cic_simd, refill_samples, DepositSample};
pub use grid::{
    cic_lower, stencil_center, GridGeometry, MomentGrid, MOMENT_CHARGE, MOMENT_JX, MOMENT_JY,
    N_MOMENTS,
};
pub use history::GridHistory;
pub use interp::{bilinear_gather, Stencil27, StencilResolver, StencilTap, StencilWindow};
pub use soa::ParticleSoA;

#[cfg(test)]
mod tests;
