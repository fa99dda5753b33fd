//! Particle state and beam-level statistics.

/// One macro-particle in the 2-D simulation plane: longitudinal coordinate
/// `x` (the beam-frame `s` offset), transverse `y`, and velocities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Longitudinal position.
    pub x: f64,
    /// Transverse position.
    pub y: f64,
    /// Longitudinal velocity (in units of c; the reference motion is
    /// subtracted, so these are slow drift velocities).
    pub vx: f64,
    /// Transverse velocity.
    pub vy: f64,
    /// Macro-particle charge weight.
    pub weight: f64,
}

/// A bunch of macro-particles plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Beam {
    /// Particle array (structure-of-structs is fine at host level; the SIMT
    /// kernels never touch particles directly).
    pub particles: Vec<Particle>,
}

impl Beam {
    /// Wraps a particle vector.
    pub fn new(particles: Vec<Particle>) -> Self {
        Self { particles }
    }

    /// Number of macro-particles.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// True when the beam is empty.
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// Total charge (sum of weights).
    pub fn total_charge(&self) -> f64 {
        self.particles.iter().map(|p| p.weight).sum()
    }

    /// Charge-weighted centroid `(x̄, ȳ)`.
    ///
    /// One pass with three accumulators: `q = Σw`, `Σw·x` and `Σw·y`, each
    /// folded in particle order from `-0.0` (the identity `Iterator::sum`
    /// starts from), so the result has the bits of three separate `.sum()`
    /// passes.
    pub fn centroid(&self) -> (f64, f64) {
        let (q, sx, sy) = self
            .particles
            .iter()
            .fold((-0.0, -0.0, -0.0), |(q, sx, sy), p| {
                (q + p.weight, sx + p.weight * p.x, sy + p.weight * p.y)
            });
        if q == 0.0 {
            return (0.0, 0.0);
        }
        (sx / q, sy / q)
    }

    /// Charge-weighted rms sizes `(σ_x, σ_y)` about the centroid.
    pub fn rms_size(&self) -> (f64, f64) {
        let q = self.total_charge();
        if q == 0.0 {
            return (0.0, 0.0);
        }
        let (cx, cy) = self.centroid();
        let vx: f64 = self
            .particles
            .iter()
            .map(|p| p.weight * (p.x - cx) * (p.x - cx))
            .sum();
        let vy: f64 = self
            .particles
            .iter()
            .map(|p| p.weight * (p.y - cy) * (p.y - cy))
            .sum();
        ((vx / q).sqrt(), (vy / q).sqrt())
    }

    /// Kinetic energy proxy `Σ w (vx² + vy²) / 2` — used by tests to check
    /// pusher conservation properties.
    pub fn kinetic_energy(&self) -> f64 {
        self.particles
            .iter()
            .map(|p| 0.5 * p.weight * (p.vx * p.vx + p.vy * p.vy))
            .sum()
    }
}
