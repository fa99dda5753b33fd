use beamdyn_par::ThreadPool;

use crate::{
    bilinear_gather, deposit_cic, DepositSample, GridGeometry, GridHistory, MomentGrid, Stencil27,
    MOMENT_CHARGE, MOMENT_JX, MOMENT_JY,
};

fn pool() -> ThreadPool {
    ThreadPool::new(2)
}

#[test]
fn geometry_cell_centers_and_fractional_roundtrip() {
    let g = GridGeometry::unit(8, 4);
    let (x, y) = g.cell_center(3, 2);
    let (fx, fy) = g.fractional(x, y);
    assert!((fx - 3.0).abs() < 1e-12);
    assert!((fy - 2.0).abs() < 1e-12);
}

#[test]
fn geometry_centered_covers_symmetric_rectangle() {
    let g = GridGeometry::centered(16, 16, 2.0, 0.5);
    assert_eq!(g.x_min, -2.0);
    assert_eq!(g.x_max, 2.0);
    assert!(g.contains(0.0, 0.0));
    assert!(!g.contains(2.1, 0.0));
    assert!((g.dx() - 0.25).abs() < 1e-12);
}

#[test]
fn moment_grid_planar_layout_matches_index() {
    let g = GridGeometry::unit(4, 3);
    let mut m = MomentGrid::zeros(g);
    m.set(MOMENT_JX, 2, 1, 7.5);
    let flat = m.as_slice();
    // component 1 (J_x), row 1, column 2 of the planar layout
    assert_eq!(flat[12 + 4 + 2], 7.5);
    assert_eq!(m.get(MOMENT_JX, 2, 1), 7.5);
    assert_eq!(m.component(MOMENT_JX)[6], 7.5);
}

#[test]
fn deposit_conserves_charge_and_currents() {
    let pool = pool();
    let g = GridGeometry::unit(16, 16);
    let mut grid = MomentGrid::zeros(g);
    let samples: Vec<DepositSample> = (0..500)
        .map(|i| {
            let t = i as f64 / 500.0;
            DepositSample {
                x: 0.05 + 0.9 * t,
                y: 0.05 + 0.9 * (1.0 - t),
                weight: 2.0,
                vx: 0.5,
                vy: -0.25,
            }
        })
        .collect();
    let dropped = deposit_cic(&pool, &mut grid, &samples);
    assert_eq!(dropped, 0);
    // Densities: multiply by cell area to recover deposited charge.
    let area = g.dx() * g.dy();
    let q = grid.component_total(MOMENT_CHARGE) * area;
    assert!((q - 1000.0).abs() < 1e-9, "total charge {q}");
    assert!((grid.component_total(MOMENT_JX) * area - 500.0).abs() < 1e-9);
    assert!((grid.component_total(MOMENT_JY) * area + 250.0).abs() < 1e-9);
}

#[test]
fn deposit_drops_out_of_domain_samples() {
    let pool = pool();
    let g = GridGeometry::unit(8, 8);
    let mut grid = MomentGrid::zeros(g);
    let samples = vec![
        DepositSample {
            x: 0.5,
            y: 0.5,
            weight: 1.0,
            vx: 0.0,
            vy: 0.0,
        },
        DepositSample {
            x: 1.5,
            y: 0.5,
            weight: 1.0,
            vx: 0.0,
            vy: 0.0,
        },
        DepositSample {
            x: f64::NAN,
            y: 0.5,
            weight: 1.0,
            vx: 0.0,
            vy: 0.0,
        },
    ];
    let dropped = deposit_cic(&pool, &mut grid, &samples);
    assert_eq!(dropped, 2);
    let area = g.dx() * g.dy();
    assert!((grid.component_total(MOMENT_CHARGE) * area - 1.0).abs() < 1e-12);
}

#[test]
fn deposit_matches_sequential_reference() {
    // Parallel deposition must equal the one-thread result exactly cell-wise
    // up to floating accumulation order within a cell (same chunk split ⇒
    // compare against a 0-thread pool which is fully sequential).
    let par = ThreadPool::new(4);
    let seq = ThreadPool::new(0);
    let g = GridGeometry::unit(32, 32);
    let samples: Vec<DepositSample> = (0..2000)
        .map(|i| {
            let a = (i as f64) * 0.61803398875 % 1.0;
            let b = (i as f64) * 0.41421356237 % 1.0;
            DepositSample {
                x: a,
                y: b,
                weight: 1.0,
                vx: a,
                vy: b,
            }
        })
        .collect();
    let mut grid_a = MomentGrid::zeros(g);
    let mut grid_b = MomentGrid::zeros(g);
    deposit_cic(&par, &mut grid_a, &samples);
    deposit_cic(&seq, &mut grid_b, &samples);
    for (a, b) in grid_a.as_slice().iter().zip(grid_b.as_slice()) {
        assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }
}

#[test]
fn bilinear_gather_reproduces_linear_field_exactly() {
    let g = GridGeometry::unit(16, 16);
    let mut grid = MomentGrid::zeros(g);
    for iy in 0..16 {
        for ix in 0..16 {
            let (x, y) = g.cell_center(ix, iy);
            grid.set(MOMENT_CHARGE, ix, iy, 3.0 * x - 2.0 * y + 1.0);
        }
    }
    for &(x, y) in &[(0.31, 0.62), (0.5, 0.5), (0.91, 0.13)] {
        let v = bilinear_gather(&grid, MOMENT_CHARGE, x, y);
        assert!(
            (v - (3.0 * x - 2.0 * y + 1.0)).abs() < 1e-10,
            "at ({x},{y})"
        );
    }
}

#[test]
fn stencil_weights_form_partition_of_unity() {
    let g = GridGeometry::unit(16, 16);
    let grid = MomentGrid::zeros(g);
    for &s in &[0.0, 0.25, 0.5, 1.0] {
        for &(x, y) in &[(0.5, 0.5), (0.12, 0.83), (0.99, 0.01)] {
            let st = Stencil27::new(&grid, x, y, s);
            assert!(
                (st.weight_sum() - 1.0).abs() < 1e-12,
                "sum at ({x},{y},{s}) = {}",
                st.weight_sum()
            );
        }
    }
}

#[test]
fn stencil_reproduces_linear_space_quadratic_time_exactly() {
    // TSC spatial weights are exact for linear fields; quadratic Lagrange in
    // time is exact for quadratics.
    let g = GridGeometry::unit(16, 16);
    let field = |x: f64, y: f64, t: f64| 1.0 + 2.0 * x - 0.5 * y + 2.0 * t * t - t;
    let mut history = GridHistory::new(g, 4);
    for step in 0..3 {
        let mut grid = MomentGrid::zeros(g);
        for iy in 0..16 {
            for ix in 0..16 {
                let (x, y) = g.cell_center(ix, iy);
                // Time node coordinate: step 1 is the stencil centre (u = step − 1).
                grid.set(MOMENT_CHARGE, ix, iy, field(x, y, step as f64 - 1.0));
            }
        }
        history.push(step, grid);
    }
    let grid = history.get(1).unwrap();
    for &s in &[0.0, 0.3, 0.7, 1.0] {
        let (x, y) = (0.47, 0.55); // interior point
        let st = Stencil27::new(grid, x, y, s);
        let v = st.apply(&history, 1, MOMENT_CHARGE);
        let want = field(x, y, s);
        assert!((v - want).abs() < 1e-9, "s={s}: got {v}, want {want}");
    }
}

#[test]
fn stencil_is_continuous_across_cell_snap_lines() {
    // The interpolant must not jump where the nearest cell centre changes
    // (half-cell lines): adaptive quadrature cannot converge across jumps.
    let g = GridGeometry::unit(16, 16);
    let mut history = GridHistory::new(g, 2);
    let mut grid = MomentGrid::zeros(g);
    for iy in 0..16 {
        for ix in 0..16 {
            // A deliberately rough field (hash-like) to expose any snapping.
            grid.set(MOMENT_CHARGE, ix, iy, ((ix * 7 + iy * 13) % 5) as f64);
        }
    }
    history.push(0, grid);
    let grid = history.get(0).unwrap();
    // Cell centres at (k + 0.5)/16 → snap lines at multiples of 1/16.
    let snap = 5.0 / 16.0;
    let eps = 1e-9;
    let left = Stencil27::new(grid, snap - eps, 0.4, 0.0).apply(&history, 0, MOMENT_CHARGE);
    let right = Stencil27::new(grid, snap + eps, 0.4, 0.0).apply(&history, 0, MOMENT_CHARGE);
    assert!(
        (left - right).abs() < 1e-6,
        "jump at snap line: {left} vs {right}"
    );
}

#[test]
fn stencil_has_exactly_27_taps_with_valid_indices() {
    let g = GridGeometry::unit(8, 8);
    let grid = MomentGrid::zeros(g);
    let st = Stencil27::new(&grid, 0.01, 0.99, 0.5); // corner → shifted patch
    assert_eq!(st.taps().len(), 27);
    for tap in st.taps() {
        assert!(tap.ix < 8 && tap.iy < 8);
        assert!((-1..=1).contains(&tap.dt));
    }
}

#[test]
fn history_push_get_and_eviction() {
    let g = GridGeometry::unit(4, 4);
    let mut h = GridHistory::new(g, 3);
    assert!(h.is_empty());
    for step in 0..5 {
        let mut grid = MomentGrid::zeros(g);
        grid.set(MOMENT_CHARGE, 0, 0, step as f64);
        h.push(step, grid);
    }
    assert_eq!(h.newest_step(), Some(4));
    assert_eq!(h.oldest_step(), Some(2));
    assert!(h.get(1).is_none(), "evicted");
    assert_eq!(h.get(3).unwrap().get(MOMENT_CHARGE, 0, 0), 3.0);
    assert_eq!(h.len(), 3);
}

#[test]
fn history_clamped_read_falls_back_to_oldest() {
    let g = GridGeometry::unit(4, 4);
    let mut h = GridHistory::new(g, 2);
    for step in 0..4 {
        let mut grid = MomentGrid::zeros(g);
        grid.set(MOMENT_CHARGE, 1, 1, 10.0 + step as f64);
        h.push(step, grid);
    }
    // Steps 0 and 1 are gone; clamped read returns step 2 (the oldest).
    let v = h.get_clamped(0).unwrap().get(MOMENT_CHARGE, 1, 1);
    assert_eq!(v, 12.0);
}

#[test]
#[should_panic(expected = "increasing order")]
fn history_rejects_non_monotonic_steps() {
    let g = GridGeometry::unit(4, 4);
    let mut h = GridHistory::new(g, 3);
    h.push(2, MomentGrid::zeros(g));
    h.push(2, MomentGrid::zeros(g));
}

#[test]
fn history_skipped_steps_do_not_alias() {
    let g = GridGeometry::unit(4, 4);
    let mut h = GridHistory::new(g, 4);
    let mut grid = MomentGrid::zeros(g);
    grid.set(MOMENT_CHARGE, 0, 0, 1.0);
    h.push(0, grid);
    h.push(4, MomentGrid::zeros(g)); // step 0's slot is reused by 4
    assert!(h.get(0).is_none());
    assert!(h.get(3).is_none(), "skipped step must read as missing");
    assert!(h.get(4).is_some());
}

/// The libm-free index helpers against the `floor`/`round` forms they
/// replace, on hand-picked specials and on arbitrary f64 bit patterns.
mod index_helpers {
    #![allow(
        clippy::disallowed_methods,
        reason = "the libm forms are the reference the helpers must equal"
    )]

    use proptest::prelude::*;

    use crate::{cic_lower, stencil_center};

    /// Axis lengths from the smallest legal grid to ones whose clamp
    /// bound lies beyond every representable integer below 2⁶³.
    const AXES: [usize; 7] = [2, 3, 4, 24, 1000, 1 << 62, isize::MAX as usize];

    fn floor_form(f: f64, n: usize) -> usize {
        (f.floor() as isize).clamp(0, n as isize - 2) as usize
    }

    fn round_form(f: f64, n: usize) -> usize {
        (f.round() as isize).clamp(1, n as isize - 2) as usize
    }

    fn check(f: f64) -> Result<(), String> {
        for n in AXES {
            prop_assert_eq!(
                cic_lower(f, n),
                floor_form(f, n),
                "cic_lower({:e}, {})",
                f,
                n
            );
            if n >= 3 {
                prop_assert_eq!(
                    stencil_center(f, n),
                    round_form(f, n),
                    "stencil_center({:e}, {})",
                    f,
                    n
                );
            }
        }
        Ok(())
    }

    #[test]
    fn helpers_equal_libm_forms_on_specials() {
        let p52 = 2f64.powi(52);
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            0.5000000000000001,
            p52 + 0.5,
            p52 - 0.5,
            -(p52 + 0.5),
            -(p52 - 0.5),
            p52 + 1.0,
            9.3e18,
            -9.3e18,
            9.223372036854775e18,
            2f64.powi(63),
            -(2f64.powi(63)),
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(1 | (1 << 63)),
            f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            -1.0 + f64::EPSILON / 2.0,
            22.5,
            22.499999999999996,
            999.5,
        ];
        for f in specials {
            check(f).unwrap();
            check(f.next_up()).unwrap();
            check(f.next_down()).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn helpers_equal_libm_forms_on_arbitrary_bits(
            bits in prop::collection::vec(0u64..u64::MAX, 512),
            near in prop::collection::vec(-1.0e3f64..1.0e3, 512),
            halves in prop::collection::vec(-2048i64..2048, 512),
        ) {
            for &b in &bits {
                check(f64::from_bits(b))?;
            }
            for &f in &near {
                check(f)?;
            }
            for &h in &halves {
                let f = h as f64 + 0.5;
                check(f)?;
                check(f.next_up())?;
                check(f.next_down())?;
            }
        }
    }
}
