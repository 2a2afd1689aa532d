//! Analytical model of MV vs. PMV maintenance cost (Section 4.3).
//!
//! The paper evaluates maintenance overhead with an analytical model (of
//! the style validated on NCR Teradata in \[24\]; details in the full
//! version \[25\]): a single transaction `T` inserts `p·|ΔR|` tuples into
//! base relation `R` and deletes `(1-p)·|ΔR|` tuples from it, with
//! `|ΔR| = 1000`. The cost metric is **TW**, total work in I/Os. The
//! base-relation updates themselves cost the same under both methods and
//! are omitted; only view maintenance is compared.
//!
//! Mechanisms encoded (all straight from Sections 3.4 and 4.3):
//!
//! * **MV, insert**: must join the new tuple against the other base
//!   relation (index descent + data fetches) and insert the `k` resulting
//!   view rows (plus view-index updates).
//! * **MV, delete**: same join, then delete the `k` view rows — costlier
//!   per row than insertion ("inserting a tuple into V_M is less
//!   expensive than deleting a tuple from V_M", e.g. extra index probes
//!   to locate the victim rows and more random writes).
//! * **PMV, insert**: free. "There is no need to maintain V_PM in the
//!   presence of insertion into base relation R."
//! * **PMV, delete**: mainly cheap in-memory operations — the PMV is
//!   small and memory-resident, and the join can usually be avoided via
//!   light indices on V_PM attributes (\[25\]); the tiny I/O charge models
//!   the occasional miss.
//!
//! With the default parameters the model lands where the paper's figures
//! do: TW_MV ≈ 10⁴ I/Os and TW_PMV ≈ 10² I/Os at p = 0 (≥ 2 orders of
//! magnitude apart), both decreasing in p, the speedup ratio increasing
//! in p, and PMV maintenance exactly 0 at p = 100 % (unplottable on the
//! paper's log axis, as it notes).

/// Model parameters.
#[derive(Clone, Copy, Debug)]
pub struct CostParams {
    /// Transaction size `|ΔR|` (paper: 1000).
    pub delta_size: u64,
    /// View rows affected per ΔR tuple (join fan-out `k`; the TPC-R
    /// orders→lineitem fan-out is 4).
    pub join_fanout: f64,
    /// I/Os to join one ΔR tuple with the other base relations (index
    /// descent + matching data pages).
    pub join_io: f64,
    /// I/Os to insert one row into the MV (row write + index updates,
    /// partially amortized).
    pub mv_insert_io_per_row: f64,
    /// I/Os to delete one row from the MV (locate + remove + index
    /// updates; costlier than insert).
    pub mv_delete_io_per_row: f64,
    /// Per-delete PMV cost in I/O-equivalents (in-memory index checks on
    /// the mostly-cached PMV; ≪ 1).
    pub pmv_delete_io: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            delta_size: 1_000,
            join_fanout: 4.0,
            join_io: 2.0,
            mv_insert_io_per_row: 1.0,
            mv_delete_io_per_row: 2.0,
            pmv_delete_io: 0.1,
        }
    }
}

/// One evaluated point of the model.
#[derive(Clone, Copy, Debug)]
pub struct CostPoint {
    /// Insert fraction `p` in `[0, 1]`.
    pub p: f64,
    /// Total MV maintenance work for transaction T, in I/Os.
    pub mv_tw: f64,
    /// Total PMV maintenance work, in I/Os.
    pub pmv_tw: f64,
    /// Speedup `mv_tw / pmv_tw`; `None` when PMV work is exactly 0
    /// (p = 100 %), where the ratio is unbounded.
    pub speedup: Option<f64>,
}

impl CostParams {
    fn check_p(p: f64) {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
    }

    /// MV maintenance cost for transaction T at insert fraction `p`.
    pub fn mv_tw(&self, p: f64) -> f64 {
        Self::check_p(p);
        let n = self.delta_size as f64;
        let per_insert = self.join_io + self.join_fanout * self.mv_insert_io_per_row;
        let per_delete = self.join_io + self.join_fanout * self.mv_delete_io_per_row;
        n * (p * per_insert + (1.0 - p) * per_delete)
    }

    /// PMV maintenance cost for transaction T at insert fraction `p`.
    /// Inserts are free; deletes are cheap in-memory checks.
    pub fn pmv_tw(&self, p: f64) -> f64 {
        Self::check_p(p);
        let n = self.delta_size as f64;
        n * (1.0 - p) * self.pmv_delete_io
    }

    /// Evaluate one point.
    pub fn point(&self, p: f64) -> CostPoint {
        let mv = self.mv_tw(p);
        let pmv = self.pmv_tw(p);
        CostPoint {
            p,
            mv_tw: mv,
            pmv_tw: pmv,
            speedup: if pmv > 0.0 { Some(mv / pmv) } else { None },
        }
    }

    /// Sweep `p` over `0..=steps` evenly spaced points in `[0, 1]`
    /// (Figures 11 and 12 use 0 %..100 % in 20 % / 10 % gridlines).
    pub fn sweep(&self, steps: usize) -> Vec<CostPoint> {
        assert!(steps >= 1);
        (0..=steps)
            .map(|i| self.point(i as f64 / steps as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_magnitudes_at_p_zero() {
        let m = CostParams::default();
        let pt = m.point(0.0);
        // Figure 11: MV ≈ 10^4, PMV in 10..100 at p = 0.
        assert!((5_000.0..=20_000.0).contains(&pt.mv_tw), "{}", pt.mv_tw);
        assert!((10.0..=200.0).contains(&pt.pmv_tw), "{}", pt.pmv_tw);
        // "At least two orders of magnitude cheaper."
        assert!(pt.speedup.unwrap() >= 100.0);
    }

    #[test]
    fn both_costs_decrease_with_p() {
        let m = CostParams::default();
        let pts = m.sweep(10);
        for w in pts.windows(2) {
            assert!(w[1].mv_tw < w[0].mv_tw, "MV TW must fall as p rises");
            assert!(w[1].pmv_tw <= w[0].pmv_tw, "PMV TW must fall as p rises");
        }
    }

    #[test]
    fn speedup_increases_with_p_and_diverges() {
        let m = CostParams::default();
        let pts = m.sweep(10);
        for pt in &pts {
            // Figs. 11 and 12 under `--nocapture`.
            println!(
                "p = {:.1}: MV {:.0} I/Os, PMV {:.0} I/Os, speedup {:.0?}",
                pt.p, pt.mv_tw, pt.pmv_tw, pt.speedup
            );
        }
        let finite: Vec<f64> = pts.iter().filter_map(|p| p.speedup).collect();
        for w in finite.windows(2) {
            assert!(w[1] > w[0], "speedup must increase with p");
        }
        // p = 100%: PMV cost is exactly 0, ratio unbounded.
        assert_eq!(pts.last().unwrap().pmv_tw, 0.0);
        assert!(pts.last().unwrap().speedup.is_none());
    }

    #[test]
    fn mv_insert_cheaper_than_delete() {
        let m = CostParams::default();
        // Implied by the model only when the per-row delete cost exceeds
        // the per-row insert cost, which the defaults assert.
        assert!(m.mv_delete_io_per_row > m.mv_insert_io_per_row);
        assert!(m.mv_tw(1.0) < m.mv_tw(0.0));
    }

    #[test]
    fn figure12_range_near_p90() {
        // Paper's Figure 12 tops out in the hundreds near p = 100 %.
        let m = CostParams::default();
        let s90 = m.point(0.9).speedup.unwrap();
        assert!((300.0..=1_000.0).contains(&s90), "{s90}");
    }

    #[test]
    fn sweep_covers_unit_interval() {
        let pts = CostParams::default().sweep(5);
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0].p, 0.0);
        assert_eq!(pts[5].p, 1.0);
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1]")]
    fn p_out_of_range_panics() {
        CostParams::default().mv_tw(1.5);
    }

    #[test]
    fn scaling_with_delta_size() {
        let small = CostParams {
            delta_size: 100,
            ..Default::default()
        };
        let big = CostParams {
            delta_size: 1_000,
            ..Default::default()
        };
        assert!((big.mv_tw(0.3) / small.mv_tw(0.3) - 10.0).abs() < 1e-9);
    }
}
