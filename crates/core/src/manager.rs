//! Multi-PMV management.
//!
//! The paper argues the RDBMS "can afford storing many PMVs" — with
//! L = 10K, F = 2, At = 50 B a PMV is ≤ 1 MB, so memory holds hundreds
//! (Section 3.2) — one per frequently used query template (the call-center
//! scenario needs "many query templates", one `R_sale` per store or
//! department). [`PmvManager`] owns a set of PMVs, finds the one for a
//! query's template ([`PmvManager::view_for`], what a host passes to
//! [`crate::epoch::EpochDb::query`]). Each view is bounded by its own
//! `UB ≤ L·F·At` ([`PmvConfig::with_byte_budget`]). Maintenance is not
//! the manager's: a commit lists the views it changes
//! ([`PmvManager::views`]) and `EpochDb::commit` maintains them.

use std::collections::HashMap;
use std::sync::Arc;

use pmv_query::QueryTemplate;

use crate::concurrent::SharedPmv;
use crate::verify::{self, VerifyOptions};
use crate::view::{PartialViewDef, PmvConfig};
use crate::{CoreError, Result};

/// A named collection of PMVs, one per query template.
pub struct PmvManager {
    views: Vec<SharedPmv>,
    /// template pointer identity → index into `views`.
    by_template: HashMap<usize, usize>,
}

impl Default for PmvManager {
    fn default() -> Self {
        Self::new()
    }
}

impl PmvManager {
    /// Empty manager.
    pub fn new() -> Self {
        PmvManager {
            views: Vec::new(),
            by_template: HashMap::new(),
        }
    }

    fn template_key(t: &Arc<QueryTemplate>) -> usize {
        Arc::as_ptr(t) as usize
    }

    /// Register a PMV for a template with the default shard count. One
    /// PMV per template; see [`Self::register_sharded`] for the gate.
    pub fn register(&mut self, def: PartialViewDef, config: PmvConfig) -> Result<()> {
        self.register_sharded(def, config, None).map(drop)
    }

    /// Register a PMV for a template and hand back the view. `shards` is
    /// an explicit shard count (a checkpointed [`pmv_wal::ViewSpec`]
    /// restores its own), `None` the default of [`SharedPmv::new`].
    ///
    /// The definition first passes through the static verifier
    /// ([`crate::verify::verify_def`]); any `PMV001..PMV006` diagnostic
    /// at deny severity rejects the registration with
    /// [`CoreError::Analysis`] before a store is ever allocated
    /// (deny-by-default, [`VerifyOptions::default`]).
    pub fn register_sharded(
        &mut self,
        def: PartialViewDef,
        config: PmvConfig,
        shards: Option<usize>,
    ) -> Result<&SharedPmv> {
        let report = verify::verify_def(&def, &config, &VerifyOptions::default());
        if report.denied() {
            return Err(CoreError::Analysis(report));
        }
        let key = Self::template_key(def.template());
        if self.by_template.contains_key(&key) {
            return Err(CoreError::Definition(format!(
                "template '{}' already has a PMV",
                def.template().name()
            )));
        }
        self.by_template.insert(key, self.views.len());
        self.views.push(match shards {
            Some(n) => SharedPmv::with_shards(def, config, n),
            None => SharedPmv::new(def, config),
        });
        Ok(self.views.last().expect("just pushed"))
    }

    /// Number of registered PMVs.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// The PMV for a template, if registered.
    pub fn view_for(&self, template: &Arc<QueryTemplate>) -> Option<&SharedPmv> {
        self.by_template
            .get(&Self::template_key(template))
            .map(|&i| &self.views[i])
    }

    /// Per-view exportable telemetry ([`SharedPmv::metrics`]), in
    /// registration order.
    pub fn metrics_views(&self) -> Vec<pmv_obs::ViewMetrics> {
        self.views.iter().map(SharedPmv::metrics).collect()
    }

    /// The most recent `n` lifecycle traces per view, oldest first
    /// within each view.
    pub fn trace_tail(&self, n: usize) -> Vec<pmv_obs::QueryTrace> {
        let mut out = Vec::new();
        for p in &self.views {
            out.extend(p.obs().trace().tail(n));
        }
        out
    }

    /// Iterate over the registered PMVs.
    pub fn views(&self) -> impl Iterator<Item = &SharedPmv> {
        self.views.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochDb;
    use crate::pipeline::QueryOutcome;
    use pmv_cache::PolicyKind;
    use pmv_index::IndexDef;
    use pmv_query::{Condition, Database, QueryInstance, TemplateBuilder, Transaction};
    use pmv_storage::{tuple, Column, ColumnType, Schema, Value};

    fn setup() -> (EpochDb, Arc<QueryTemplate>, Arc<QueryTemplate>) {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .unwrap();
        for i in 0..200i64 {
            db.insert("r", tuple![i, i % 10]).unwrap();
        }
        db.create_index(IndexDef::btree("r", vec![1])).unwrap();
        let ta = TemplateBuilder::new("by_f")
            .relation(db.schema("r").unwrap())
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .build()
            .unwrap();
        let tb = TemplateBuilder::new("by_a")
            .relation(db.schema("r").unwrap())
            .select("r", "f")
            .unwrap()
            .cond_eq("r", "a")
            .unwrap()
            .build()
            .unwrap();
        (EpochDb::new(db), ta, tb)
    }

    /// Serve `q` from its template's view, the way a host routes it.
    fn query(edb: &EpochDb, m: &PmvManager, q: &QueryInstance) -> QueryOutcome {
        edb.query(m.view_for(q.template()).unwrap(), q).unwrap()
    }

    /// Delete the row whose `a` is 13 (`f` = 3), maintaining `views`.
    fn delete_13(edb: &EpochDb, views: &[&SharedPmv]) {
        let row = edb
            .read()
            .relation("r")
            .unwrap()
            .read()
            .iter()
            .find(|(_, t)| t.get(0) == &Value::Int(13))
            .map(|(r, _)| r)
            .unwrap();
        edb.commit(views, move |db| {
            let mut txn = Transaction::begin(db);
            txn.delete("r", row)?;
            Ok(((), txn.commit()))
        })
        .unwrap();
    }

    /// Revalidate every view, as the CLI's `revalidate` does; returns
    /// the tuples removed.
    fn revalidate(m: &PmvManager, edb: &EpochDb) -> usize {
        let db = edb.read();
        m.views().map(|v| v.revalidate(&db).unwrap()).sum()
    }

    fn mgr(ta: &Arc<QueryTemplate>, tb: &Arc<QueryTemplate>) -> PmvManager {
        let mut m = PmvManager::new();
        m.register(
            PartialViewDef::all_equality("pmv_a", ta.clone()).unwrap(),
            PmvConfig::new(2, 16, PolicyKind::Clock),
        )
        .unwrap();
        m.register(
            PartialViewDef::all_equality("pmv_b", tb.clone()).unwrap(),
            PmvConfig::new(2, 16, PolicyKind::Clock),
        )
        .unwrap();
        m
    }

    #[test]
    fn routes_queries_by_template() {
        let (edb, ta, tb) = setup();
        let m = mgr(&ta, &tb);
        let qa = ta
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        let qb = tb
            .bind(vec![Condition::Equality(vec![Value::Int(7)])])
            .unwrap();
        query(&edb, &m, &qa);
        query(&edb, &m, &qb);
        assert_eq!(m.view_for(&ta).unwrap().stats().queries, 1);
        assert_eq!(m.view_for(&tb).unwrap().stats().queries, 1);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let (_edb, ta, tb) = setup();
        let mut m = mgr(&ta, &tb);
        let err = m.register(
            PartialViewDef::all_equality("again", ta.clone()).unwrap(),
            PmvConfig::default(),
        );
        assert!(err.is_err());
        assert_eq!(m.view_count(), 2);
    }

    #[test]
    fn register_sharded_keeps_the_shard_count_and_the_gates() {
        let (_edb, ta, _tb) = setup();
        let mut m = PmvManager::new();
        let def = PartialViewDef::all_equality("three", ta.clone()).unwrap();
        let view = m
            .register_sharded(def, PmvConfig::default(), Some(3))
            .unwrap();
        assert_eq!(view.shard_count(), 3);
        assert_eq!(m.view_for(&ta).unwrap().shard_count(), 3);
        let again = PartialViewDef::all_equality("again", ta.clone()).unwrap();
        assert!(m
            .register_sharded(again, PmvConfig::default(), Some(2))
            .is_err());
        assert_eq!(m.view_count(), 1);
    }

    #[test]
    fn unregistered_template_has_no_view() {
        let (_edb, ta, tb) = setup();
        let mut m = PmvManager::new();
        m.register(
            PartialViewDef::all_equality("only_a", ta.clone()).unwrap(),
            PmvConfig::default(),
        )
        .unwrap();
        assert!(m.view_for(&ta).is_some());
        assert!(m.view_for(&tb).is_none());
    }

    #[test]
    fn maintenance_fans_out_to_referencing_views() {
        let (edb, ta, tb) = setup();
        let m = mgr(&ta, &tb);
        // Warm both.
        let qa = ta
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        let qb = tb
            .bind(vec![Condition::Equality(vec![Value::Int(13)])])
            .unwrap();
        query(&edb, &m, &qa);
        query(&edb, &m, &qb);
        // Delete tuple (13, 3): both PMVs reference relation r.
        delete_13(&edb, &m.views().collect::<Vec<_>>());
        for v in m.views() {
            assert_eq!(
                v.stats().maint_deletes_joined,
                1,
                "{} not maintained",
                v.def().name()
            );
        }
        let removed: u64 = m.views().map(|v| v.stats().maint_tuples_removed).sum();
        assert!(
            removed >= 1,
            "the cached (13) tuple must be evicted somewhere"
        );
        // Queries stay consistent.
        assert_eq!(query(&edb, &m, &qa).ds_leftover, 0);
        assert_eq!(query(&edb, &m, &qb).ds_leftover, 0);
    }

    #[test]
    fn revalidate_sweeps_every_view() {
        let (edb, ta, tb) = setup();
        let m = mgr(&ta, &tb);
        let qa = ta
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        let qb = tb
            .bind(vec![Condition::Equality(vec![Value::Int(13)])])
            .unwrap();
        query(&edb, &m, &qa);
        query(&edb, &m, &qb);
        // Nothing stale yet.
        assert_eq!(revalidate(&m, &edb), 0);
        // Commit a delete that maintains no view: both PMVs cached tuples
        // derived from it, so revalidation must sweep them out.
        delete_13(&edb, &[]);
        let removed = revalidate(&m, &edb);
        assert!(removed >= 1, "stale tuples must be removed, got {removed}");
        assert_eq!(query(&edb, &m, &qa).ds_leftover, 0);
    }

    #[test]
    fn register_runs_static_verifier_deny_by_default() {
        use crate::bcp::Discretizer;
        use crate::verify::DiagCode;
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .unwrap();
        let t = TemplateBuilder::new("iv")
            .relation(db.schema("r").unwrap())
            .select("r", "a")
            .unwrap()
            .cond_interval("r", "f")
            .unwrap()
            .build()
            .unwrap();
        // Raw, unnormalized dividers: PMV002 must deny the registration.
        let bad = Discretizer::from_raw(vec![Value::Int(20), Value::Int(10)]);
        let def = PartialViewDef::new("bad_grid", t, vec![Some(bad)]).unwrap();
        let mut m = PmvManager::new();
        let err = m.register(def, PmvConfig::default()).unwrap_err();
        match err {
            CoreError::Analysis(report) => {
                assert!(report.has(DiagCode::OverlappingBasicIntervals), "{report}")
            }
            other => panic!("expected analysis denial, got {other}"),
        }
        assert_eq!(m.view_count(), 0, "no store allocated for a denied view");
    }

    #[test]
    fn revalidate_resets_transient_counters() {
        let (edb, ta, tb) = setup();
        let mut m = PmvManager::new();
        // A zero row budget degrades every query: transient counters rise.
        m.register(
            PartialViewDef::all_equality("tight", ta.clone()).unwrap(),
            PmvConfig::new(2, 16, PolicyKind::Clock).with_row_budget(0),
        )
        .unwrap();
        m.register(
            PartialViewDef::all_equality("other", tb.clone()).unwrap(),
            PmvConfig::new(2, 16, PolicyKind::Clock),
        )
        .unwrap();
        let qa = ta
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        query(&edb, &m, &qa);
        let before = m.view_for(&ta).unwrap().stats();
        assert!(before.budget_exceeded > 0, "row budget must have tripped");
        assert!(before.degraded_queries > 0);
        revalidate(&m, &edb);
        let after = m.view_for(&ta).unwrap().stats();
        assert_eq!(after.budget_exceeded, 0, "transient counters reset");
        assert_eq!(after.degraded_queries, 0);
        assert_eq!(after.queries, before.queries, "workload history kept");
        assert_eq!(after.revalidations, 1);
    }

    #[test]
    fn metrics_export_covers_every_view_and_phase() {
        let (edb, ta, tb) = setup();
        let m = mgr(&ta, &tb);
        // Repeats make the second query of each pair a bcp hit.
        for f in [0i64, 0, 1, 1, 2] {
            let q = ta
                .bind(vec![Condition::Equality(vec![Value::Int(f)])])
                .unwrap();
            query(&edb, &m, &q);
        }
        let views = m.metrics_views();
        assert_eq!(views.len(), 2);
        let v = views.iter().find(|v| v.name == "pmv_a").unwrap();
        assert_eq!(v.health, "healthy");
        assert_eq!(v.template.as_deref(), Some("by_f"));
        assert_eq!(v.counter("queries"), 5, "{:?}", v.counters);
        assert!(v.gauge("hit_probability") > 0.0);
        // Every declared phase appears; ttfr/full actually recorded.
        assert_eq!(v.phases.len(), pmv_obs::Phase::ALL.len());
        assert_eq!(v.phase("ttfr").count(), 5);

        let text = pmv_obs::to_prometheus(&m.metrics_views());
        assert!(
            text.contains("pmv_queries_total{view=\"pmv_a\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("pmv_phase_latency_seconds_count{view=\"pmv_a\",phase=\"full\"} 5"),
            "{text}"
        );
        // Traces were captured and the tail is bounded per view.
        let traces = m.trace_tail(3);
        assert_eq!(traces.len(), 3, "only pmv_a ran queries");
        assert!(traces.iter().all(|t| &*t.template == "pmv_a"));
        assert!(traces
            .iter()
            .all(|t| t.events.iter().any(|e| e.kind.name() == "first_results")));
    }

    #[test]
    fn metrics_carry_last_verified_age() {
        let (edb, ta, tb) = setup();
        let m = mgr(&ta, &tb);
        let qa = ta
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        query(&edb, &m, &qa);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let ages = |m: &PmvManager| -> Vec<u64> {
            m.metrics_views()
                .iter()
                .map(|v| v.last_verified_age_ms)
                .collect()
        };
        assert!(ages(&m).iter().all(|&a| a >= 5));
        // A revalidation sweep resets the age.
        revalidate(&m, &edb);
        assert!(ages(&m).iter().all(|&a| a < 5), "{:?}", ages(&m));
    }
}
