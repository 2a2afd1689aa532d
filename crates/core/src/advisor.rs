//! A PMV advisor: decide *which templates deserve a PMV* and how to
//! configure it, from an observed workload.
//!
//! Section 2.2 recounts how automatic MV selection tools pick views from
//! query traces but cannot afford "a MV for each frequently used query
//! template". PMVs are cheap enough that the selection problem becomes
//! easy: watch the trace, give every frequently-used template a PMV,
//! split the memory budget by query share, and learn each interval
//! condition's dividing values from the trace's endpoints
//! ([`Discretizer::learn_from_trace`]).

use std::collections::HashMap;
use std::sync::Arc;

use pmv_cache::PolicyKind;
use pmv_query::{CondForm, Condition, Interval, QueryInstance, QueryTemplate};

use crate::bcp::Discretizer;
use crate::verify::{estimate_entry_bytes, estimate_tuple_bytes};
use crate::view::{PartialViewDef, PmvConfig};
use crate::Result;

/// Advisor tuning.
#[derive(Clone, Debug)]
pub struct AdvisorConfig {
    /// Minimum observed queries before a template earns a PMV.
    pub min_queries: u64,
    /// Total byte budget split across recommended PMVs.
    pub byte_budget: usize,
    /// `F` for recommended PMVs.
    pub f: usize,
    /// Cap on learned dividing values per interval condition.
    pub max_dividers: usize,
    /// Replacement policy for recommended PMVs.
    pub policy: PolicyKind,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            min_queries: 10,
            byte_budget: 16 << 20, // 16 MiB: "the memory can hold many PMVs"
            f: 2,
            max_dividers: 256,
            policy: PolicyKind::Clock,
        }
    }
}

/// Per-template observations.
struct TemplateTrace {
    template: Arc<QueryTemplate>,
    queries: u64,
    condition_parts: u64,
    /// Observed intervals per interval-form condition index.
    interval_traces: HashMap<usize, Vec<Interval>>,
}

/// Observes a workload and recommends PMV definitions.
#[derive(Default)]
pub struct PmvAdvisor {
    traces: HashMap<usize, TemplateTrace>,
}

/// One recommendation: a ready-to-instantiate definition and config.
pub struct Recommendation {
    /// The PMV definition (with learned discretizers).
    pub def: PartialViewDef,
    /// Suggested tuning (entry budget `L` from the byte-budget share).
    pub config: PmvConfig,
    /// Queries observed for this template.
    pub queries: u64,
    /// Mean combination factor h observed.
    pub mean_h: f64,
}

impl PmvAdvisor {
    /// Empty advisor.
    pub fn new() -> Self {
        PmvAdvisor::default()
    }

    /// Record one query of the workload.
    pub fn observe(&mut self, q: &QueryInstance) {
        let key = Arc::as_ptr(q.template()) as usize;
        let entry = self.traces.entry(key).or_insert_with(|| TemplateTrace {
            template: Arc::clone(q.template()),
            queries: 0,
            condition_parts: 0,
            interval_traces: HashMap::new(),
        });
        entry.queries += 1;
        entry.condition_parts += q.combination_factor() as u64;
        for (i, c) in q.conds().iter().enumerate() {
            if let Condition::Intervals(ivs) = c {
                entry
                    .interval_traces
                    .entry(i)
                    .or_default()
                    .extend(ivs.iter().cloned());
            }
        }
    }

    /// Recommend PMVs for every template above the frequency threshold,
    /// most-queried first.
    pub fn recommend(&self, cfg: &AdvisorConfig) -> Result<Vec<Recommendation>> {
        let mut eligible: Vec<&TemplateTrace> = self
            .traces
            .values()
            .filter(|t| t.queries >= cfg.min_queries)
            .collect();
        eligible.sort_by_key(|t| std::cmp::Reverse(t.queries));
        let total_queries: u64 = eligible.iter().map(|t| t.queries).sum();
        if total_queries == 0 {
            return Ok(Vec::new());
        }

        let mut out = Vec::with_capacity(eligible.len());
        for t in eligible {
            // Budget share proportional to query frequency, sized by the
            // paper's bound with the store's per-entry charge added,
            // `UB ≤ L·(E + F·At)`, `E` and `At` what the view's store
            // charges per entry and per cached tuple.
            let share = (cfg.byte_budget as f64 * t.queries as f64 / total_queries as f64) as usize;
            let e = estimate_entry_bytes(&t.template);
            let at = estimate_tuple_bytes(&t.template);
            let config = PmvConfig::with_byte_budget(cfg.f, share, e, at, cfg.policy);
            // Discretizers: learned per interval-form condition.
            let mut discretizers = Vec::with_capacity(t.template.cond_count());
            for (i, ct) in t.template.cond_templates().iter().enumerate() {
                match ct.form {
                    CondForm::Equality => discretizers.push(None),
                    CondForm::Interval => {
                        let trace = t.interval_traces.get(&i).map(Vec::as_slice).unwrap_or(&[]);
                        if trace.is_empty() {
                            // No observations: a single divider at an
                            // arbitrary origin keeps the definition valid.
                            discretizers
                                .push(Some(Discretizer::new(vec![pmv_storage::Value::Int(0)])));
                        } else {
                            discretizers
                                .push(Some(Discretizer::learn_from_trace(trace, cfg.max_dividers)));
                        }
                    }
                }
            }
            let def = PartialViewDef::new(
                format!("auto_{}", t.template.name()),
                Arc::clone(&t.template),
                discretizers,
            )?;
            out.push(Recommendation {
                def,
                config,
                queries: t.queries,
                mean_h: t.condition_parts as f64 / t.queries as f64,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_query::{Database, TemplateBuilder};
    use pmv_storage::{Column, ColumnType, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("f", ColumnType::Int),
                Column::new("g", ColumnType::Int),
            ],
        ))
        .unwrap();
        db
    }

    fn hot_template(db: &Database) -> Arc<QueryTemplate> {
        TemplateBuilder::new("hot")
            .relation(db.schema("r").unwrap())
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .cond_interval("r", "g")
            .unwrap()
            .build()
            .unwrap()
    }

    fn cold_template(db: &Database) -> Arc<QueryTemplate> {
        TemplateBuilder::new("cold")
            .relation(db.schema("r").unwrap())
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn frequency_threshold_filters_templates() {
        let db = db();
        let hot = hot_template(&db);
        let cold = cold_template(&db);
        let mut advisor = PmvAdvisor::new();
        for i in 0..20i64 {
            let q = hot
                .bind(vec![
                    Condition::Equality(vec![Value::Int(i % 3)]),
                    Condition::Intervals(vec![Interval::half_open(0i64, 10i64)]),
                ])
                .unwrap();
            advisor.observe(&q);
        }
        for _ in 0..3 {
            let q = cold
                .bind(vec![Condition::Equality(vec![Value::Int(1)])])
                .unwrap();
            advisor.observe(&q);
        }
        let recs = advisor.recommend(&AdvisorConfig::default()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].def.template().name(), "hot");
        assert_eq!(recs[0].queries, 20);
    }

    #[test]
    fn learned_discretizer_covers_trace_endpoints() {
        let db = db();
        let hot = hot_template(&db);
        let mut advisor = PmvAdvisor::new();
        for _ in 0..15 {
            let q = hot
                .bind(vec![
                    Condition::Equality(vec![Value::Int(1)]),
                    Condition::Intervals(vec![Interval::half_open(100i64, 200i64)]),
                ])
                .unwrap();
            advisor.observe(&q);
        }
        let recs = advisor.recommend(&AdvisorConfig::default()).unwrap();
        let disc = recs[0].def.discretizer(1).unwrap();
        assert_eq!(disc.dividers(), &[Value::Int(100), Value::Int(200)]);
        // With aligned dividers the hot query decomposes into one basic
        // part (h = 1): maximally cacheable.
        assert!((recs[0].mean_h - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_split_is_proportional() {
        let db = db();
        let a = hot_template(&db);
        let b = cold_template(&db);
        let mut advisor = PmvAdvisor::new();
        for _ in 0..30 {
            advisor.observe(
                &a.bind(vec![
                    Condition::Equality(vec![Value::Int(1)]),
                    Condition::Intervals(vec![Interval::half_open(0i64, 1i64)]),
                ])
                .unwrap(),
            );
        }
        for _ in 0..10 {
            advisor.observe(
                &b.bind(vec![Condition::Equality(vec![Value::Int(1)])])
                    .unwrap(),
            );
        }
        let cfg = AdvisorConfig {
            min_queries: 5,
            byte_budget: 4_000_000,
            ..Default::default()
        };
        let recs = advisor.recommend(&cfg).unwrap();
        assert_eq!(recs.len(), 2);
        // 3:1 query ratio ⇒ ~3:1 byte-budget ratio, `L·(E + F·At)` per
        // view (the two templates store tuples of different widths).
        let bytes = |r: &Recommendation| {
            let t = r.def.template();
            r.config.l * (estimate_entry_bytes(t) + r.config.f * estimate_tuple_bytes(t))
        };
        let ratio = bytes(&recs[0]) as f64 / bytes(&recs[1]) as f64;
        assert!((2.5..=3.5).contains(&ratio), "ratio {ratio}");
    }

    /// A recommended view fits its share: `L·(E + F·At) ≤ share`, with
    /// `E` and `At` the estimates of the store's charge per T1 entry (the
    /// 4-byte handle and a key of two integers) and per T1 tuple (seven
    /// of its ten values stored), which bound the charge from above.
    #[test]
    fn recommended_view_fits_its_share() {
        use crate::store::HANDLE_BYTES;
        use pmv_storage::packed::{entry_frame_len, tag_bytes, MAX_NUMBER_BYTES};
        use pmv_storage::string::INLINE_CAP;
        use pmv_storage::{tuple, PackedRow};
        let mut db = Database::new();
        for (name, cols) in [
            ("orders", ["orderkey", "custkey", "orderdate", "totalprice"]),
            ("lineitem", ["orderkey", "suppkey", "quantity", "price"]),
        ] {
            let cols = cols
                .iter()
                .map(|c| Column::new(*c, ColumnType::Int))
                .chain([Column::new("filler", ColumnType::Str)])
                .collect();
            db.create_relation(Schema::new(name, cols)).unwrap();
        }
        let t1 = TemplateBuilder::new("T1")
            .relation(db.schema("orders").unwrap())
            .relation(db.schema("lineitem").unwrap())
            .join("orders", "orderkey", "lineitem", "orderkey")
            .unwrap()
            .select_star()
            .cond_eq("orders", "orderdate")
            .unwrap()
            .cond_eq("lineitem", "suppkey")
            .unwrap()
            .build()
            .unwrap();
        let mut advisor = PmvAdvisor::new();
        for i in 0..12i64 {
            let eq = |v: i64| Condition::Equality(vec![Value::Int(v)]);
            advisor.observe(&t1.bind(vec![eq(i), eq(i % 4)]).unwrap());
        }
        let share = 1 << 20;
        let cfg = AdvisorConfig {
            byte_budget: share,
            ..Default::default()
        };
        let recs = advisor.recommend(&cfg).unwrap();
        // Five integers at T1's widest (orderkey ≤ 30 000, custkey ≤
        // 3 000, totalprice < 500 000, quantity ≤ 50, price < 100 000)
        // and two empty fillers are charged 1 + 4 + 11 B at most: a byte
        // of header, four tag bytes and the integers' payloads. The
        // estimate counts the same tag bytes, each integer's payload at
        // 8 B and each filler's at its inline bound, 70 B behind two
        // bytes.
        let widest = tuple![30_000i64, 3_000i64, 499_999i64, "", 50i64, 99_999i64, ""];
        let charge = entry_frame_len(PackedRow::from(&widest).as_bytes().len());
        let at = estimate_tuple_bytes(&t1);
        assert_eq!(
            (charge, at),
            (
                16,
                2 + tag_bytes(7) + 5 * MAX_NUMBER_BYTES + 2 * (1 + INLINE_CAP)
            )
        );
        assert!(at >= charge);
        let e = estimate_entry_bytes(&t1);
        assert_eq!(e, HANDLE_BYTES + 1 + tag_bytes(2) + 2 * MAX_NUMBER_BYTES);
        let c = &recs[0].config;
        let entry = e + c.f * at;
        assert!(
            c.l * entry <= share,
            "{} × ({e} + {} × {at}) > {share}",
            c.l,
            c.f
        );
        assert!((c.l + 1) * entry > share, "L is the largest that fits");
    }

    #[test]
    fn empty_advisor_recommends_nothing() {
        let advisor = PmvAdvisor::new();
        assert!(advisor
            .recommend(&AdvisorConfig::default())
            .unwrap()
            .is_empty());
    }
}
