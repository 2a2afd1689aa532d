//! The level-at-a-time executor against the loop it replaced.
//!
//! `reference` below is the depth-first index nested loop written the
//! obvious way — one probe, one row, one recursion at a time. The
//! executor batches all of that, and is only allowed to differ in *when*
//! it waits for memory: same rows in the same order (fills, evictions and
//! `view_bytes` of a PMV depend on result order), same `ExecStats`, same
//! number of firings of every fault site, same budget verdicts. Random
//! two- and three-relation databases and templates are also checked
//! against the nested-loop scan as a multiset, and the batch edges
//! ([`DRIVE_BATCH`] ± 1, a posting list longer than [`LEVEL_CHUNK`]) are
//! pinned by hand.
//!
//! The fault plan is process-global, so every test here serializes on
//! one lock.

use std::ops::Bound;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pmv_faultinject::{FaultKind, FaultPlan, Site};
use pmv_index::{IndexDef, IndexKey, IndexShape};
use pmv_query::exec::{join_from, DRIVE_BATCH, LEVEL_CHUNK};
use pmv_query::{
    execute, execute_bounded, execute_scan, AttrRef, BudgetExceeded, Condition, Database,
    ExecBudget, ExecStats, Interval, QueryError, QueryInstance, QueryTemplate, TemplateBuilder,
};
use pmv_storage::{Column, ColumnType, HeapRelation, RowId, Schema, Tuple, Value};
use proptest::prelude::*;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// The reference: depth-first index nested loops.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Reference {
    rows: Vec<Tuple>,
    stats: ExecStats,
    /// `HeapRelation::get` calls: what `Site::StorageRead` must count.
    fetched: u64,
}

struct Dfs<'a> {
    db: &'a Database,
    t: &'a QueryTemplate,
    /// Selection conditions; empty for the §3.4 join.
    conds: &'a [Condition],
    rels: Vec<Arc<HeapRelation>>,
    /// `(new attribute, bound attribute)` per step, in binding order.
    steps: Vec<(AttrRef, AttrRef)>,
    out: Reference,
}

impl<'a> Dfs<'a> {
    fn new(db: &'a Database, t: &'a QueryTemplate, conds: &'a [Condition], start: usize) -> Self {
        let rels = (t.relations().iter())
            .map(|name| db.relation(name).unwrap().read().clone())
            .collect();
        // Same order as the executor: the first join edge, in template
        // order, with exactly one side bound.
        let mut bound = vec![false; t.relations().len()];
        bound[start] = true;
        let mut steps = Vec::new();
        while steps.len() + 1 < bound.len() {
            let (new, old) = (t.joins().iter())
                .find_map(
                    |j| match (bound[j.left.relation], bound[j.right.relation]) {
                        (true, false) => Some((j.right, j.left)),
                        (false, true) => Some((j.left, j.right)),
                        _ => None,
                    },
                )
                .expect("connected join graph");
            bound[new.relation] = true;
            steps.push((new, old));
        }
        Dfs {
            db,
            t,
            conds,
            rels,
            steps,
            out: Reference::default(),
        }
    }

    fn local_predicates_hold(&self, rel: usize, tuple: &Tuple) -> bool {
        let fixed = (self.t.fixed_preds().iter())
            .all(|fp| fp.attr.relation != rel || tuple.get(fp.attr.column) == &fp.value);
        let conds = self.conds.iter().enumerate().all(|(i, c)| {
            let attr = self.t.cond_templates()[i].attr;
            attr.relation != rel || c.matches(tuple.get(attr.column))
        });
        fixed && conds
    }

    /// Examine `tuple` for `rel`; if it passes, bind it and go one step
    /// deeper.
    fn bind(&mut self, depth: usize, rel: usize, tuple: &Tuple, bindings: &mut [Option<Tuple>]) {
        self.out.stats.tuples_examined += 1;
        if self.local_predicates_hold(rel, tuple) {
            bindings[rel] = Some(tuple.clone());
            self.descend(depth, bindings);
            bindings[rel] = None;
        }
    }

    fn descend(&mut self, depth: usize, bindings: &mut [Option<Tuple>]) {
        let at = |a: &AttrRef| bindings[a.relation].as_ref().unwrap().get(a.column).clone();
        let Some(&(new, old)) = self.steps.get(depth) else {
            if self.t.joins().iter().all(|j| at(&j.left) == at(&j.right)) {
                let row: Vec<Value> = self.t.expanded_list().iter().map(at).collect();
                self.out.rows.push(Tuple::new(row));
                self.out.stats.results += 1;
            }
            return;
        };
        let probe = at(&old);
        let rel = self.rels[new.relation].clone();
        match self
            .db
            .index_on(&self.t.relations()[new.relation], &[new.column])
        {
            Some(idx) => {
                self.out.stats.index_probes += 1;
                for &row in idx.probe(std::slice::from_ref(&probe)) {
                    self.out.fetched += 1;
                    let tuple = rel.get(row).expect("indexes point at live rows");
                    self.bind(depth + 1, new.relation, tuple, bindings);
                }
            }
            None => {
                self.out.stats.fallback_scans += 1;
                for (_, tuple) in rel.iter().filter(|(_, t)| t.get(new.column) == &probe) {
                    self.bind(depth + 1, new.relation, tuple, bindings);
                }
            }
        }
    }
}

/// What `execute` must return for `q`, computed one row at a time. No
/// statistics are gathered in these tests, so the drive is the first
/// condition's relation.
fn reference(db: &Database, q: &QueryInstance) -> Reference {
    let t = q.template().as_ref();
    let attr = t.cond_templates()[0].attr;
    let mut dfs = Dfs::new(db, t, q.conds(), attr.relation);
    let rel = dfs.rels[attr.relation].clone();
    let idx = db.index_on(&t.relations()[attr.relation], &[attr.column]);
    let key = |b: &Bound<Value>| match b {
        Bound::Included(v) => Bound::Included(IndexKey::single(v.clone())),
        Bound::Excluded(v) => Bound::Excluded(IndexKey::single(v.clone())),
        Bound::Unbounded => Bound::Unbounded,
    };
    let candidates: Vec<RowId> = match (&q.conds()[0], idx) {
        (Condition::Equality(values), Some(idx)) => {
            dfs.out.stats.index_probes += values.len();
            let probes = values.iter().map(|v| idx.probe(std::slice::from_ref(v)));
            probes.flatten().copied().collect()
        }
        (Condition::Intervals(ivs), Some(idx)) if idx.supports_range() => {
            dfs.out.stats.range_scans += ivs.len();
            let scans = ivs.iter().map(|iv| {
                let (lo, hi) = (key(&iv.lo), key(&iv.hi));
                idx.range(lo.as_ref(), hi.as_ref()).unwrap()
            });
            scans.flatten().flat_map(|(_, rows)| rows).collect()
        }
        _ => {
            dfs.out.stats.fallback_scans += 1;
            rel.iter().map(|(row, _)| row).collect()
        }
    };
    let mut bindings = vec![None; t.relations().len()];
    for row in candidates {
        dfs.out.fetched += 1;
        let tuple = rel.get(row).expect("indexes point at live rows");
        dfs.bind(0, attr.relation, tuple, &mut bindings);
    }
    dfs.out
}

/// What `join_from` must return for a tuple of relation `rel`.
fn reference_join_from(db: &Database, t: &QueryTemplate, rel: usize, tuple: &Tuple) -> Vec<Tuple> {
    let mut dfs = Dfs::new(db, t, &[], rel);
    if dfs.local_predicates_hold(rel, tuple) {
        let mut bindings = vec![None; t.relations().len()];
        bindings[rel] = Some(tuple.clone());
        dfs.descend(0, &mut bindings);
    }
    dfs.out.rows
}

/// `execute` ≡ reference (rows in order, stats) ≡ scan (as a multiset).
fn check(db: &Database, q: &QueryInstance) -> Result<Reference, TestCaseError> {
    let want = reference(db, q);
    let (rows, stats) = execute(db, q).unwrap();
    prop_assert_eq!(&rows, &want.rows, "rows, in order");
    prop_assert_eq!(stats, want.stats);
    let (mut sorted, mut scanned) = (rows, execute_scan(db, q).unwrap());
    sorted.sort();
    scanned.sort();
    prop_assert_eq!(sorted, scanned, "multiset against the scan oracle");
    Ok(want)
}

// ---------------------------------------------------------------------
// Databases and templates.
// ---------------------------------------------------------------------

fn int_schema(name: &str, cols: &[&str]) -> Schema {
    let cols = cols.iter().map(|c| Column::new(*c, ColumnType::Int));
    Schema::new(name, cols.collect())
}

fn ints(vals: &[i64]) -> Tuple {
    Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>())
}

/// r(a, c, f), s(d, e, g), u(h, k).
fn database(r: &[[i64; 3]], s: &[[i64; 3]], u: &[[i64; 2]]) -> Database {
    let mut db = Database::new();
    db.create_relation(int_schema("r", &["a", "c", "f"]))
        .unwrap();
    db.create_relation(int_schema("s", &["d", "e", "g"]))
        .unwrap();
    db.create_relation(int_schema("u", &["h", "k"])).unwrap();
    db.load("r", r.iter().map(|row| ints(row))).unwrap();
    db.load("s", s.iter().map(|row| ints(row))).unwrap();
    db.load("u", u.iter().map(|row| ints(row))).unwrap();
    db
}

/// 0 = no index, 1 = B-tree, 2 = hash.
fn index(db: &mut Database, rel: &str, col: usize, kind: u8) {
    let shape = match kind {
        0 => return,
        1 => IndexShape::BTree,
        _ => IndexShape::Hash,
    };
    db.create_index(IndexDef {
        relation: rel.into(),
        columns: vec![col],
        shape,
    })
    .unwrap();
}

#[derive(Clone, Copy, Debug)]
struct Shape {
    /// Join `u` in as a third relation.
    three: bool,
    /// Add a join edge the spanning order does not need: `r.a = s.g`, or
    /// with three relations the cycle-closing `r.a = u.k`.
    redundant: bool,
    /// `s.e = 2` in `Cjoin`.
    fixed: bool,
    /// Interval (not equality) condition on `r.f`.
    interval: bool,
    /// A second condition, on `s.g`.
    second: bool,
}

fn template(db: &Database, sh: Shape) -> Arc<QueryTemplate> {
    let mut b = TemplateBuilder::new("t")
        .relation(db.schema("r").unwrap())
        .relation(db.schema("s").unwrap());
    b = b.join("r", "c", "s", "d").unwrap();
    if sh.three {
        b = b.relation(db.schema("u").unwrap());
        b = b.join("s", "e", "u", "h").unwrap();
    }
    if sh.redundant {
        let (rel, col) = if sh.three { ("u", "k") } else { ("s", "g") };
        b = b.join("r", "a", rel, col).unwrap();
    }
    if sh.fixed {
        b = b.fixed("s", "e", 2i64).unwrap();
    }
    b = b.select_star();
    b = if sh.interval {
        b.cond_interval("r", "f").unwrap()
    } else {
        b.cond_eq("r", "f").unwrap()
    };
    if sh.second {
        b = b.cond_eq("s", "g").unwrap();
    }
    b.build().unwrap()
}

fn bind(t: &Arc<QueryTemplate>, sh: Shape, first: Condition, gs: &[i64]) -> QueryInstance {
    let mut conds = vec![first];
    if sh.second {
        conds.push(Condition::Equality(
            gs.iter().map(|&g| Value::Int(g)).collect(),
        ));
    }
    t.bind(conds).unwrap()
}

fn shape() -> impl Strategy<Value = Shape> {
    proptest::collection::vec(any::<bool>(), 5).prop_map(|b| Shape {
        three: b[0],
        redundant: b[1],
        fixed: b[2],
        interval: b[3],
        second: b[4],
    })
}

fn rows3(max: usize) -> impl Strategy<Value = Vec<[i64; 3]>> {
    proptest::collection::vec((0i64..5, 0i64..5, 0i64..5), 0..max)
        .prop_map(|v| v.into_iter().map(|(a, b, c)| [a, b, c]).collect())
}

fn rows2(max: usize) -> impl Strategy<Value = Vec<[i64; 2]>> {
    proptest::collection::vec((0i64..5, 0i64..5), 0..max)
        .prop_map(|v| v.into_iter().map(|(a, b)| [a, b]).collect())
}

fn eq_values() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::btree_set(0i64..6, 1..4).prop_map(|s| s.into_iter().collect())
}

fn intervals() -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::btree_set(-1i64..7, 2..6).prop_map(|cuts| {
        let cuts: Vec<i64> = cuts.into_iter().collect();
        let pairs = cuts.chunks_exact(2);
        pairs.map(|c| Interval::half_open(c[0], c[1])).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn level_loop_equals_depth_first_reference(
        r in rows3(90),
        s in rows3(60),
        u in rows2(30),
        sh in shape(),
        kinds in proptest::collection::vec(0u8..3, 4),
        churn in proptest::collection::vec((0u32..90, 0i64..5), 0..12),
        fs in eq_values(),
        ivs in intervals(),
        gs in eq_values(),
        cap in 0u64..40,
        nth in 0u64..60,
    ) {
        let _serial = serial();
        let mut db = database(&r, &s, &u);
        index(&mut db, "r", 2, kinds[0]); // r.f, the drive
        index(&mut db, "s", 0, kinds[1]); // s.d
        index(&mut db, "u", 0, kinds[2]); // u.h
        index(&mut db, "s", 2, kinds[3]); // s.g, the second condition
        // Deletes swap postings around and free slots that the inserts
        // then reuse: posting order stops being heap order.
        for &(row, c) in &churn {
            if db.delete("r", RowId(row)).is_ok() {
                db.insert("r", ints(&[c, c, 1])).unwrap();
                db.insert("r", ints(&[1, c, c])).unwrap();
            }
        }
        let t = template(&db, sh);
        let first = if sh.interval {
            Condition::Intervals(ivs)
        } else {
            Condition::Equality(fs.into_iter().map(Value::Int).collect())
        };
        let q = bind(&t, sh, first, &gs);
        let want = check(&db, &q)?;
        let examined = want.stats.tuples_examined as u64;

        // Tuple cap: an error exactly when the reference examines more.
        for k in [cap, examined.saturating_sub(1), examined, examined + 1] {
            let budget = ExecBudget { max_tuples: Some(k), ..ExecBudget::UNLIMITED };
            match execute_bounded(&db, &q, budget) {
                Ok((rows, stats)) => {
                    prop_assert!(examined <= k, "cap {} let {} through", k, examined);
                    prop_assert_eq!((&rows, stats), (&want.rows, want.stats));
                }
                Err(QueryError::Budget(BudgetExceeded::Tuples)) => prop_assert!(examined > k),
                Err(other) => prop_assert!(false, "cap {}: {}", k, other),
            }
        }
        // A deadline already past is noticed at the first stride check.
        let past = ExecBudget { deadline: Some(Instant::now() - Duration::from_secs(1)), ..ExecBudget::UNLIMITED };
        match execute_bounded(&db, &q, past) {
            Ok((rows, _)) => {
                prop_assert!(examined < 16, "{} examined under an expired deadline", examined);
                prop_assert_eq!(&rows, &want.rows);
            }
            Err(QueryError::Budget(BudgetExceeded::Deadline)) => prop_assert!(examined >= 16),
            Err(other) => prop_assert!(false, "deadline: {}", other),
        }
        // A fault at the `nth` examined row aborts the whole query (an
        // `Err` carries no rows); one placed past the last row is never
        // reached.
        let plan = FaultPlan::new(1).with_rule_at(Site::ExecRow, FaultKind::Error, nth);
        let guard = pmv_faultinject::install(Arc::new(plan));
        let got = execute(&db, &q);
        drop(guard);
        match got {
            Ok((rows, stats)) => {
                prop_assert!(nth >= examined);
                prop_assert_eq!((&rows, stats), (&want.rows, want.stats));
            }
            Err(QueryError::Fault(site)) => {
                prop_assert!(nth < examined);
                prop_assert_eq!(site, Site::ExecRow.as_str());
            }
            Err(other) => prop_assert!(false, "fault: {}", other),
        }
    }

    #[test]
    fn join_from_equals_depth_first_reference(
        r in rows3(60),
        s in rows3(60),
        u in rows2(30),
        sh in shape(),
        kinds in proptest::collection::vec(0u8..3, 4),
        delta in (0i64..5, 0i64..5, 0i64..5),
    ) {
        let _serial = serial();
        let mut db = database(&r, &s, &u);
        index(&mut db, "r", 1, kinds[0]); // r.c: probed when ΔS drives
        index(&mut db, "s", 0, kinds[1]); // s.d
        index(&mut db, "u", 0, kinds[2]); // u.h
        index(&mut db, "s", 1, kinds[3]); // s.e: probed when ΔU drives
        let t = template(&db, sh);
        let rels = if sh.three { 3 } else { 2 };
        for rel in 0..rels {
            // The pre-bound tuple need not be in the heap: §3.4 joins a
            // tuple that was just deleted. With `sh.fixed` the `s` tuple
            // passes `s.e = 2` only sometimes.
            let tuple = match rel {
                2 => ints(&[delta.0, delta.1]),
                _ => ints(&[delta.0, delta.1, delta.2]),
            };
            let got = join_from(&db, &t, rel, &tuple).unwrap();
            prop_assert_eq!(got, reference_join_from(&db, &t, rel, &tuple), "rel {}", rel);
        }
    }
}

// ---------------------------------------------------------------------
// Batch edges, pinned.
// ---------------------------------------------------------------------

const PLAIN: Shape = Shape {
    three: true,
    redundant: false,
    fixed: false,
    interval: false,
    second: false,
};

/// `n` driving rows with `f = 1` (and a few that do not qualify), each
/// joining two `s` rows, each of those one `u` row.
fn fanout_db(n: usize) -> Database {
    let r: Vec<[i64; 3]> = (0..n as i64 + 3)
        .map(|i| [i, i % 7, (i < n as i64) as i64])
        .collect();
    let s: Vec<[i64; 3]> = (0..14).map(|i| [i % 7, i % 3, i]).collect();
    let u: Vec<[i64; 2]> = (0..3).map(|i| [i, 10 * i]).collect();
    let mut db = database(&r, &s, &u);
    index(&mut db, "r", 2, 1);
    index(&mut db, "s", 0, 1);
    index(&mut db, "u", 0, 2);
    db
}

#[test]
fn drive_batch_edges_keep_depth_first_order() {
    let _serial = serial();
    for n in [
        0,
        1,
        DRIVE_BATCH - 1,
        DRIVE_BATCH,
        DRIVE_BATCH + 1,
        2 * DRIVE_BATCH + 1,
    ] {
        let db = fanout_db(n);
        let t = template(&db, PLAIN);
        let q = bind(&t, PLAIN, Condition::Equality(vec![Value::Int(1)]), &[]);
        let want = check(&db, &q).unwrap();
        assert_eq!(want.rows.len(), 2 * n, "{n} driving candidates");
        assert_eq!(want.stats.index_probes, 1 + n + 2 * n);
    }
}

#[test]
fn posting_list_longer_than_the_level_chunk() {
    let _serial = serial();
    // One driving row whose key owns LEVEL_CHUNK + 44 rows of `s`, between
    // two ordinary ones: the long list is cut across chunks, and the
    // neighbours' rows still come out before and after all of it.
    let long = LEVEL_CHUNK + 44;
    let r = [[0, 1, 1], [1, 2, 1], [2, 3, 1]];
    let mut s = vec![[1, 0, 0], [3, 1, 1]];
    s.extend((0..long as i64).map(|i| [2, i % 3, 100 + i]));
    let u: Vec<[i64; 2]> = (0..3).map(|i| [i, i]).collect();
    for s_d in [1, 2, 0] {
        let mut db = database(&r, &s, &u);
        index(&mut db, "r", 2, 1);
        index(&mut db, "s", 0, s_d);
        index(&mut db, "u", 0, 1);
        let t = template(&db, PLAIN);
        let q = bind(&t, PLAIN, Condition::Equality(vec![Value::Int(1)]), &[]);
        let want = check(&db, &q).unwrap();
        assert_eq!(want.rows.len(), long + 2);
        assert_eq!(want.rows[0].get(0), &Value::Int(0));
        assert_eq!(want.rows[long + 1].get(0), &Value::Int(2));
    }
}

#[test]
fn soft_sites_fire_once_per_probe_and_once_per_row_fetched() {
    let _serial = serial();
    let db = fanout_db(DRIVE_BATCH + 9);
    let t = template(&db, PLAIN);
    let q = bind(&t, PLAIN, Condition::Equality(vec![Value::Int(1)]), &[]);
    let want = pmv_faultinject::suppress(|| reference(&db, &q));
    // Rate-0 rules: nothing is injected, invocations are counted.
    let plan = Arc::new(
        FaultPlan::new(0)
            .with_rule(Site::IndexProbe, FaultKind::Error, 0.0)
            .with_rule(Site::StorageRead, FaultKind::Error, 0.0)
            .with_rule(Site::ExecRow, FaultKind::Error, 0.0),
    );
    let guard = pmv_faultinject::install(Arc::clone(&plan));
    let (rows, stats) = execute(&db, &q).unwrap();
    drop(guard);
    assert_eq!((&rows, stats), (&want.rows, want.stats));
    assert_eq!(
        plan.invocations(Site::IndexProbe),
        stats.index_probes as u64
    );
    assert_eq!(plan.invocations(Site::StorageRead), want.fetched);
    assert_eq!(
        plan.invocations(Site::ExecRow),
        stats.tuples_examined as u64
    );
}

#[test]
fn expired_deadline_stops_a_long_query() {
    let _serial = serial();
    let db = fanout_db(3 * DRIVE_BATCH);
    let t = template(&db, PLAIN);
    let q = bind(&t, PLAIN, Condition::Equality(vec![Value::Int(1)]), &[]);
    let past = ExecBudget {
        deadline: Some(Instant::now() - Duration::from_secs(1)),
        ..ExecBudget::UNLIMITED
    };
    let err = execute_bounded(&db, &q, past).unwrap_err();
    assert!(matches!(err, QueryError::Budget(BudgetExceeded::Deadline)));
}
