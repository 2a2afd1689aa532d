//! The paper's Section 4.2 query templates.
//!
//! ```text
//! T1: select * from orders o, lineitem l
//!     where o.orderkey = l.orderkey
//!       and (o.orderdate = d1 or … or o.orderdate = de)
//!       and (l.suppkey = s1 or … or l.suppkey = sf);
//!
//! T2: select * from orders o, lineitem l, customer c
//!     where o.orderkey = l.orderkey and o.custkey = c.custkey
//!       and (o.orderdate = d1 or …) and (l.suppkey = s1 or …)
//!       and (c.nationkey = n1 or …);
//! ```
//!
//! T1's basic condition parts are `(d_i, s_j)` pairs (combination factor
//! `h = e × f`); T2's are `(d_i, s_j, n_k)` triples (`h = e × f × g`).

use std::collections::HashSet;
use std::sync::Arc;

use pmv_query::{Condition, Database, QueryInstance, QueryTemplate, Result, TemplateBuilder};
use pmv_storage::Value;
use rand::Rng;

/// Build template T1 over a database holding the TPC-R relations.
pub fn template_t1(db: &Database) -> Result<Arc<QueryTemplate>> {
    TemplateBuilder::new("T1")
        .relation(db.schema("orders")?)
        .relation(db.schema("lineitem")?)
        .join("orders", "orderkey", "lineitem", "orderkey")?
        .select_star()
        .cond_eq("orders", "orderdate")?
        .cond_eq("lineitem", "suppkey")?
        .build()
}

/// Build template T2 over a database holding the TPC-R relations.
pub fn template_t2(db: &Database) -> Result<Arc<QueryTemplate>> {
    TemplateBuilder::new("T2")
        .relation(db.schema("orders")?)
        .relation(db.schema("lineitem")?)
        .relation(db.schema("customer")?)
        .join("orders", "orderkey", "lineitem", "orderkey")?
        .join("orders", "custkey", "customer", "custkey")?
        .select_star()
        .cond_eq("orders", "orderdate")?
        .cond_eq("lineitem", "suppkey")?
        .cond_eq("customer", "nationkey")?
        .build()
}

fn eq_cond(values: &[i64]) -> Condition {
    Condition::Equality(values.iter().map(|&v| Value::Int(v)).collect())
}

/// Bind a T1 instance: `e = dates.len()`, `f = supps.len()`, `h = e·f`.
pub fn t1_query(t: &Arc<QueryTemplate>, dates: &[i64], supps: &[i64]) -> Result<QueryInstance> {
    t.bind(vec![eq_cond(dates), eq_cond(supps)])
}

/// Bind a T2 instance: `h = e·f·g`.
pub fn t2_query(
    t: &Arc<QueryTemplate>,
    dates: &[i64],
    supps: &[i64],
    nations: &[i64],
) -> Result<QueryInstance> {
    t.bind(vec![eq_cond(dates), eq_cond(supps), eq_cond(nations)])
}

/// Draw `count` distinct values from `0..domain`, always including
/// `must_include`. Used to build the Section 4.2 queries where "one of
/// these h basic condition parts exists in the PMV": put the hot value in
/// each dimension so exactly the hot combination is PMV-resident.
pub fn values_including<R: Rng + ?Sized>(
    rng: &mut R,
    domain: i64,
    count: usize,
    must_include: i64,
) -> Vec<i64> {
    assert!(
        (count as i64) <= domain,
        "cannot draw {count} distinct values from a domain of {domain}"
    );
    let mut out = Vec::with_capacity(count);
    let mut seen: HashSet<i64> = HashSet::with_capacity(count);
    out.push(must_include);
    seen.insert(must_include);
    while out.len() < count {
        let v = rng.gen_range(0..domain);
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcr::{generate, standard_indexes, TpcrConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_db() -> Database {
        let mut db = Database::new();
        generate(
            &mut db,
            &TpcrConfig {
                scale: 0.001,
                ..Default::default()
            },
        )
        .unwrap();
        standard_indexes(&mut db).unwrap();
        db
    }

    #[test]
    fn t1_shape() {
        let db = tiny_db();
        let t = template_t1(&db).unwrap();
        assert_eq!(
            t.relations(),
            &["orders".to_string(), "lineitem".to_string()]
        );
        assert_eq!(t.cond_count(), 2);
        // select * keeps every column; conditions are already in Ls.
        assert_eq!(t.select_list().len(), 10);
        assert_eq!(t.expanded_list().len(), 10);
    }

    #[test]
    fn t2_shape() {
        let db = tiny_db();
        let t = template_t2(&db).unwrap();
        assert_eq!(t.relations().len(), 3);
        assert_eq!(t.cond_count(), 3);
    }

    #[test]
    fn t1_query_returns_joined_rows() {
        let db = tiny_db();
        let t = template_t1(&db).unwrap();
        // Pick a (date, supp) pair that actually exists.
        let (_, order) = db.relation("orders").unwrap().iter().next().unwrap();
        let okey = order.get(0).as_int().unwrap();
        let date = order.get(2).as_int().unwrap();
        let (_, line) = db
            .relation("lineitem")
            .unwrap()
            .iter()
            .find(|(_, t)| t.get(0).as_int() == Some(okey))
            .unwrap();
        let supp = line.get(1).as_int().unwrap();
        let q = t1_query(&t, &[date], &[supp]).unwrap();
        let (rows, stats) = pmv_query::execute(&db, &q).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(stats.fallback_scans, 0, "must run fully indexed");
        assert_eq!(q.combination_factor(), 1);
    }

    #[test]
    fn t2_query_combination_factor() {
        let db = tiny_db();
        let t = template_t2(&db).unwrap();
        let q = t2_query(&t, &[1, 2], &[3, 4], &[5]).unwrap();
        assert_eq!(q.combination_factor(), 4);
        // Executes without error (may be empty on tiny data).
        let (_, stats) = pmv_query::execute(&db, &q).unwrap();
        assert_eq!(stats.fallback_scans, 0);
    }

    #[test]
    fn values_including_invariants() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let v = values_including(&mut rng, 100, 5, 42);
            assert_eq!(v.len(), 5);
            assert!(v.contains(&42));
            let set: HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), 5, "values must be distinct");
            assert!(v.iter().all(|&x| (0..100).contains(&x)));
        }
    }

    #[test]
    fn values_including_full_domain() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v = values_including(&mut rng, 5, 5, 2);
        v.sort();
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }
}
