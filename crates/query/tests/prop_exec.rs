//! Property test: the index-nested-loop executor agrees with the naive
//! full-scan oracle on arbitrary small databases and arbitrary queries
//! from the Section 2.1 template class (equality and interval forms,
//! one- and two-relation templates, with and without indexes).

use pmv_index::IndexDef;
use pmv_query::{execute, execute_scan, Condition, Database, Interval, TemplateBuilder};
use pmv_storage::{Column, ColumnType, Schema, Tuple, Value};
use proptest::prelude::*;

fn small_db(r_rows: &[(i64, i64, i64)], s_rows: &[(i64, i64)], with_indexes: bool) -> Database {
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "r",
        vec![
            Column::new("a", ColumnType::Int),
            Column::new("c", ColumnType::Int),
            Column::new("f", ColumnType::Int),
        ],
    ))
    .unwrap();
    db.create_relation(Schema::new(
        "s",
        vec![
            Column::new("d", ColumnType::Int),
            Column::new("g", ColumnType::Int),
        ],
    ))
    .unwrap();
    for &(a, c, f) in r_rows {
        db.insert(
            "r",
            Tuple::new(vec![Value::Int(a), Value::Int(c), Value::Int(f)]),
        )
        .unwrap();
    }
    for &(d, g) in s_rows {
        db.insert("s", Tuple::new(vec![Value::Int(d), Value::Int(g)]))
            .unwrap();
    }
    if with_indexes {
        db.create_index(IndexDef::btree("r", vec![2])).unwrap();
        db.create_index(IndexDef::btree("s", vec![0])).unwrap();
        db.create_index(IndexDef::hash("s", vec![1])).unwrap();
    }
    db
}

fn rows_r() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    proptest::collection::vec((0i64..6, 0i64..5, 0i64..6), 0..25)
}

fn rows_s() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..5, 0i64..6), 0..25)
}

fn eq_values() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::btree_set(0i64..6, 1..4).prop_map(|s| s.into_iter().collect())
}

fn disjoint_intervals() -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::btree_set(-1i64..8, 2..6).prop_map(|cuts| {
        let cuts: Vec<i64> = cuts.into_iter().collect();
        cuts.chunks(2)
            .filter(|c| c.len() == 2 && c[0] < c[1])
            .map(|c| Interval::half_open(c[0], c[1]))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn join_template_matches_oracle(
        r in rows_r(),
        s in rows_s(),
        fs in eq_values(),
        gs in eq_values(),
        with_indexes in any::<bool>(),
    ) {
        let db = small_db(&r, &s, with_indexes);
        let t = TemplateBuilder::new("p")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
            .join("r", "c", "s", "d").unwrap()
            .select("r", "a").unwrap()
            .cond_eq("r", "f").unwrap()
            .cond_eq("s", "g").unwrap()
            .build().unwrap();
        let q = t.bind(vec![
            Condition::Equality(fs.into_iter().map(Value::Int).collect()),
            Condition::Equality(gs.into_iter().map(Value::Int).collect()),
        ]).unwrap();
        let (mut fast, stats) = execute(&db, &q).unwrap();
        let mut slow = execute_scan(&db, &q).unwrap();
        fast.sort();
        slow.sort();
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(stats.results, fast.len());
        if with_indexes {
            prop_assert_eq!(stats.fallback_scans, 0, "indexes must be used");
        }
    }

    #[test]
    fn interval_template_matches_oracle(
        r in rows_r(),
        ivs in disjoint_intervals(),
        with_indexes in any::<bool>(),
    ) {
        prop_assume!(!ivs.is_empty());
        let db = small_db(&r, &[], with_indexes);
        let t = TemplateBuilder::new("iv")
            .relation(db.schema("r").unwrap())
            .select("r", "a").unwrap()
            .select("r", "c").unwrap()
            .cond_interval("r", "f").unwrap()
            .build().unwrap();
        let q = t.bind(vec![Condition::Intervals(ivs)]).unwrap();
        let (mut fast, _) = execute(&db, &q).unwrap();
        let mut slow = execute_scan(&db, &q).unwrap();
        fast.sort();
        slow.sort();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn fixed_predicates_match_oracle(
        r in rows_r(),
        s in rows_s(),
        fixed_g in 0i64..6,
        fs in eq_values(),
    ) {
        let db = small_db(&r, &s, true);
        let t = TemplateBuilder::new("fx")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
            .join("r", "c", "s", "d").unwrap()
            .fixed("s", "g", fixed_g).unwrap()
            .select("r", "a").unwrap()
            .cond_eq("r", "f").unwrap()
            .build().unwrap();
        let q = t.bind(vec![
            Condition::Equality(fs.into_iter().map(Value::Int).collect()),
        ]).unwrap();
        let (mut fast, _) = execute(&db, &q).unwrap();
        let mut slow = execute_scan(&db, &q).unwrap();
        fast.sort();
        slow.sort();
        prop_assert_eq!(fast, slow);
    }

    /// `join_from` (the maintenance ΔR join) agrees with recomputing the
    /// full join before/after deletion.
    #[test]
    fn join_from_matches_full_join_difference(
        r in rows_r(),
        s in rows_s(),
        victim_idx in 0usize..25,
    ) {
        prop_assume!(!r.is_empty());
        let mut db = small_db(&r, &s, true);
        let t = TemplateBuilder::new("jf")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
            .join("r", "c", "s", "d").unwrap()
            .select("r", "a").unwrap()
            .select("s", "g").unwrap()
            .cond_eq("r", "f").unwrap()
            .build().unwrap();
        let (before, _) = pmv_query::exec::full_join(&db, &t).unwrap();

        // Delete one r row and ask join_from for its contribution.
        let victims: Vec<_> = {
            let guard = db.relation("r").unwrap();
            guard.iter().map(|(row, _)| row).collect()
        };
        let victim = victims[victim_idx % victims.len()];
        let deleted = match db.delete("r", victim).unwrap() {
            pmv_storage::Delta::Delete { tuple, .. } => tuple,
            _ => unreachable!(),
        };
        let (after, _) = pmv_query::exec::full_join(&db, &t).unwrap();
        let mut contributed = pmv_query::exec::join_from(&db, &t, 0, &deleted).unwrap();

        // before = after ⊎ contributed (multiset equality).
        let mut recombined = after.clone();
        recombined.append(&mut contributed);
        let mut before_sorted = before;
        before_sorted.sort();
        recombined.sort();
        prop_assert_eq!(before_sorted, recombined);
    }
}
