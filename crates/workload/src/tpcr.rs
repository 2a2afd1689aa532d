//! TPC-R-style data generator (the paper's Section 4.2 test data set,
//! Table 1).
//!
//! Cardinalities per scale factor `s` follow the paper exactly:
//! `customer 0.15·s M`, `orders 1.5·s M`, `lineitem 6·s M`; on average
//! each customer matches 10 orders on `custkey` and each order matches 4
//! lineitems on `orderkey`. Selection attributes are low-selectivity, as
//! the paper needs: `orderdate` ranges over 2,406 days, `suppkey` over
//! `10,000·s` suppliers, `nationkey` over 25 nations.
//!
//! With `pad: true` each relation carries a filler string sized so the
//! in-memory tuple width is exactly twice Table 1's (customer : orders :
//! lineitem = 153 : 76 : 126 bytes, so 306 / 152 / 252 B). The filler is
//! what is left of that target after the tuple header and one `Value`
//! per field (`size_of::<Tuple>() + arity × size_of::<Value>()`), so the
//! widths follow the value layout instead of assuming it. Twice rather
//! than once because the fixed fields alone (80–96 B) already exceed
//! orders' 76 B. Table 1's tuple *counts* are matched exactly and the MB
//! column lands at twice the paper's numbers with the same shape.

use pmv_index::IndexDef;
use pmv_query::{Database, Result};
use pmv_storage::{Column, ColumnType, HeapSize, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct `orderdate` values (TPC date range 1992-01-01..1998-08-02).
pub const NUM_DATES: i64 = 2_406;
/// Distinct `nationkey` values.
pub const NUM_NATIONS: i64 = 25;
/// Suppliers per unit scale factor.
pub const SUPPLIERS_PER_SF: i64 = 10_000;

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct TpcrConfig {
    /// Scale factor `s` (the paper sweeps 0.5–2; the tests and the repo
    /// benchmark run at 0.001–0.02 so they stay fast).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Add filler strings so tuple widths match Table 1.
    pub pad: bool,
    /// When `Some(p)`, each lineitem's `suppkey` is drawn from a pool of
    /// `p` suppliers determined by its order's `orderdate` instead of
    /// uniformly. This correlates dates with suppliers so that realistic
    /// hot `(orderdate, suppkey)` bcps hold many result tuples — the
    /// Section 4.2 experiments assume "for each basic condition part,
    /// the number of query result tuples that belong to it is greater
    /// than F".
    pub date_supplier_pool: Option<usize>,
}

impl Default for TpcrConfig {
    fn default() -> Self {
        TpcrConfig {
            scale: 0.01,
            seed: 0xc0ffee,
            pad: false,
            date_supplier_pool: None,
        }
    }
}

/// Cardinalities and measured sizes after generation.
#[derive(Clone, Copy, Debug, Default)]
pub struct TpcrStats {
    /// Customer tuples generated.
    pub customers: usize,
    /// Orders tuples generated.
    pub orders: usize,
    /// Lineitem tuples generated.
    pub lineitems: usize,
    /// Total customer bytes.
    pub customer_bytes: usize,
    /// Total orders bytes.
    pub orders_bytes: usize,
    /// Total lineitem bytes.
    pub lineitem_bytes: usize,
}

/// Expected tuple counts for scale `s` (Table 1's formulas).
pub fn expected_counts(scale: f64) -> (usize, usize, usize) {
    (
        (150_000.0 * scale).round() as usize,
        (1_500_000.0 * scale).round() as usize,
        (6_000_000.0 * scale).round() as usize,
    )
}

/// The customer schema.
pub fn customer_schema() -> Schema {
    Schema::new(
        "customer",
        vec![
            Column::new("custkey", ColumnType::Int),
            Column::new("nationkey", ColumnType::Int),
            Column::new("acctbal", ColumnType::Int),
            Column::new("filler", ColumnType::Str),
        ],
    )
}

/// The orders schema.
pub fn orders_schema() -> Schema {
    Schema::new(
        "orders",
        vec![
            Column::new("orderkey", ColumnType::Int),
            Column::new("custkey", ColumnType::Int),
            Column::new("orderdate", ColumnType::Int),
            Column::new("totalprice", ColumnType::Int),
            Column::new("filler", ColumnType::Str),
        ],
    )
}

/// The lineitem schema.
pub fn lineitem_schema() -> Schema {
    Schema::new(
        "lineitem",
        vec![
            Column::new("orderkey", ColumnType::Int),
            Column::new("suppkey", ColumnType::Int),
            Column::new("quantity", ColumnType::Int),
            Column::new("extendedprice", ColumnType::Int),
            Column::new("filler", ColumnType::Str),
        ],
    )
}

// Twice Table 1's average tuple width per relation, in bytes.
const CUSTOMER_WIDTH: usize = 2 * 153;
const ORDERS_WIDTH: usize = 2 * 76;
const LINEITEM_WIDTH: usize = 2 * 126;

/// The filler that brings a tuple of `arity` fields (filler included) to
/// `width` in-memory bytes; empty without `pad`. A filler longer than
/// `Str`'s inline capacity is charged its length on the heap.
fn filler(pad: bool, width: usize, arity: usize) -> Value {
    if pad {
        let fixed = std::mem::size_of::<Tuple>() + arity * std::mem::size_of::<Value>();
        Value::str("x".repeat(width - fixed))
    } else {
        Value::str("")
    }
}

/// Create the three relations in `db` and fill them.
pub fn generate(db: &mut Database, cfg: &TpcrConfig) -> Result<TpcrStats> {
    let (n_cust, n_ord, n_line) = expected_counts(cfg.scale);
    let n_supp = ((SUPPLIERS_PER_SF as f64) * cfg.scale).round().max(1.0) as i64;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    db.create_relation(customer_schema())?;
    db.create_relation(orders_schema())?;
    db.create_relation(lineitem_schema())?;

    let mut stats = TpcrStats::default();

    // Customers: custkey 1..=n_cust.
    let mut batch: Vec<Tuple> = Vec::with_capacity(n_cust);
    for ck in 1..=n_cust as i64 {
        let t = Tuple::new(vec![
            Value::Int(ck),
            Value::Int(rng.gen_range(0..NUM_NATIONS)),
            Value::Int(rng.gen_range(-99_999..1_000_000)),
            filler(cfg.pad, CUSTOMER_WIDTH, 4),
        ]);
        stats.customer_bytes += std::mem::size_of::<Tuple>() + t.heap_size();
        batch.push(t);
    }
    stats.customers = db.load("customer", batch)?;

    // Orders: orderkey 1..=n_ord, custkey uniform (≈ 10 orders/customer).
    let mut batch: Vec<Tuple> = Vec::with_capacity(n_ord);
    let mut dates: Vec<i64> = Vec::with_capacity(n_ord);
    for ok in 1..=n_ord as i64 {
        let date = rng.gen_range(0..NUM_DATES);
        dates.push(date);
        let t = Tuple::new(vec![
            Value::Int(ok),
            Value::Int(rng.gen_range(1..=n_cust.max(1) as i64)),
            Value::Int(date),
            Value::Int(rng.gen_range(1_000..500_000)),
            filler(cfg.pad, ORDERS_WIDTH, 5),
        ]);
        stats.orders_bytes += std::mem::size_of::<Tuple>() + t.heap_size();
        batch.push(t);
    }
    stats.orders = db.load("orders", batch)?;

    // Lineitems: exactly 4 per order (the paper's average fan-out).
    let mut batch: Vec<Tuple> = Vec::with_capacity(n_line);
    'outer: for ok in 1..=n_ord as i64 {
        for _ in 0..4 {
            if batch.len() == n_line {
                break 'outer;
            }
            let supp = match cfg.date_supplier_pool {
                None => rng.gen_range(1..=n_supp),
                Some(p) => {
                    // Pool member j of the order's date.
                    let date = dates[(ok - 1) as usize];
                    let j = rng.gen_range(0..p as i64);
                    (date * 31 + j).rem_euclid(n_supp) + 1
                }
            };
            let t = Tuple::new(vec![
                Value::Int(ok),
                Value::Int(supp),
                Value::Int(rng.gen_range(1..=50)),
                Value::Int(rng.gen_range(100..100_000)),
                filler(cfg.pad, LINEITEM_WIDTH, 5),
            ]);
            stats.lineitem_bytes += std::mem::size_of::<Tuple>() + t.heap_size();
            batch.push(t);
        }
    }
    stats.lineitems = db.load("lineitem", batch)?;
    Ok(stats)
}

/// Build the paper's indexes: one on each selection/join attribute.
pub fn standard_indexes(db: &mut Database) -> Result<()> {
    // Join attributes.
    db.create_index(IndexDef::btree("customer", vec![0]))?; // custkey
    db.create_index(IndexDef::btree("orders", vec![0]))?; // orderkey
    db.create_index(IndexDef::btree("orders", vec![1]))?; // custkey
    db.create_index(IndexDef::btree("lineitem", vec![0]))?; // orderkey
                                                            // Selection attributes.
    db.create_index(IndexDef::btree("orders", vec![2]))?; // orderdate
    db.create_index(IndexDef::btree("lineitem", vec![1]))?; // suppkey
    db.create_index(IndexDef::btree("customer", vec![1]))?; // nationkey
    Ok(())
}

/// Number of suppliers for a scale factor (selectivity helper).
pub fn supplier_count(scale: f64) -> i64 {
    ((SUPPLIERS_PER_SF as f64) * scale).round().max(1.0) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_ratios_match_table1() {
        let (c, o, l) = expected_counts(1.0);
        assert_eq!(c, 150_000);
        assert_eq!(o, 1_500_000);
        assert_eq!(l, 6_000_000);
        assert_eq!(o / c, 10); // 10 orders per customer
        assert_eq!(l / o, 4); // 4 lineitems per order
    }

    #[test]
    fn generation_produces_expected_counts() {
        let mut db = Database::new();
        let stats = generate(
            &mut db,
            &TpcrConfig {
                scale: 0.002,
                ..Default::default()
            },
        )
        .unwrap();
        println!(
            "Table 1 at s = 0.002: customer {}, orders {}, lineitem {}",
            stats.customers, stats.orders, stats.lineitems
        );
        assert_eq!(stats.customers, 300);
        assert_eq!(stats.orders, 3_000);
        assert_eq!(stats.lineitems, 12_000);
        assert_eq!(db.len("customer").unwrap(), 300);
    }

    #[test]
    fn foreign_keys_are_valid() {
        let mut db = Database::new();
        generate(
            &mut db,
            &TpcrConfig {
                scale: 0.001,
                ..Default::default()
            },
        )
        .unwrap();
        let n_cust = db.len("customer").unwrap() as i64;
        let n_ord = db.len("orders").unwrap() as i64;
        db.with_relation("orders", |r| {
            for (_, t) in r.iter() {
                let ck = t.get(1).as_int().unwrap();
                assert!(ck >= 1 && ck <= n_cust);
            }
        })
        .unwrap();
        db.with_relation("lineitem", |r| {
            for (_, t) in r.iter() {
                let ok = t.get(0).as_int().unwrap();
                assert!(ok >= 1 && ok <= n_ord);
            }
        })
        .unwrap();
    }

    #[test]
    fn padding_approximates_table1_widths() {
        let mut db = Database::new();
        let stats = generate(
            &mut db,
            &TpcrConfig {
                scale: 0.001,
                pad: true,
                ..Default::default()
            },
        )
        .unwrap();
        let cust_avg = stats.customer_bytes / stats.customers;
        let ord_avg = stats.orders_bytes / stats.orders;
        let line_avg = stats.lineitem_bytes / stats.lineitems;
        println!("Table 1 widths, padded: customer {cust_avg} B, orders {ord_avg} B, lineitem {line_avg} B");
        // Table 1 implies ≈153 / 76 / 126 bytes per tuple; our in-memory
        // representation doubles that but must preserve the ratios.
        assert!((280..=340).contains(&cust_avg), "customer {cust_avg}");
        assert!((130..=180).contains(&ord_avg), "orders {ord_avg}");
        assert!((230..=280).contains(&line_avg), "lineitem {line_avg}");
        let r1 = cust_avg as f64 / ord_avg as f64; // paper: 153/76 ≈ 2.0
        let r2 = line_avg as f64 / ord_avg as f64; // paper: 126/76 ≈ 1.66
        assert!((1.6..=2.4).contains(&r1), "cust/ord ratio {r1}");
        assert!((1.3..=2.0).contains(&r2), "line/ord ratio {r2}");
    }

    #[test]
    fn indexes_build_on_generated_data() {
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
        assert!(db.index_on("orders", &[2]).is_some());
        assert!(db.index_on("lineitem", &[1]).is_some());
        use pmv_index::SecondaryIndex;
        assert_eq!(
            db.index_on("orders", &[0]).unwrap().entry_count(),
            db.len("orders").unwrap()
        );
    }

    #[test]
    fn deterministic_generation() {
        let gen = |seed| {
            let mut db = Database::new();
            generate(
                &mut db,
                &TpcrConfig {
                    scale: 0.001,
                    seed,
                    pad: false,
                    date_supplier_pool: None,
                },
            )
            .unwrap();
            let mut dates = Vec::new();
            db.with_relation("orders", |r| {
                for (_, t) in r.iter().take(10) {
                    dates.push(t.get(2).clone());
                }
            })
            .unwrap();
            dates
        };
        assert_eq!(gen(1), gen(1));
        assert_ne!(gen(1), gen(2));
    }
}
