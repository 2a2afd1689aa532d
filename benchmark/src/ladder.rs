//! The cost ladder: isolated timings of each layer's public functions
//! on the workload's own data, taken after the measured trials of a
//! traced run. `ladder cost × count ÷ wall` is the explained share.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pmv_cache::{ClockPolicy, ReplacementPolicy};
use pmv_core::{decompose, BcpDim, BcpKey, DeltaKeyIndex, Ds, PmvConfig, PmvStore};
use pmv_index::{HashIndex, IndexDef, IndexKey, SecondaryIndex};
use pmv_query::{DataView, Transaction};
use pmv_storage::{Delta, Tuple, Value};
use pmv_sync::LeftRight;

use crate::fixture::{Fixture, ShadowRow, Spec, Universe, F};
use crate::ops::Ops;
use crate::stats::median;
use crate::trace::{Tracer, NO_PARENT};

/// Timed batches per rung; a rung's cost is their median.
const REPEATS: usize = 5;

/// Median over [`REPEATS`] batches of the mean cost of `body(i)`, in ns.
fn rung(tracer: &mut Tracer, name: &'static str, iters: usize, mut body: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        for i in 0..iters {
            body(i);
        }
        let t1 = Instant::now();
        tracer.push(name, t0, t1, NO_PARENT, iters as u32);
        samples.push((t1 - t0).as_nanos() as f64 / iters.max(1) as f64);
    }
    median(&samples)
}

fn bcp_key(date: i64, supp: i64) -> BcpKey {
    BcpKey::new(vec![
        BcpDim::Eq(Value::Int(date)),
        BcpDim::Eq(Value::Int(supp)),
    ])
}

/// Copy-on-write cost of the first write after a publish: one commit
/// updates the same row twice; the first update clones the heap and the
/// indexes the published snapshot still holds, the second does not. The
/// second update restores the row, so the database does not change.
fn cow_first_write_us(fx: &Fixture, shadow: &[ShadowRow], tracer: &mut Tracer) -> f64 {
    let mut diffs = Vec::new();
    for s in shadow.iter().step_by(shadow.len() / 7 + 1) {
        let (row, quantity) = (s.row, s.quantity);
        let t0 = Instant::now();
        let res = fx.edb.commit(&[], move |db| {
            let mut txn = Transaction::begin(db);
            let old = txn.get("lineitem", row)?;
            let mut values = old.values().to_vec();
            values[2] = Value::Int(quantity % 50 + 1);
            let a = Instant::now();
            txn.update("lineitem", row, Tuple::new(values))?;
            let b = Instant::now();
            txn.update("lineitem", row, old)?;
            let c = Instant::now();
            Ok(((b - a, c - b), txn.commit()))
        });
        tracer.push(
            "ladder.storage.cow_commit",
            t0,
            Instant::now(),
            NO_PARENT,
            2,
        );
        if let Ok((first, second)) = res {
            diffs.push((first.as_nanos() as f64 - second.as_nanos() as f64) / 1e3);
        }
    }
    if diffs.is_empty() {
        0.0
    } else {
        median(&diffs)
    }
}

/// Run every rung. Keys are per-layer metric names.
pub fn run(
    fx: &Fixture,
    spec: &Spec,
    universe: &Universe,
    ops: &Ops,
    shadow: &[ShadowRow],
    tracer: &mut Tracer,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    let snap = fx.edb.pin();
    let lineitem = snap
        .relation_version("lineitem")
        .map_err(|e| e.to_string())?;
    let n_rows = shadow.len();
    let n_combos = universe.combos.len();

    // ---- storage ----
    let rows: Vec<_> = ops
        .commits
        .iter()
        .map(|c| shadow[c.row as usize].row)
        .collect();
    out.insert(
        "storage.get_ns",
        rung(tracer, "ladder.storage.get", 20_000, |i| {
            black_box(lineitem.get(rows[i % rows.len()]));
        }),
    );
    out.insert(
        "storage.scan_ns_per_row",
        rung(tracer, "ladder.storage.scan", 1, |_| {
            black_box(
                lineitem
                    .iter()
                    .filter_map(|(_, t)| t.get(0).as_int())
                    .sum::<i64>(),
            );
        }) / n_rows.max(1) as f64,
    );
    out.insert(
        "storage.cow_first_write_us",
        cow_first_write_us(fx, shadow, tracer),
    );

    // ---- index ----
    let by_date = snap
        .index_arc("orders", &[2])
        .ok_or("no index on orders.orderdate")?;
    let date_keys: Vec<IndexKey> = universe
        .combos
        .iter()
        .take(1024)
        .map(|c| IndexKey::single(Value::Int(c.date)))
        .collect();
    out.insert(
        "index.btree_get_ns",
        rung(tracer, "ladder.index.btree_get", 20_000, |i| {
            black_box(by_date.get(&date_keys[i % date_keys.len()]));
        }),
    );
    let mut hash = HashIndex::with_capacity(n_rows);
    for s in shadow {
        hash.insert(IndexKey::single(Value::Int(s.orderkey)), s.row);
    }
    let order_keys: Vec<IndexKey> = rows
        .iter()
        .take(1024)
        .filter_map(|r| lineitem.get(*r))
        .map(|t| IndexKey::single(t.get(0).clone()))
        .collect();
    out.insert(
        "index.hash_get_ns",
        rung(tracer, "ladder.index.hash_get", 20_000, |i| {
            black_box(hash.get(&order_keys[i % order_keys.len()]));
        }),
    );
    let by_supp_def = IndexDef::btree("lineitem", vec![1]);
    let mut by_supp = (*snap
        .index_arc("lineitem", &[1])
        .ok_or("no index on lineitem.suppkey")?)
    .clone();
    let deltas: Vec<(Delta, Delta)> = rows
        .iter()
        .take(512)
        .filter_map(|r| lineitem.get(*r).map(|t| (*r, t.clone())))
        .map(|(row, tuple)| {
            (
                Delta::Delete {
                    row,
                    tuple: tuple.clone(),
                },
                Delta::Insert { row, tuple },
            )
        })
        .collect();
    out.insert(
        "index.apply_delta_ns",
        rung(tracer, "ladder.index.apply_delta", 4_000, |i| {
            let (del, ins) = &deltas[i % deltas.len()];
            by_supp_def.apply_delta(&mut by_supp, del);
            by_supp_def.apply_delta(&mut by_supp, ins);
        }) / 2.0,
    );

    // ---- query ----
    let sample: Vec<_> = ops.queries.iter().take(256).collect();
    let mut view_tuples: Vec<(BcpKey, Arc<Tuple>)> = Vec::new();
    for q in &sample {
        let (rows, _) = pmv_query::execute(&*snap, q).map_err(|e| e.to_string())?;
        view_tuples.extend(
            rows.into_iter()
                .map(|t| (fx.def.bcp_of_tuple(&t), Arc::new(t))),
        );
    }
    out.insert(
        "query.plain_exec_us",
        rung(tracer, "ladder.query.plain_exec", sample.len(), |i| {
            black_box(pmv_query::execute(&*snap, sample[i]).map(|(rows, _)| rows.len())).ok();
        }) / 1e3,
    );

    // ---- cache ----
    let keys: Vec<BcpKey> = universe
        .combos
        .iter()
        .map(|c| bcp_key(c.date, c.supp))
        .collect();
    let cap = spec.l.min(n_combos / 2).max(1);
    let mut clock: ClockPolicy<BcpKey> = ClockPolicy::new(cap);
    for k in keys.iter().take(cap) {
        clock.admit(k.clone());
    }
    out.insert(
        "cache.clock_touch_ns",
        rung(tracer, "ladder.cache.clock_touch", 20_000, |i| {
            clock.touch(&keys[i % cap]);
        }),
    );
    // Walking the universe round-robin past a half-size cache: every
    // admission finds its key absent and evicts.
    let mut next = cap;
    out.insert(
        "cache.clock_evict_ns",
        rung(tracer, "ladder.cache.clock_evict", 4_000, |_| {
            black_box(clock.admit(keys[next % n_combos].clone()).evicted_count());
            next += 1;
        }),
    );

    // ---- core ----
    out.insert(
        "core.o1_decompose_ns",
        rung(tracer, "ladder.core.o1_decompose", 4_000, |i| {
            black_box(decompose(&fx.def, sample[i % sample.len()]).map(|p| p.len())).ok();
        }),
    );
    // Group the sampled view tuples by bcp, F per bcp, as O3 fills them.
    let mut fills: BTreeMap<BcpKey, Vec<Arc<Tuple>>> = BTreeMap::new();
    for (bcp, t) in &view_tuples {
        let slot = fills.entry(bcp.clone()).or_default();
        if slot.len() < F {
            slot.push(Arc::clone(t));
        }
    }
    let fills: Vec<(BcpKey, Vec<Arc<Tuple>>)> = fills.into_iter().collect();
    if fills.is_empty() {
        return Err("ladder: sampled queries returned no tuples".to_string());
    }
    let config = PmvConfig::new(F, fills.len(), pmv_cache::PolicyKind::Clock);
    let mut store = PmvStore::new(&config);
    out.insert(
        "core.store_fill_ns",
        rung(tracer, "ladder.core.store_fill", 1, |_| {
            // A fresh store per batch, indexed like the view's shards.
            store = PmvStore::new(&config);
            store.enable_index(DeltaKeyIndex::new(&fx.template));
            for (bcp, tuples) in &fills {
                store.admit(bcp);
                for t in tuples {
                    store.push_arc(bcp, Arc::clone(t), 0);
                }
            }
        }) / fills.len() as f64,
    );
    out.insert(
        "core.store_lookup_ns",
        rung(tracer, "ladder.core.store_lookup", 20_000, |i| {
            black_box(store.lookup(&fills[i % fills.len()].0).map(<[_]>::len));
        }),
    );
    let tuples: Vec<&Arc<Tuple>> = view_tuples.iter().map(|(_, t)| t).take(2048).collect();
    let mut ds = Ds::new();
    out.insert(
        "core.ds_ns",
        rung(tracer, "ladder.core.ds", 20_000, |i| {
            let t = tuples[i % tuples.len()];
            ds.insert_arc(Arc::clone(t));
            black_box(ds.remove_one(t));
        }),
    );
    let mut delta_index = DeltaKeyIndex::new(&fx.template);
    out.insert(
        "core.delta_index_ns",
        rung(tracer, "ladder.core.delta_index", 20_000, |i| {
            let (bcp, t) = &view_tuples[i % view_tuples.len()];
            delta_index.add(bcp, t);
            delta_index.remove(t);
        }),
    );

    // ---- sync ----
    let cell = LeftRight::new(Arc::new(0u64));
    out.insert(
        "sync.leftright_load_ns",
        rung(tracer, "ladder.sync.leftright_load", 20_000, |_| {
            black_box(cell.load());
        }),
    );
    out.insert(
        "sync.leftright_publish_ns",
        rung(tracer, "ladder.sync.leftright_publish", 20_000, |i| {
            cell.publish(Arc::new(i as u64));
        }),
    );
    Ok(out)
}
