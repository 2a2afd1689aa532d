//! The seeded op sequence of a run. It is generated once, outside every
//! timed region, and replayed unchanged by every trial.

use std::time::Instant;

use pmv_query::{QueryInstance, QueryTemplate};
use pmv_workload::queries::t1_query;
use pmv_workload::tpcr::NUM_DATES;
use pmv_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::fixture::{Spec, Universe, DATA_SEED, WRITER_SEQUENCE};

/// One commit: a size-preserving change to one `lineitem` row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitOp {
    /// Index into the shadow.
    pub row: u32,
    /// Delete the row and re-insert the same values (a new `RowId`),
    /// or else update its `quantity`, a selected non-condition column.
    pub replace: bool,
}

/// One step of the single-thread interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    Query(u32),
    Commit(u32),
}

pub struct Ops {
    /// `(orderdate values, suppkey values)` of each query.
    params: Vec<([i64; 2], [i64; 2])>,
    /// The queries, bound to the current fixture's template.
    pub queries: Vec<QueryInstance>,
    pub commits: Vec<CommitOp>,
    /// Interleaving for one-thread workloads; on `mixed_2t` the reader
    /// walks `queries` and the writer cycles through `commits`.
    pub steps: Vec<Step>,
    /// Generator cost per op, without binding.
    pub gen_ns_per_op: f64,
    /// `QueryTemplate::bind` cost per query.
    pub bind_ns: f64,
}

/// A value of `lo..hi` other than `not`.
fn other_than(rng: &mut StdRng, lo: i64, hi: i64, not: i64) -> i64 {
    let v = rng.gen_range(lo..hi);
    if v != not || hi - lo < 2 {
        v
    } else if v + 1 < hi {
        v + 1
    } else {
        lo
    }
}

/// Draw the run's ops. Queries have `h = 4` (`e = 2`, `f = 2`): a
/// Zipf-ranked hot bcp plus a filler date and a filler supplier. Commits
/// draw their row from the same Zipf, so maintenance hits resident bcps.
///
/// The query population is the workload's: it is drawn from the data
/// seed, so every run asks the same queries and `hit_ratio` and
/// `view_bytes` of two runs can be compared. `seed` decides the order
/// they arrive in and the commit stream.
pub fn generate(
    spec: &Spec,
    universe: &Universe,
    template: &Arc<QueryTemplate>,
    seed: u64,
) -> Result<Ops, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(universe.combos.len(), spec.alpha);
    let n_commits = if spec.writer_thread {
        WRITER_SEQUENCE
    } else {
        spec.queries / spec.queries_per_commit
    };

    let t_gen = Instant::now();
    let mut population = StdRng::seed_from_u64(DATA_SEED);
    let mut params: Vec<([i64; 2], [i64; 2])> = Vec::with_capacity(spec.queries);
    for _ in 0..spec.queries {
        let hot = &universe.combos[zipf.sample(&mut population)];
        let mut dates = [
            hot.date,
            other_than(&mut population, 0, NUM_DATES, hot.date),
        ];
        let mut supps = [
            hot.supp,
            other_than(&mut population, 1, universe.suppliers + 1, hot.supp),
        ];
        // The hot value sits first or second with equal odds.
        if population.gen::<bool>() {
            dates.swap(0, 1);
        }
        if population.gen::<bool>() {
            supps.swap(0, 1);
        }
        params.push((dates, supps));
    }
    for i in (1..params.len()).rev() {
        params.swap(i, rng.gen_range(0..=i));
    }
    let mut commits = Vec::with_capacity(n_commits);
    for _ in 0..n_commits {
        let rows = &universe.combos[zipf.sample(&mut rng)].rows;
        commits.push(CommitOp {
            row: rows[rng.gen_range(0..rows.len())],
            replace: rng.gen::<bool>(),
        });
    }
    let gen_ns = t_gen.elapsed().as_nanos() as f64;

    let mut steps = Vec::new();
    if !spec.writer_thread {
        let mut next_commit = 0u32;
        for q in 0..spec.queries {
            steps.push(Step::Query(q as u32));
            if (q + 1) % spec.queries_per_commit == 0 {
                steps.push(Step::Commit(next_commit));
                next_commit += 1;
            }
        }
    }
    let mut ops = Ops {
        gen_ns_per_op: gen_ns / (spec.queries + n_commits).max(1) as f64,
        bind_ns: 0.0,
        params,
        queries: Vec::new(),
        commits,
        steps,
    };
    ops.bind(template)?;
    Ok(ops)
}

impl Ops {
    /// Bind every query to `template`. A view only accepts instances of
    /// its own template, so each new fixture needs a rebind.
    pub fn bind(&mut self, template: &Arc<QueryTemplate>) -> Result<(), String> {
        let t = Instant::now();
        self.queries = self
            .params
            .iter()
            .map(|(dates, supps)| t1_query(template, dates, supps).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        self.bind_ns = t.elapsed().as_nanos() as f64 / self.queries.len().max(1) as f64;
        Ok(())
    }
}
