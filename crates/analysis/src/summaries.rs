//! Effect sites, per-function summaries and their transitive closure
//! over the call graph.
//!
//! [`effect_sites`] is the one place the analyzer reads effects off
//! source text: every textual pattern that acquires a lock, enters the
//! executor, writes the filesystem, … becomes a [`Site`] in a per-file
//! index. A function's **direct facts** are the sites inside its body;
//! a fixpoint then propagates them backwards along call edges:
//! `reach(f) = direct(f) ∪ ⋃ reach(callee)`. One deliberate cut: when
//! pulling facts *through* a `wal::dio` function, [`RAW_FS`] is
//! dropped — dio is the sanctioned funnel, so reaching the filesystem
//! through it is exactly the contract, not a violation.

use crate::graph::{find_all, prev_is_ident, statement_around, Workspace};

/// Acquires a blocking lock (`.read()` / `.write()` / `.lock()`).
/// `.try_write()` / `.try_read()` deliberately do not match (`_` before
/// `write`): best-effort, non-blocking write-backs are the sanctioned
/// pattern on the pinned path.
pub const BLOCKING: u16 = 1 << 0;
/// Acquires a *shard* lock (a `.read()` / `.write()` whose statement
/// mentions `shard`).
pub const SHARD_LOCK: u16 = 1 << 1;
/// Acquires the DB master lock (`db.read()` / `db.write()` with `db` as
/// a standalone receiver).
pub const DB_LOCK: u16 = 1 << 2;
/// Calls an executor entry point ([`EXEC_NAMES`]).
pub const EXEC: u16 = 1 << 3;
/// Touches a raw `std::fs` write API ([`FS_WRITE_APIS`]).
pub const RAW_FS: u16 = 1 << 4;
/// Reaches an fsync (`fsync(`/`fsync_dir(` call or a direct
/// `.sync_all()`/`.sync_data()`).
pub const FSYNC: u16 = 1 << 5;
/// Calls the exact-inverse rollback `undo_delta_exact`.
pub const UNDO: u16 = 1 << 6;
/// Names `Ordering::Relaxed`.
pub const RELAXED: u16 = 1 << 7;

/// Executor entry points a shard guard must not be held across. The
/// targeted-upquery refill (`upquery_fill`), the fixed-tuple delta join
/// (`join_fixed`) and the containing-view join (`full_join`) are
/// executor work like any other: a keyed refill still scans base
/// relations under the db read lock.
pub const EXEC_NAMES: [&str; 9] = [
    "execute",
    "execute_bounded",
    "execute_bounded_arc",
    "execute_scan",
    "full_join",
    "join_from",
    "join_fixed",
    "run_plain",
    "upquery_fill",
];

/// Filesystem APIs that mutate durable state. Read-side APIs
/// (`fs::read`, `File::open`, `read_dir`, `metadata`) are deliberately
/// absent — the contract covers *writes*, which must be observable by
/// fault injection.
const FS_WRITE_APIS: [&str; 9] = [
    "File::create(",
    "OpenOptions::new(",
    "File::options(",
    "fs::write(",
    "fs::rename(",
    "fs::remove_file(",
    "fs::remove_dir_all(",
    "fs::create_dir",
    "fs::copy(",
];

/// What reaching an effect is called in a finding.
pub fn effect_name(effect: u16) -> &'static str {
    match effect {
        BLOCKING => "a blocking lock acquisition",
        SHARD_LOCK => "a shard lock acquisition",
        DB_LOCK => "a DB master lock acquisition",
        EXEC => "an executor entry point",
        RAW_FS => "a raw filesystem write",
        _ => "a forbidden effect",
    }
}

/// One textual occurrence of one effect.
#[derive(Clone, Copy, Debug)]
pub struct Site {
    /// Byte offset of the pattern in the file's masked text.
    pub offset: usize,
    /// The single effect bit the pattern stands for.
    pub effect: u16,
}

/// Every effect site of one file's masked text, sorted by offset. The
/// whole file is scanned, not only function bodies: file-level
/// contracts see sites in statics and consts too.
fn effect_sites(masked: &str) -> Vec<Site> {
    let bytes = masked.as_bytes();
    let mut out: Vec<Site> = Vec::new();
    let mut hit = |effect: u16, offsets: Vec<usize>| {
        out.extend(offsets.into_iter().map(|offset| Site { offset, effect }));
    };
    for acquire in [".read()", ".write()", ".lock()"] {
        let at = find_all(masked, acquire);
        if acquire != ".lock()" {
            let on_shard = |&p: &usize| statement_around(masked, p).contains("shard");
            hit(SHARD_LOCK, at.iter().copied().filter(on_shard).collect());
        }
        hit(BLOCKING, at);
    }
    for acquire in ["db.read()", "db.write()"] {
        let mut at = find_all(masked, acquire);
        at.retain(|&p| !prev_is_ident(bytes, p));
        hit(DB_LOCK, at);
    }
    for name in EXEC_NAMES {
        // Not whole-ident on purpose: a longer identifier *ending* in an
        // entry point's name (`reference_join_from(`) is taken for a
        // wrapper of it. Only definitions are excluded.
        let mut at = find_all(masked, &format!("{name}("));
        at.retain(|&p| !masked[..p].trim_end().ends_with("fn"));
        hit(EXEC, at);
    }
    for api in FS_WRITE_APIS {
        hit(RAW_FS, find_all(masked, api));
    }
    for name in ["fsync", "fsync_dir"] {
        hit(FSYNC, call_sites(masked, name));
    }
    for pat in [".sync_all(", ".sync_data("] {
        hit(FSYNC, find_all(masked, pat));
    }
    hit(UNDO, call_sites(masked, "undo_delta_exact"));
    hit(RELAXED, find_all(masked, "Ordering::Relaxed"));
    out.sort_by_key(|s| s.offset);
    out
}

/// Summaries for every function in a [`Workspace`].
pub struct Summaries {
    /// Per file, every direct effect site in offset order.
    sites: Vec<Vec<Site>>,
    /// Facts read directly off each function's body.
    pub direct: Vec<u16>,
    /// Transitive facts (direct ∪ callees', with the dio cut).
    pub reach: Vec<u16>,
}

impl Summaries {
    /// Index every file's effect sites, derive each function's direct
    /// facts from the sites in its body, and run the fixpoint.
    pub fn compute(ws: &Workspace) -> Summaries {
        let sites: Vec<Vec<Site>> = ws.files.iter().map(|f| effect_sites(&f.masked)).collect();
        let direct: Vec<u16> = ws
            .fns
            .iter()
            .map(|f| {
                let (open, close) = f.body.unwrap_or((0, 0));
                span(&sites[f.file], open, close)
                    .iter()
                    .fold(0, |acc, s| acc | s.effect)
            })
            .collect();

        // Fixpoint: naive iteration — the workspace graph is small
        // (a few thousand nodes) and its diameter bounds the rounds.
        let mut reach = direct.clone();
        loop {
            let mut changed = false;
            for (id, calls) in ws.fn_calls.iter().enumerate() {
                let mut acc = reach[id];
                for &c in calls {
                    for &t in &ws.calls[c].targets {
                        let mut bits = reach[t];
                        if ws.files[ws.fns[t].file].is_dio {
                            bits &= !RAW_FS;
                        }
                        acc |= bits;
                    }
                }
                if acc != reach[id] {
                    reach[id] = acc;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Summaries {
            sites,
            direct,
            reach,
        }
    }

    /// The effect sites at offsets `[start, end)` of a file.
    pub fn sites_in(&self, file: usize, start: usize, end: usize) -> &[Site] {
        span(&self.sites[file], start, end)
    }

    /// What a call into `target` brings into the region around it: the
    /// dio cut applied, as the fixpoint does for edges, and [`BLOCKING`]
    /// dropped when `target` is itself a declared pin region — that body
    /// carries its own verdicts (and escapes), so a lock it takes is
    /// reported there, not at every caller above it. The fixpoint does
    /// *not* make this second cut: a helper that calls into a pin region
    /// still reaches what the region reaches.
    pub fn reach_through(&self, ws: &Workspace, target: usize) -> u16 {
        let f = &ws.fns[target];
        let mut bits = self.reach[target];
        if ws.files[f.file].is_dio {
            bits &= !RAW_FS;
        }
        if f.pin_region {
            bits &= !BLOCKING;
        }
        bits
    }

    /// Shortest call chain from `from` to a function with `bit` in its
    /// direct facts, as fn ids ending at the witness-holding function.
    /// `from` itself qualifies when it holds the fact directly.
    pub fn chain_to(&self, ws: &Workspace, from: usize, bit: u16) -> Vec<usize> {
        let n = ws.fns.len();
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[from] = true;
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            if self.direct[cur] & bit != 0 {
                let mut path = vec![cur];
                let mut at = cur;
                while let Some(p) = prev[at] {
                    path.push(p);
                    at = p;
                }
                path.reverse();
                return path;
            }
            for &c in &ws.fn_calls[cur] {
                for &t in &ws.calls[c].targets {
                    // Respect the dio cut when hunting a RAW_FS witness.
                    if bit == RAW_FS && ws.files[ws.fns[t].file].is_dio {
                        continue;
                    }
                    if !seen[t] && self.reach[t] & bit != 0 {
                        seen[t] = true;
                        prev[t] = Some(cur);
                        queue.push_back(t);
                    }
                }
            }
        }
        vec![from]
    }

    /// Render a chain as `a → b → c`, annotating the final hop with the
    /// witness site.
    pub fn describe_chain(&self, ws: &Workspace, chain: &[usize], bit: u16) -> String {
        let mut parts: Vec<String> = chain.iter().map(|&id| ws.fn_name(id)).collect();
        if let Some(&last) = chain.last() {
            let f = &ws.fns[last];
            let (open, close) = f.body.unwrap_or((0, 0));
            let witness = self.sites_in(f.file, open, close);
            if let Some(site) = witness.iter().find(|s| s.effect & bit != 0) {
                let at = ws.line_at(f.file, site.offset);
                if let Some(p) = parts.last_mut() {
                    *p = format!("{p} ({}:{at})", ws.files[f.file].path.display());
                }
            }
        }
        parts.join(" → ")
    }
}

/// The part of an offset-sorted site list at offsets `[start, end)`.
fn span(sites: &[Site], start: usize, end: usize) -> &[Site] {
    let lo = sites.partition_point(|s| s.offset < start);
    let hi = sites.partition_point(|s| s.offset < end);
    &sites[lo..hi.max(lo)]
}

/// Offsets of `name(` occurrences in `body` that are calls: whole-ident
/// match, not a definition.
pub(crate) fn call_sites(body: &str, name: &str) -> Vec<usize> {
    let pat = format!("{name}(");
    let bytes = body.as_bytes();
    find_all(body, &pat)
        .into_iter()
        .filter(|&pos| !prev_is_ident(bytes, pos) && !body[..pos].trim_end().ends_with("fn"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Scan `src` as a one-file workspace. `test` names the directory:
    /// tests run on parallel threads, so each needs its own.
    fn ws_of(test: &str, src: &str) -> Workspace {
        let dir = std::env::temp_dir().join(format!("pmv-sum-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("s.rs");
        std::fs::write(&file, src).unwrap();
        let ws = Workspace::scan(&[PathBuf::from(&dir)]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        ws
    }

    #[test]
    fn facts_propagate_through_calls() {
        let src = r#"
fn leaf(&self) { self.inner.lock(); }
fn middle() { leaf_caller(); }
fn leaf_caller() { leaf_dummy(); }
fn leaf_dummy(&self) { self.guard.write(); }
"#;
        let ws = ws_of("facts", src);
        let s = Summaries::compute(&ws);
        let id = |n: &str| ws.fns.iter().position(|f| f.name == n).unwrap();
        assert_ne!(s.direct[id("leaf")] & BLOCKING, 0);
        assert_eq!(s.direct[id("middle")] & BLOCKING, 0);
        assert_ne!(s.reach[id("middle")] & BLOCKING, 0, "two hops propagate");
        let chain = s.chain_to(&ws, id("middle"), BLOCKING);
        let names: Vec<String> = chain.iter().map(|&i| ws.fns[i].name.clone()).collect();
        assert_eq!(names, ["middle", "leaf_caller", "leaf_dummy"]);
    }

    #[test]
    fn exec_and_undo_seeds_are_textual() {
        let src = r#"
fn runs_exec(db: &Db, q: &Q) { let _ = execute_bounded_arc(db, q, b); }
fn rolls_back(db: &mut Db) { db.undo_delta_exact("r", &d).unwrap(); }
"#;
        let ws = ws_of("seeds", src);
        let s = Summaries::compute(&ws);
        assert_ne!(s.direct[0] & EXEC, 0);
        assert_ne!(s.direct[1] & UNDO, 0);
        assert_eq!(s.direct[0] & (BLOCKING | RAW_FS), 0);
    }
}
