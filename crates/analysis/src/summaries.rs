//! Per-function summaries and their transitive closure over the call
//! graph.
//!
//! Each function gets a bitmask of **direct facts** read straight off
//! its masked body text (the same textual patterns the file-local lint
//! uses), then a fixpoint propagates them backwards along call edges:
//! `reach(f) = direct(f) ∪ ⋃ reach(callee)`. One deliberate cut: when
//! pulling facts *through* a `wal::dio` function, [`RAW_FS`] is
//! dropped — dio is the sanctioned funnel, so reaching the filesystem
//! through it is exactly the contract, not a violation.

use crate::graph::Workspace;
use crate::lint::{find_all, prev_is_ident, statement_around, BLOCKING_ACQUIRES, FS_WRITE_APIS};

/// Acquires a blocking lock (`.read()` / `.write()` / `.lock()`;
/// `try_*` forms do not match).
pub const BLOCKING: u16 = 1 << 0;
/// Acquires a *shard* lock (a blocking acquire whose statement mentions
/// `shard`).
pub const SHARD_LOCK: u16 = 1 << 1;
/// Acquires the DB master lock (`db.read()` / `db.write()` with `db` as
/// a standalone receiver).
pub const DB_LOCK: u16 = 1 << 2;
/// Calls an executor entry point (`execute`, `execute_bounded`,
/// `execute_bounded_arc`, `execute_scan`, `join_from`, `join_fixed`,
/// `run_plain`, `upquery_fill`).
pub const EXEC: u16 = 1 << 3;
/// Touches a raw `std::fs` write API.
pub const RAW_FS: u16 = 1 << 4;
/// Reaches an fsync (`fsync(`/`fsync_dir(` call or a direct
/// `.sync_all()`/`.sync_data()`).
pub const FSYNC: u16 = 1 << 5;
/// Calls the exact-inverse rollback `undo_delta_exact`.
pub const UNDO: u16 = 1 << 6;

/// Executor entry-point *names* (the call patterns in
/// [`crate::lint::EXEC_CALLS`] minus the trailing paren).
pub const EXEC_NAMES: [&str; 8] = [
    "execute",
    "execute_bounded",
    "execute_bounded_arc",
    "execute_scan",
    "join_from",
    "join_fixed",
    "run_plain",
    "upquery_fill",
];

/// Summaries for every function in a [`Workspace`].
pub struct Summaries {
    /// Facts read directly off each function's body.
    pub direct: Vec<u16>,
    /// Transitive facts (direct ∪ callees', with the dio cut).
    pub reach: Vec<u16>,
    /// For each function, one example `(bit, offset)` witness per
    /// direct fact — used to point messages at the concrete site.
    pub witness: Vec<Vec<(u16, usize)>>,
}

impl Summaries {
    /// Compute direct facts and their fixpoint for `ws`.
    pub fn compute(ws: &Workspace) -> Summaries {
        let n = ws.fns.len();
        let mut direct = vec![0u16; n];
        let mut witness: Vec<Vec<(u16, usize)>> = vec![Vec::new(); n];
        for (id, f) in ws.fns.iter().enumerate() {
            let Some((open, close)) = f.body else {
                continue;
            };
            let masked = &ws.files[f.file].masked;
            let body = &masked[open..close.min(masked.len())];
            let mut hit = |bit: u16, rel: usize| {
                if direct[id] & bit == 0 {
                    witness[id].push((bit, open + rel));
                }
                direct[id] |= bit;
            };
            for acquire in BLOCKING_ACQUIRES {
                for pos in find_all(body, acquire) {
                    hit(BLOCKING, pos);
                    if acquire != ".lock()" {
                        let (_, stmt) = statement_around(masked, open + pos);
                        if stmt.contains("shard") {
                            hit(SHARD_LOCK, pos);
                        }
                    }
                }
            }
            for acquire in ["db.read()", "db.write()"] {
                for pos in find_all(body, acquire) {
                    if !prev_is_ident(body.as_bytes(), pos) {
                        hit(DB_LOCK, pos);
                    }
                }
            }
            for name in EXEC_NAMES {
                for pos in call_sites(body, name) {
                    hit(EXEC, pos);
                }
            }
            for api in FS_WRITE_APIS {
                for pos in find_all(body, api) {
                    hit(RAW_FS, pos);
                }
            }
            for pat in ["fsync(", "fsync_dir("] {
                for pos in call_sites(body, pat.trim_end_matches('(')) {
                    hit(FSYNC, pos);
                }
            }
            for pat in [".sync_all(", ".sync_data("] {
                for pos in find_all(body, pat) {
                    hit(FSYNC, pos);
                }
            }
            for pos in call_sites(body, "undo_delta_exact") {
                hit(UNDO, pos);
            }
        }

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
            direct,
            reach,
            witness,
        }
    }

    /// Effective reach of *calling into* `target`: the dio cut applied,
    /// as the fixpoint does for edges.
    pub fn reach_through(&self, ws: &Workspace, target: usize) -> u16 {
        let mut bits = self.reach[target];
        if ws.files[ws.fns[target].file].is_dio {
            bits &= !RAW_FS;
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
            if let Some(&(_, off)) = self.witness[last].iter().find(|(b, _)| *b & bit != 0) {
                let f = &ws.fns[last];
                let file = &ws.files[f.file];
                if let Some(p) = parts.last_mut() {
                    *p = format!("{p} ({}:{})", file.path.display(), ws.line_at(f.file, off));
                }
            }
        }
        parts.join(" → ")
    }
}

/// Offsets of `name(` occurrences in `body` that are calls: whole-ident
/// match, not a definition.
fn call_sites(body: &str, name: &str) -> Vec<usize> {
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
