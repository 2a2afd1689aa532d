//! Interprocedural protocol rules over the workspace call graph.
//!
//! [`analyze_tree`] is a strict superset of the file-local lint pass:
//! it first runs every [`crate::lint`] rule per file (depth-0), then
//! adds call-graph findings (depth ≥ 1) for the contracts that span
//! functions:
//!
//! | rule | contract (DESIGN.md §17) |
//! |------|--------------------------|
//! | `write_guard_across_exec` | a call made under a live shard write guard must not transitively reach an executor entry point (§10) |
//! | `lock_in_catch_unwind` | a call inside a `catch_unwind` closure must not transitively acquire a shard lock (§11) |
//! | `lock_order` | a call made under a live shard guard must not transitively acquire the DB master lock (§10) |
//! | `pin_reaches_blocking_lock` | no function transitively reachable from an epoch pin region may acquire a blocking lock (§10) |
//! | `dio_funnel_reach` | production code in `crates/{core,storage,wal}/src` must not transitively reach a raw `std::fs` write except through `wal::dio` (§16) |
//! | `durable_before_visible` | in any function that publishes the group-commit snapshot, a WAL append (reaching fsync) lexically dominates the publish, and every append error arm reaches `undo_delta_exact` and returns before it (§15–§16) |
//!
//! Depth ≥ 1 findings report only in production code: test functions
//! deliberately exercise the protocols from outside (pinned readers
//! surviving commits, crash harnesses writing scratch files), and the
//! file-local tripwires still cover their bodies. The same
//! `pmv::allow(rule)` escape comments suppress and count findings.

use std::io;
use std::path::PathBuf;

use crate::graph::{brace_match, Call, Workspace};
use crate::lint::{
    allow_covers, find_all, guard_scope_end, let_binding_name, lint_source, prev_is_ident,
    shard_guard_bindings, statement_around, AllowUse, Finding, Level, LintReport,
};
use crate::summaries::{
    Summaries, BLOCKING, DB_LOCK, EXEC, EXEC_NAMES, FSYNC, RAW_FS, SHARD_LOCK, UNDO,
};

/// The interprocedural rules this module adds on top of
/// [`crate::lint::RULES`].
pub const IPA_RULES: [(&str, Level); 6] = [
    ("write_guard_across_exec", Level::Error),
    ("lock_in_catch_unwind", Level::Error),
    ("lock_order", Level::Error),
    ("pin_reaches_blocking_lock", Level::Error),
    ("dio_funnel_reach", Level::Error),
    ("durable_before_visible", Level::Error),
];

/// Outcome of a whole-program analysis run.
#[derive(Debug, Default)]
pub struct AnalyzeReport {
    /// Unsuppressed findings (file-local and interprocedural).
    pub findings: Vec<Finding>,
    /// Escape-hatch entries that suppressed a finding.
    pub allows_used: Vec<AllowUse>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `fn` items indexed into the call graph.
    pub fns_indexed: usize,
}

impl AnalyzeReport {
    /// Whether the run fails: any error, or any finding at all under
    /// `deny_warnings`.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.findings
            .iter()
            .any(|f| f.level == Level::Error || deny_warnings)
    }
}

/// Analyze every `.rs` file under the given roots.
pub fn analyze_tree(roots: &[PathBuf]) -> io::Result<AnalyzeReport> {
    let ws = Workspace::scan(roots)?;
    Ok(analyze_workspace(&ws))
}

/// Analyze an already-scanned workspace.
pub fn analyze_workspace(ws: &Workspace) -> AnalyzeReport {
    let sums = Summaries::compute(ws);
    let mut report = AnalyzeReport {
        files_scanned: ws.files.len(),
        fns_indexed: ws.fns.len(),
        ..AnalyzeReport::default()
    };

    // Depth-0: the file-local lint pass, verbatim.
    let mut lint_rep = LintReport::default();
    for file in &ws.files {
        lint_source(&file.path, &file.source, &mut lint_rep);
    }
    report.findings.extend(lint_rep.findings);
    report.allows_used.extend(lint_rep.allows_used);

    // Depth ≥ 1: raw (file, rule, line, message) findings, deduped by
    // (rule, file, line) — one site can sit in overlapping regions.
    let mut raw: Vec<(usize, &'static str, usize, String)> = Vec::new();
    let calls_by_file = index_calls_by_file(ws);

    rule_guard_across_exec_ipa(ws, &sums, &calls_by_file, &mut raw);
    rule_catch_unwind_ipa(ws, &sums, &calls_by_file, &mut raw);
    rule_lock_order_ipa(ws, &sums, &calls_by_file, &mut raw);
    rule_pin_reaches_blocking_lock(ws, &sums, &calls_by_file, &mut raw);
    rule_dio_funnel_reach(ws, &sums, &mut raw);
    rule_durable_before_visible(ws, &sums, &calls_by_file, &mut raw);

    raw.sort_by(|a, b| (a.0, a.2, a.1).cmp(&(b.0, b.2, b.1)));
    raw.dedup_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2));

    for (fid, rule, line, message) in raw {
        let file = &ws.files[fid];
        let lines: Vec<&str> = file.source.lines().collect();
        let level = IPA_RULES
            .iter()
            .find(|(r, _)| *r == rule)
            .map(|(_, l)| *l)
            .unwrap_or(Level::Error);
        if let Some(allow_line) = allow_covers(&lines, rule, line) {
            report.allows_used.push(AllowUse {
                rule: rule.to_string(),
                file: file.path.clone(),
                line: allow_line,
            });
        } else {
            report.findings.push(Finding {
                rule,
                level,
                file: file.path.clone(),
                line,
                message,
            });
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Per-file call ids, sorted by offset.
fn index_calls_by_file(ws: &Workspace) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); ws.files.len()];
    for (id, call) in ws.calls.iter().enumerate() {
        out[call.file].push(id);
    }
    for v in &mut out {
        v.sort_by_key(|&id| ws.calls[id].offset);
    }
    out
}

/// Calls within `[start, end)` of a file, production callers only.
fn prod_calls_in<'a>(
    ws: &'a Workspace,
    calls_by_file: &'a [Vec<usize>],
    fid: usize,
    start: usize,
    end: usize,
) -> impl Iterator<Item = &'a Call> + 'a {
    calls_by_file[fid]
        .iter()
        .map(move |&id| &ws.calls[id])
        .filter(move |c| c.offset >= start && c.offset < end && !ws.fns[c.caller].is_test)
}

fn rule_guard_across_exec_ipa(
    ws: &Workspace,
    sums: &Summaries,
    calls_by_file: &[Vec<usize>],
    raw: &mut Vec<(usize, &'static str, usize, String)>,
) {
    for (fid, file) in ws.files.iter().enumerate() {
        for (pos, scope_end, var) in shard_guard_bindings(&file.masked, ".write()") {
            for call in prod_calls_in(ws, calls_by_file, fid, pos, scope_end) {
                // The direct `execute(…)`-under-guard case is depth-0:
                // the lint pass already reports it.
                if EXEC_NAMES.contains(&call.name.as_str()) {
                    continue;
                }
                if let Some(&t) = call
                    .targets
                    .iter()
                    .find(|&&t| sums.reach_through(ws, t) & EXEC != 0)
                {
                    let chain = sums.chain_to(ws, t, EXEC);
                    raw.push((
                        fid,
                        "write_guard_across_exec",
                        ws.line_at(fid, call.offset),
                        format!(
                            "`{}` called while shard write guard `{}` (line {}) is live \
                             reaches an executor entry point: {} — compute first, lock second",
                            call.name,
                            var.unwrap_or("_"),
                            ws.line_at(fid, pos),
                            sums.describe_chain(ws, &chain, EXEC)
                        ),
                    ));
                }
            }
        }
    }
}

fn rule_catch_unwind_ipa(
    ws: &Workspace,
    sums: &Summaries,
    calls_by_file: &[Vec<usize>],
    raw: &mut Vec<(usize, &'static str, usize, String)>,
) {
    for (fid, file) in ws.files.iter().enumerate() {
        let masked = &file.masked;
        for pos in find_all(masked, "catch_unwind") {
            let Some(open_rel) = masked[pos..].find('(') else {
                continue;
            };
            let open = pos + open_rel;
            let end = paren_match(masked, open);
            for call in prod_calls_in(ws, calls_by_file, fid, open, end) {
                if let Some(&t) = call
                    .targets
                    .iter()
                    .find(|&&t| sums.reach[t] & SHARD_LOCK != 0)
                {
                    let chain = sums.chain_to(ws, t, SHARD_LOCK);
                    raw.push((
                        fid,
                        "lock_in_catch_unwind",
                        ws.line_at(fid, call.offset),
                        format!(
                            "`{}` called inside the `catch_unwind` closure starting on \
                             line {} acquires a shard lock: {} — acquire the guard outside \
                             so the quarantine handler can reach the store after a panic",
                            call.name,
                            ws.line_at(fid, pos),
                            sums.describe_chain(ws, &chain, SHARD_LOCK)
                        ),
                    ));
                }
            }
        }
    }
}

fn rule_lock_order_ipa(
    ws: &Workspace,
    sums: &Summaries,
    calls_by_file: &[Vec<usize>],
    raw: &mut Vec<(usize, &'static str, usize, String)>,
) {
    for (fid, file) in ws.files.iter().enumerate() {
        for acquire in [".write()", ".read()"] {
            for (pos, scope_end, var) in shard_guard_bindings(&file.masked, acquire) {
                for call in prod_calls_in(ws, calls_by_file, fid, pos, scope_end) {
                    if let Some(&t) = call.targets.iter().find(|&&t| sums.reach[t] & DB_LOCK != 0) {
                        let chain = sums.chain_to(ws, t, DB_LOCK);
                        raw.push((
                            fid,
                            "lock_order",
                            ws.line_at(fid, call.offset),
                            format!(
                                "`{}` called while shard guard `{}` (line {}) is live \
                                 acquires the DB master lock: {} — lock order is DB guard \
                                 first, then shard guard, never the reverse",
                                call.name,
                                var.unwrap_or("_"),
                                ws.line_at(fid, pos),
                                sums.describe_chain(ws, &chain, DB_LOCK)
                            ),
                        ));
                    }
                }
            }
        }
    }
}

fn rule_pin_reaches_blocking_lock(
    ws: &Workspace,
    sums: &Summaries,
    calls_by_file: &[Vec<usize>],
    raw: &mut Vec<(usize, &'static str, usize, String)>,
) {
    let mut regions: Vec<(usize, usize, usize, String)> = Vec::new(); // (fid, start, end, what)
    for (fid, file) in ws.files.iter().enumerate() {
        let masked = &file.masked;
        for pos in find_all(masked, ".pin()") {
            let (_, stmt) = statement_around(masked, pos);
            if !stmt.contains("let ") {
                continue;
            }
            let Some(var) = let_binding_name(stmt) else {
                continue;
            };
            let end = guard_scope_end(masked, pos + ".pin()".len(), Some(var));
            regions.push((fid, pos, end, format!("epoch pin `{var}`")));
        }
    }
    // The serving functions (`core::serve`) and the two `Inner` methods
    // that run inside them (shard-view probe, `try_write` write-back).
    // All are inherent and visible to the call graph; each is still a
    // region of its own, found by the shared prefix, so a verdict — and
    // an escape — sits in the body that takes the lock, not at every
    // caller above it.
    for f in &ws.fns {
        if f.name.starts_with("run_pinned") && !f.is_test {
            if let Some((open, close)) = f.body {
                regions.push((f.file, open, close, format!("`fn {}`", f.name)));
            }
        }
    }
    for (fid, start, end, what) in regions {
        for call in prod_calls_in(ws, calls_by_file, fid, start, end) {
            // Calls into another pin-region function are not re-flagged
            // here: that body is a region of its own and carries its
            // own verdicts (and escapes).
            if call.name.starts_with("run_pinned") {
                continue;
            }
            if let Some(&t) = call
                .targets
                .iter()
                .find(|&&t| sums.reach[t] & BLOCKING != 0)
            {
                let chain = sums.chain_to(ws, t, BLOCKING);
                raw.push((
                    fid,
                    "pin_reaches_blocking_lock",
                    ws.line_at(fid, call.offset),
                    format!(
                        "`{}` called while {} (line {}) is live transitively acquires a \
                         blocking lock: {} — the pinned serving path must not wait on any \
                         lock",
                        call.name,
                        what,
                        ws.line_at(fid, start),
                        sums.describe_chain(ws, &chain, BLOCKING)
                    ),
                ));
            }
        }
    }
}

fn rule_dio_funnel_reach(
    ws: &Workspace,
    sums: &Summaries,
    raw: &mut Vec<(usize, &'static str, usize, String)>,
) {
    for call in &ws.calls {
        let file = &ws.files[call.file];
        if !file.in_durable_src || file.is_dio || ws.fns[call.caller].is_test {
            continue;
        }
        if let Some(&t) = call
            .targets
            .iter()
            .find(|&&t| sums.reach_through(ws, t) & RAW_FS != 0)
        {
            let chain = sums.chain_to(ws, t, RAW_FS);
            raw.push((
                call.file,
                "dio_funnel_reach",
                ws.line_at(call.file, call.offset),
                format!(
                    "`{}` transitively reaches a raw filesystem write outside `pmv_wal::dio`: \
                     {} — route the write through the dio layer so fault injection and the \
                     crash kill-point matrix cover it",
                    call.name,
                    sums.describe_chain(ws, &chain, RAW_FS)
                ),
            ));
        }
    }
}

fn rule_durable_before_visible(
    ws: &Workspace,
    sums: &Summaries,
    calls_by_file: &[Vec<usize>],
    raw: &mut Vec<(usize, &'static str, usize, String)>,
) {
    for f in &ws.fns {
        if f.is_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let fid = f.file;
        let masked = &ws.files[fid].masked;
        let body = &masked[open..close.min(masked.len())];
        let appends: Vec<usize> = call_offsets(body, "append_commit")
            .into_iter()
            .map(|p| open + p)
            .collect();
        let publishes: Vec<usize> = find_all(body, "published.publish(")
            .into_iter()
            .filter(|&p| !prev_is_ident(body.as_bytes(), p))
            .map(|p| open + p)
            .collect();
        if publishes.is_empty() && appends.is_empty() {
            continue;
        }
        if appends.is_empty() {
            for &p in &publishes {
                raw.push((
                    fid,
                    "durable_before_visible",
                    ws.line_at(fid, p),
                    format!(
                        "`{}` publishes the group-commit snapshot without a dominating WAL \
                         append+fsync — §16 requires every publish to follow a durable append \
                         on the same path",
                        ws.fn_name_of(f)
                    ),
                ));
            }
            continue;
        }
        let first_append = *appends.iter().min().unwrap();
        for &p in &publishes {
            if p < first_append {
                raw.push((
                    fid,
                    "durable_before_visible",
                    ws.line_at(fid, p),
                    "snapshot publish lexically precedes the WAL append — durability must \
                     dominate visibility"
                        .to_string(),
                ));
            }
        }
        for &a in &appends {
            // The append callee must reach an fsync. Unresolvable calls
            // pass leniently (documented approximation).
            if let Some(call) = calls_by_file[fid]
                .iter()
                .map(|&id| &ws.calls[id])
                .find(|c| c.offset == a)
            {
                if !call.targets.is_empty()
                    && !call.targets.iter().any(|&t| sums.reach[t] & FSYNC != 0)
                {
                    raw.push((
                        fid,
                        "durable_before_visible",
                        ws.line_at(fid, a),
                        "WAL append does not reach an fsync — the record is not durable \
                         when the snapshot publishes"
                            .to_string(),
                    ));
                }
            }
            let (_, stmt) = statement_around(masked, a);
            if !stmt.contains("if let Err") && !stmt.contains("match ") {
                raw.push((
                    fid,
                    "durable_before_visible",
                    ws.line_at(fid, a),
                    "WAL append result is not checked — a failed append must roll back \
                     the round (exact inverses) and return before any publish"
                        .to_string(),
                ));
                continue;
            }
            let Some(rel) = masked[a..].find('{') else {
                continue;
            };
            let bopen = a + rel;
            let bclose = brace_match(masked, bopen);
            let block = &masked[bopen..bclose.min(masked.len())];
            let has_undo = !call_offsets(block, "undo_delta_exact").is_empty()
                || prod_calls_in(ws, calls_by_file, fid, bopen, bclose)
                    .any(|c| c.targets.iter().any(|&t| sums.reach[t] & UNDO != 0));
            if !has_undo {
                raw.push((
                    fid,
                    "durable_before_visible",
                    ws.line_at(fid, a),
                    "WAL append error arm does not reach the exact-inverse rollback \
                     (`undo_delta_exact`)"
                        .to_string(),
                ));
            }
            if !contains_word(block, "return") {
                raw.push((
                    fid,
                    "durable_before_visible",
                    ws.line_at(fid, a),
                    "WAL append error arm does not return before the snapshot publish".to_string(),
                ));
            }
            if let Some(&p) = publishes.iter().filter(|&&p| p > a).min() {
                if bclose > p {
                    raw.push((
                        fid,
                        "durable_before_visible",
                        ws.line_at(fid, p),
                        "snapshot publish sits inside the WAL append error arm".to_string(),
                    ));
                }
            }
        }
    }
}

/// Whole-ident call offsets of `name(` in `body` (no definitions).
fn call_offsets(body: &str, name: &str) -> Vec<usize> {
    let pat = format!("{name}(");
    let bytes = body.as_bytes();
    find_all(body, &pat)
        .into_iter()
        .filter(|&pos| !prev_is_ident(bytes, pos) && !body[..pos].trim_end().ends_with("fn"))
        .collect()
}

/// Whole-word containment.
fn contains_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    find_all(text, word).into_iter().any(|pos| {
        let end = pos + word.len();
        !prev_is_ident(bytes, pos)
            && (end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_'))
    })
}

/// Byte offset just past the `)` matching the `(` at `open`.
fn paren_match(masked: &str, open: usize) -> usize {
    let bytes = masked.as_bytes();
    let mut depth = 0i64;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    bytes.len()
}

impl Workspace {
    fn fn_name_of(&self, f: &crate::graph::FnDef) -> String {
        match &f.impl_of {
            Some(ty) => format!("{ty}::{}", f.name),
            None => f.name.clone(),
        }
    }
}
