//! The contract table and the one loop that checks it — the last stage
//! of the analyzer pipeline (DESIGN.md §12).
//!
//! Every lock / pin / durability contract the design argues correctness
//! from is one row of [`CONTRACTS`]: a **region** of source text (a
//! guard's scope, a `catch_unwind` closure, a pin region, a whole file),
//! the effects that may not appear **directly** in it, and the effects
//! no call made in it may **transitively** reach. [`analyze_workspace`]
//! walks each file's regions once against the effect-site index and the
//! call index: depth 0 is simply "the site is in the region itself".
//!
//! Direct sites report in test code too (a test that takes a lock in a
//! pin region is as wrong as production code); calls report only from
//! production callers — test functions deliberately exercise the
//! protocols from outside (pinned readers surviving commits, crash
//! harnesses writing scratch files).
//!
//! ## Pin regions are declared
//!
//! A function whose body must stay wait-free carries a
//! `// pmv::pin_region` comment directly above its `fn`; the scope of a
//! `let … = ….pin()` binding is a pin region without being told.
//!
//! ## Escape hatch
//!
//! A finding is suppressed by a comment on the same line or in the
//! comment block directly above it:
//!
//! ```text
//! // pmv::allow(pin_reaches_blocking_lock): <reason>
//! ```
//!
//! Escapes are counted and reported; the whole-tree test pins their
//! census, so a new one is a reviewed change.

use std::fmt;
use std::io;
use std::path::PathBuf;

use crate::graph::{
    comment_marker, find_all, matching_close, prev_is_ident, statement_around, Workspace,
};
use crate::summaries::{
    call_sites, effect_name, Summaries, BLOCKING, DB_LOCK, EXEC, FSYNC, RAW_FS, RELAXED,
    SHARD_LOCK, UNDO,
};

/// Severity of a contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Reported; fails the run only under `--deny-warnings` (CI mode).
    Warning,
    /// Always fails the run.
    Error,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Warning => "warning",
            Level::Error => "error",
        })
    }
}

/// A stretch of one file's masked text a contract holds over.
struct Region {
    /// First byte offset in the region.
    start: usize,
    /// One past the last byte offset in the region.
    end: usize,
    /// What the region is, for messages: ``the scope of shard write
    /// guard `store` (line 12)``.
    what: String,
}

/// One row of the contract table.
pub struct Contract {
    /// Rule identifier, as named in findings, escapes and SARIF.
    pub id: &'static str,
    /// Severity the rule ships at.
    pub level: Level,
    /// The contract in one line.
    pub short: &'static str,
    /// The regions of file `fid` the contract holds over.
    regions: fn(&Workspace, usize) -> Vec<Region>,
    /// Effects forbidden directly in a region.
    direct: u16,
    /// Effects no call made in a region may transitively reach.
    transitive: u16,
}

/// The shipped contracts (DESIGN.md §12 maps each to its invariant).
pub const CONTRACTS: [Contract; 7] = [
    Contract {
        id: "write_guard_across_exec",
        level: Level::Error,
        short: "no shard write guard held across an executor entry point: executor work under \
                a shard X-lock blocks the shard; compute first, lock second",
        regions: |ws, fid| shard_guard_scopes(ws, fid, &[".write()"]),
        direct: EXEC,
        transitive: EXEC,
    },
    Contract {
        id: "lock_in_catch_unwind",
        level: Level::Error,
        short: "no lock acquisition inside a catch_unwind closure: acquire the guard outside \
                so the quarantine handler can reach the store after a panic",
        regions: catch_unwind_closures,
        direct: BLOCKING,
        transitive: SHARD_LOCK,
    },
    Contract {
        id: "lock_order",
        level: Level::Error,
        short: "DB master lock before shard locks, never the reverse",
        regions: |ws, fid| shard_guard_scopes(ws, fid, &[".write()", ".read()"]),
        direct: DB_LOCK,
        transitive: DB_LOCK,
    },
    Contract {
        id: "relaxed_outside_stats",
        level: Level::Warning,
        short: "Relaxed atomics only in designated statistics modules: move the counter to \
                stats.rs, use Acquire/Release, or document the module with \"statistics, \
                not synchronization\"",
        regions: outside_stats_modules,
        direct: RELAXED,
        transitive: 0,
    },
    Contract {
        id: "pin_reaches_blocking_lock",
        level: Level::Error,
        short: "no blocking lock in or reachable from an epoch pin region: the pinned serving \
                path must not wait on any lock; use the published read views and try_write \
                write-backs",
        regions: pin_regions,
        direct: BLOCKING,
        transitive: BLOCKING,
    },
    Contract {
        id: "dio_funnel_reach",
        level: Level::Error,
        short: "durable crates write the filesystem only through wal::dio, so fault injection \
                and the crash kill-point matrix cover every durable write",
        regions: durable_outside_dio,
        direct: RAW_FS,
        transitive: RAW_FS,
    },
    // A dominance check, not region × effect: `durable_before_visible`
    // below does the work; the row gives it its level and description.
    Contract {
        id: "durable_before_visible",
        level: Level::Error,
        short: "WAL append+fsync dominates the snapshot publish, and every append error arm \
                rolls back exactly and returns before it",
        regions: |_, _| Vec::new(),
        direct: 0,
        transitive: 0,
    },
];

/// The last row, for the function that checks it.
const DURABLE_BEFORE_VISIBLE: &Contract = &CONTRACTS[6];

/// One unsuppressed violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule identifier (see [`CONTRACTS`]).
    pub rule: &'static str,
    /// Severity the rule ships at.
    pub level: Level,
    /// File the hit is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Explanation with the offending site and, for a call, the chain.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [pmv::{}] {}:{}: {}",
            self.level,
            self.rule,
            self.file.display(),
            self.line,
            self.message
        )
    }
}

/// A used `pmv::allow(...)` escape entry.
#[derive(Clone, Debug)]
pub struct AllowUse {
    /// Rule the escape suppressed.
    pub rule: &'static str,
    /// File containing the escape.
    pub file: PathBuf,
    /// 1-based line of the escape comment.
    pub line: usize,
}

/// Outcome of an analysis run.
#[derive(Debug, Default)]
pub struct AnalyzeReport {
    /// Unsuppressed findings, by file and line.
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

/// A violation before escapes are applied: `(file id, line, row, message)`.
type Raw = (usize, usize, &'static Contract, String);

/// Analyze every `.rs` file under the given roots.
pub fn analyze_tree(roots: &[PathBuf]) -> io::Result<AnalyzeReport> {
    let ws = Workspace::scan(roots)?;
    Ok(analyze_workspace(&ws))
}

/// Analyze an already-scanned workspace.
pub fn analyze_workspace(ws: &Workspace) -> AnalyzeReport {
    let sums = Summaries::compute(ws);
    let mut raw: Vec<Raw> = Vec::new();
    for fid in 0..ws.files.len() {
        for row in &CONTRACTS {
            for region in (row.regions)(ws, fid) {
                check_region(ws, &sums, fid, row, &region, &mut raw);
            }
        }
    }
    durable_before_visible(ws, &sums, &mut raw);

    // One site can sit in overlapping regions, and a direct site can be
    // a resolvable call too: one verdict per (file, line, rule), the
    // direct one first.
    raw.sort_by_key(|r| (r.0, r.1, r.2.id));
    raw.dedup_by_key(|r| (r.0, r.1, r.2.id));

    let mut report = AnalyzeReport {
        files_scanned: ws.files.len(),
        fns_indexed: ws.fns.len(),
        ..AnalyzeReport::default()
    };
    for (fid, line, row, message) in raw {
        let file = &ws.files[fid];
        let lines: Vec<&str> = file.source.lines().collect();
        let escape = format!("pmv::allow({})", row.id);
        match comment_marker(&lines, &escape, line) {
            Some(line) => report.allows_used.push(AllowUse {
                rule: row.id,
                file: file.path.clone(),
                line,
            }),
            None => report.findings.push(Finding {
                rule: row.id,
                level: row.level,
                file: file.path.clone(),
                line,
                message,
            }),
        }
    }
    report
}

/// Check one region of one row: every direct site of a forbidden effect,
/// then every production call that reaches one.
fn check_region(
    ws: &Workspace,
    sums: &Summaries,
    fid: usize,
    row: &'static Contract,
    region: &Region,
    raw: &mut Vec<Raw>,
) {
    let masked = &ws.files[fid].masked;
    for site in sums.sites_in(fid, region.start, region.end) {
        if site.effect & row.direct == 0 {
            continue;
        }
        let text = masked[site.offset..]
            .split(['(', ')', ';', '\n'])
            .next()
            .unwrap_or_default();
        raw.push((
            fid,
            ws.line_at(fid, site.offset),
            row,
            format!("`{text}` in {} — {}", region.what, row.short),
        ));
    }
    if row.transitive == 0 {
        return;
    }
    for call in ws.calls_in(fid, region.start, region.end) {
        if ws.fns[call.caller].is_test {
            continue;
        }
        let reaches = |&&t: &&usize| sums.reach_through(ws, t) & row.transitive != 0;
        if let Some(&t) = call.targets.iter().find(reaches) {
            let chain = sums.chain_to(ws, t, row.transitive);
            raw.push((
                fid,
                ws.line_at(fid, call.offset),
                row,
                format!(
                    "`{}` called in {} reaches {}: {} — {}",
                    call.name,
                    region.what,
                    effect_name(row.transitive),
                    sums.describe_chain(ws, &chain, row.transitive),
                    row.short
                ),
            ));
        }
    }
}

/// Extract the bound variable of a `let [mut] name = …` statement.
fn let_binding_name(stmt: &str) -> Option<&str> {
    let after_let = stmt.find("let ").map(|p| &stmt[p + 4..])?;
    let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let);
    let end = after_mut
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(after_mut.len());
    (end > 0).then(|| &after_mut[..end])
}

/// Byte offset where the scope opened at `from` ends: brace depth from
/// `from` drops below zero, or `drop(var)` releases the binding early.
fn scope_end(masked: &str, from: usize, var: &str) -> usize {
    let bytes = masked.as_bytes();
    let drop_pat = format!("drop({var})");
    let mut depth: i64 = 0;
    for (i, &b) in bytes.iter().enumerate().skip(from) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            _ => {}
        }
        if bytes[i..].starts_with(drop_pat.as_bytes()) {
            return i;
        }
    }
    bytes.len()
}

/// The scope of every `let name = ….<method>()` binding in a file, as
/// `(method offset, scope end, name)`. Values consumed inside the same
/// expression (`shard.write().quarantine()`, closure-local
/// `s.read().x()`) are released at the statement's end; only named
/// bindings hold.
fn let_scopes<'a>(masked: &'a str, method: &str) -> Vec<(usize, usize, &'a str)> {
    find_all(masked, method)
        .into_iter()
        .filter_map(|pos| {
            let var = let_binding_name(statement_around(masked, pos))?;
            Some((pos, scope_end(masked, pos + method.len(), var), var))
        })
        .collect()
}

/// Shard guard scopes: `let` bindings that mention `shard` and acquire
/// one of `acquires`.
fn shard_guard_scopes(ws: &Workspace, fid: usize, acquires: &[&str]) -> Vec<Region> {
    let masked = &ws.files[fid].masked;
    let mut out = Vec::new();
    for acquire in acquires {
        for (pos, end, var) in let_scopes(masked, acquire) {
            if statement_around(masked, pos).contains("shard") {
                let what = if *acquire == ".write()" { "write " } else { "" };
                out.push(Region {
                    start: pos,
                    end,
                    what: format!(
                        "the scope of shard {what}guard `{var}` (line {})",
                        ws.line_at(fid, pos)
                    ),
                });
            }
        }
    }
    out
}

/// The balanced parentheses of every `catch_unwind(…)`.
fn catch_unwind_closures(ws: &Workspace, fid: usize) -> Vec<Region> {
    let masked = &ws.files[fid].masked;
    let mut out = Vec::new();
    for pos in find_all(masked, "catch_unwind") {
        let Some(open_rel) = masked[pos..].find('(') else {
            continue;
        };
        let open = pos + open_rel;
        out.push(Region {
            start: open,
            end: matching_close(masked, open),
            what: format!(
                "the `catch_unwind` closure starting on line {}",
                ws.line_at(fid, pos)
            ),
        });
    }
    out
}

/// Pin regions: the scope of a `let … = ….pin()` binding — the pinned
/// snapshot promises lock-free serving for as long as the query holds
/// it — and the body of every function declared `// pmv::pin_region`.
fn pin_regions(ws: &Workspace, fid: usize) -> Vec<Region> {
    let masked = &ws.files[fid].masked;
    let mut out: Vec<Region> = let_scopes(masked, ".pin()")
        .into_iter()
        .map(|(pos, end, var)| Region {
            start: pos,
            end,
            what: format!(
                "the scope of epoch pin `{var}` (line {})",
                ws.line_at(fid, pos)
            ),
        })
        .collect();
    for f in ws.fns.iter().filter(|f| f.file == fid && f.pin_region) {
        if let Some((open, close)) = f.body {
            out.push(Region {
                start: open,
                end: close,
                what: format!("pin region `fn {}` (line {})", f.name, f.line),
            });
        }
    }
    out
}

/// The production part (up to the first `#[cfg(test)]`: scratch dirs and
/// damage helpers in unit tests are not production write paths) of a
/// durable crate's source file, `wal::dio` itself excepted.
fn durable_outside_dio(ws: &Workspace, fid: usize) -> Vec<Region> {
    let file = &ws.files[fid];
    if !file.in_durable_src || file.is_dio {
        return Vec::new();
    }
    vec![Region {
        start: 0,
        end: file.test_start,
        what: "production code of a durable crate outside `pmv_wal::dio`".to_string(),
    }]
}

/// Marker phrase a module must carry to use relaxed atomics: it declares
/// the counters are statistics with no synchronization role.
pub const RELAXED_MARKER: &str = "statistics, not synchronization";

/// A whole file, unless it is a designated statistics module: `stats.rs`,
/// anything in the obs crate (lock-free histograms, trace ids and the
/// enabled switch are all counters or flags; the path allowlist keeps
/// that contract even if a new obs file forgets the phrase), or a file
/// whose docs carry [`RELAXED_MARKER`] (looked for in the original text:
/// masking blanks doc comments).
fn outside_stats_modules(ws: &Workspace, fid: usize) -> Vec<Region> {
    let file = &ws.files[fid];
    if file.stem == "stats"
        || file.path.components().any(|c| c.as_os_str() == "obs")
        || file.source.contains(RELAXED_MARKER)
    {
        return Vec::new();
    }
    vec![Region {
        start: 0,
        end: file.masked.len(),
        what: "a module not designated for statistics".to_string(),
    }]
}

/// In any function that publishes the group-commit snapshot, a WAL
/// append (reaching fsync) lexically dominates the publish, and every
/// append error arm reaches `undo_delta_exact` and returns before it.
fn durable_before_visible(ws: &Workspace, sums: &Summaries, raw: &mut Vec<Raw>) {
    for (id, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let fid = f.file;
        let mut report = |at: usize, message: &str| {
            let row = DURABLE_BEFORE_VISIBLE;
            raw.push((fid, ws.line_at(fid, at), row, message.to_string()));
        };
        let masked = &ws.files[fid].masked;
        let body = &masked[open..close.min(masked.len())];
        let appends: Vec<usize> = call_sites(body, "append_commit")
            .into_iter()
            .map(|p| open + p)
            .collect();
        let publishes: Vec<usize> = find_all(body, "published.publish(")
            .into_iter()
            .filter(|&p| !prev_is_ident(body.as_bytes(), p))
            .map(|p| open + p)
            .collect();
        let Some(&first_append) = appends.iter().min() else {
            for &p in &publishes {
                report(
                    p,
                    &format!(
                        "`{}` publishes the group-commit snapshot without a dominating WAL \
                         append+fsync — every publish must follow a durable append on the \
                         same path",
                        ws.fn_name(id)
                    ),
                );
            }
            continue;
        };
        for &p in &publishes {
            if p < first_append {
                report(
                    p,
                    "snapshot publish lexically precedes the WAL append — durability must \
                     dominate visibility",
                );
            }
        }
        for &a in &appends {
            // The append callee must reach an fsync. Unresolvable calls
            // pass leniently (documented approximation).
            if let Some(call) = ws.calls_in(fid, a, a + 1).next() {
                if !call.targets.is_empty()
                    && !call.targets.iter().any(|&t| sums.reach[t] & FSYNC != 0)
                {
                    report(
                        a,
                        "WAL append does not reach an fsync — the record is not durable \
                         when the snapshot publishes",
                    );
                }
            }
            let stmt = statement_around(masked, a);
            if !stmt.contains("if let Err") && !stmt.contains("match ") {
                report(
                    a,
                    "WAL append result is not checked — a failed append must roll back \
                     the round (exact inverses) and return before any publish",
                );
                continue;
            }
            let Some(rel) = masked[a..].find('{') else {
                continue;
            };
            let bopen = a + rel;
            let bclose = matching_close(masked, bopen);
            let block = &masked[bopen..bclose.min(masked.len())];
            let has_undo = !call_sites(block, "undo_delta_exact").is_empty()
                || ws
                    .calls_in(fid, bopen, bclose)
                    .any(|c| c.targets.iter().any(|&t| sums.reach[t] & UNDO != 0));
            if !has_undo {
                report(
                    a,
                    "WAL append error arm does not reach the exact-inverse rollback \
                     (`undo_delta_exact`)",
                );
            }
            if !contains_word(block, "return") {
                report(
                    a,
                    "WAL append error arm does not return before the snapshot publish",
                );
            }
            if let Some(&p) = publishes.iter().filter(|&&p| p > a).min() {
                if bclose > p {
                    report(p, "snapshot publish sits inside the WAL append error arm");
                }
            }
        }
    }
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
