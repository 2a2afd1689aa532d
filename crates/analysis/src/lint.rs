//! Repo-specific concurrency lint rules the compiler can't express, run
//! over `crates/**` source text (by `pmv-analyze`, as its depth-0 pass).
//!
//! The rules encode the locking contract that DESIGN.md §10–§12 argue
//! correctness from:
//!
//! | rule | contract |
//! |------|----------|
//! | `write_guard_across_exec` | a shard `RwLockWriteGuard` is never held across a call into `query::exec` (executor work under a shard X-lock blocks the shard and inverts the DB→shard lock order) |
//! | `lock_in_catch_unwind` | no lock acquisition inside a `catch_unwind` closure — guards are acquired *outside* so the quarantine handler can still reach the store after a panic |
//! | `lock_order` | DB guard before shard guard, never the reverse |
//! | `relaxed_outside_stats` | `Ordering::Relaxed` only in designated statistics modules (`stats.rs`, anywhere in the `obs` crate, or a file whose docs declare the "statistics, not synchronization" contract) |
//! | `lock_in_pin_region` | no blocking lock acquisition (`.read()`/`.write()`/`.lock()`) inside an epoch-pinned region — the scope of a `let … = ….pin()` binding or the body of a `run_pinned…` function (the serving functions in `core::serve` and the two `concurrent::Inner` methods they call: the shard-view probe and the `try_write` write-back). The epoch serving path promises "no lock waited on between pin and answer"; best-effort `try_write()` is allowed |
//! | `raw_fs_write` | in `crates/{core,storage,wal}/src`, `pmv_wal::dio` is the *only* module allowed raw `std::fs` write access (`File::create`, `fs::write`, `fs::rename`, …). Everything else must route through `dio` so fault injection and the crash kill-point matrix see every durable write. Test modules (`#[cfg(test)]` and below) are exempt |
//!
//! ## Escape hatch
//!
//! A finding can be suppressed with a comment on the same line or the
//! line directly above:
//!
//! ```text
//! // pmv::allow(write_guard_across_exec): <reason>
//! ```
//!
//! Escapes are counted and reported; CI treats a non-empty allow list
//! for shipped-enabled rules as a review flag (the repo itself carries
//! zero entries — real violations get fixed, per ISSUE 3).
//!
//! ## Implementation notes
//!
//! The workspace is fully offline, so there is no `syn`: the pass works
//! on *masked* source text (comments and string literals blanked out,
//! newlines preserved) with brace-depth tracking for guard scopes. That
//! is deliberately coarse — the rules are tripwires for reviewers, not a
//! type system — and each heuristic is documented inline.

use std::fmt;
use std::path::{Path, PathBuf};

/// Severity of a lint rule.
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

/// The shipped-enabled rules.
pub const RULES: [(&str, Level); 6] = [
    ("write_guard_across_exec", Level::Error),
    ("lock_in_catch_unwind", Level::Error),
    ("lock_order", Level::Error),
    ("relaxed_outside_stats", Level::Warning),
    ("lock_in_pin_region", Level::Error),
    ("raw_fs_write", Level::Error),
];

/// One lint hit.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// Severity the rule ships at.
    pub level: Level,
    /// File the hit is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Explanation with the offending snippet context.
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
    pub rule: String,
    /// File containing the escape.
    pub file: PathBuf,
    /// 1-based line of the suppressed finding.
    pub line: usize,
}

/// What the file-local rules found in the sources linted into it
/// ([`lint_source`]); `rules_ipa::analyze_workspace` folds it into the
/// run's `AnalyzeReport`.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Escape-hatch entries that actually suppressed a finding.
    pub allows_used: Vec<AllowUse>,
}

/// Lint one file's source text into `report`.
pub fn lint_source(file: &Path, source: &str, report: &mut LintReport) {
    let masked = mask_comments_and_strings(source);
    let lines: Vec<&str> = source.lines().collect();
    let line_of = line_index(&masked);

    let mut raw = Vec::new();
    rule_write_guard_across_exec(&masked, &line_of, &mut raw);
    rule_lock_in_catch_unwind(&masked, &line_of, &mut raw);
    rule_lock_order(&masked, &line_of, &mut raw);
    rule_relaxed_outside_stats(file, source, &masked, &line_of, &mut raw);
    rule_lock_in_pin_region(&masked, &line_of, &mut raw);
    rule_raw_fs_write(file, &masked, &line_of, &mut raw);

    for (rule, level, line, message) in raw {
        if let Some(allow_line) = allow_covers(&lines, rule, line) {
            report.allows_used.push(AllowUse {
                rule: rule.to_string(),
                file: file.to_path_buf(),
                line: allow_line,
            });
        } else {
            report.findings.push(Finding {
                rule,
                level,
                file: file.to_path_buf(),
                line,
                message,
            });
        }
    }
}

pub(crate) type RawFinding = (&'static str, Level, usize, String);

/// Whether a `pmv::allow(rule)` escape covers a finding on `line`
/// (1-based): same line, or anywhere in the contiguous `//` comment
/// block directly above it (so a multi-line justification can carry the
/// marker on its first line). Returns the escape's line.
pub(crate) fn allow_covers(lines: &[&str], rule: &str, line: usize) -> Option<usize> {
    let needle = format!("pmv::allow({rule})");
    if let Some(text) = lines.get(line.saturating_sub(1)) {
        if text.contains(&needle) {
            return Some(line);
        }
    }
    let mut candidate = line.saturating_sub(1);
    while candidate >= 1 {
        let Some(text) = lines.get(candidate - 1) else {
            break;
        };
        if text.contains(&needle) {
            return Some(candidate);
        }
        // Keep walking only while still inside a comment block.
        if !text.trim_start().starts_with("//") {
            break;
        }
        candidate -= 1;
    }
    None
}

/// Replace comment and string-literal *contents* with spaces, keeping
/// newlines and overall length, so byte offsets and brace depths in the
/// masked text line up with the original.
pub fn mask_comments_and_strings(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let push_masked = |out: &mut Vec<u8>, b: u8| {
        out.push(if b == b'\n' { b'\n' } else { b' ' });
    };
    while i < bytes.len() {
        let b = bytes[i];
        // Line comment.
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                push_masked(&mut out, bytes[i]);
                i += 1;
            }
            continue;
        }
        // Block comment (Rust block comments nest).
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let mut depth = 0usize;
            while i < bytes.len() {
                if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                    depth += 1;
                    push_masked(&mut out, bytes[i]);
                    push_masked(&mut out, bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    depth -= 1;
                    push_masked(&mut out, bytes[i]);
                    push_masked(&mut out, bytes[i + 1]);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    push_masked(&mut out, bytes[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw string r"..." / r#"..."# (and br variants).
        if (b == b'r' || b == b'b') && !prev_is_ident(bytes, i) {
            let mut j = i;
            if bytes[j] == b'b' && j + 1 < bytes.len() && bytes[j + 1] == b'r' {
                j += 1;
            }
            if bytes[j] == b'r' {
                let mut k = j + 1;
                let mut hashes = 0;
                while k < bytes.len() && bytes[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < bytes.len() && bytes[k] == b'"' {
                    // Copy the opener verbatim-masked, then scan to the
                    // matching `"###` closer.
                    for &b in &bytes[i..=k] {
                        push_masked(&mut out, b);
                    }
                    i = k + 1;
                    'raw: while i < bytes.len() {
                        if bytes[i] == b'"' {
                            let mut h = 0;
                            while h < hashes && i + 1 + h < bytes.len() && bytes[i + 1 + h] == b'#'
                            {
                                h += 1;
                            }
                            if h == hashes {
                                for _ in 0..=hashes {
                                    push_masked(&mut out, b'"');
                                    i += 1;
                                }
                                break 'raw;
                            }
                        }
                        push_masked(&mut out, bytes[i]);
                        i += 1;
                    }
                    continue;
                }
            }
        }
        // Normal string literal.
        if b == b'"' {
            push_masked(&mut out, b);
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    push_masked(&mut out, bytes[i]);
                    push_masked(&mut out, bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == b'"' {
                    push_masked(&mut out, bytes[i]);
                    i += 1;
                    break;
                } else {
                    push_masked(&mut out, bytes[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime: 'x' or '\n' is a literal; 'a (no
        // closing quote within the escape window) is a lifetime or loop
        // label. The literal's payload may be '"', '{' or '}', so it
        // must be masked or downstream brace/string lexing derails.
        if b == b'\'' {
            if i + 1 < bytes.len() && bytes[i + 1] == b'\\' {
                // Escaped char literal: '\n', '\'', '\\', '\x7f',
                // '\u{2764}'. The byte AFTER the backslash is consumed
                // as part of the escape pair — without that, '\'' and
                // '\\' mis-lex (the escaped quote/backslash is taken as
                // the closer or an opener) and a stray ' swallows the
                // code that follows.
                out.push(b);
                push_masked(&mut out, bytes[i + 1]);
                i += 2;
                if i < bytes.len() {
                    push_masked(&mut out, bytes[i]);
                    i += 1;
                }
                while i < bytes.len() && bytes[i] != b'\'' {
                    push_masked(&mut out, bytes[i]);
                    i += 1;
                }
                if i < bytes.len() {
                    out.push(b'\'');
                    i += 1;
                }
                continue;
            }
            if i + 2 < bytes.len() && bytes[i + 1] != b'\'' && bytes[i + 2] == b'\'' {
                // Simple char literal 'x' (the payload may be any byte,
                // including '"' / '{' / '}'). A lifetime such as 'a in
                // `Foo<'a>` never has a quote two bytes ahead, so this
                // window test disambiguates the two.
                out.push(b);
                push_masked(&mut out, bytes[i + 1]);
                out.push(b'\'');
                i += 3;
                continue;
            }
            // Lifetime / loop label: fall through as-is.
        }
        out.push(b);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

pub(crate) fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// For each byte offset, the 1-based line number.
pub(crate) fn line_index(text: &str) -> Vec<usize> {
    let mut line = 1;
    text.bytes()
        .map(|b| {
            let l = line;
            if b == b'\n' {
                line += 1;
            }
            l
        })
        .collect()
}

pub(crate) fn find_all(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        out.push(start + pos);
        start += pos + needle.len();
    }
    out
}

/// The statement containing byte `pos`: backwards to the previous `;`,
/// `{` or `}`, forwards to the next `;` or `{`.
pub(crate) fn statement_around(masked: &str, pos: usize) -> (usize, &str) {
    let bytes = masked.as_bytes();
    let mut start = pos;
    while start > 0 && !matches!(bytes[start - 1], b';' | b'{' | b'}') {
        start -= 1;
    }
    let mut end = pos;
    while end < bytes.len() && !matches!(bytes[end], b';' | b'{') {
        end += 1;
    }
    (start, &masked[start..end.min(masked.len())])
}

/// Extract the bound variable of a `let [mut] name = …` statement.
pub(crate) fn let_binding_name(stmt: &str) -> Option<&str> {
    let after_let = stmt.find("let ").map(|p| &stmt[p + 4..])?;
    let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let);
    let end = after_mut
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(after_mut.len());
    let name = &after_mut[..end];
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Byte offset where the scope opened at `from` ends: brace depth from
/// `from` drops below zero, or `drop(var)` releases the guard early.
pub(crate) fn guard_scope_end(masked: &str, from: usize, var: Option<&str>) -> usize {
    let bytes = masked.as_bytes();
    let drop_pat = var.map(|v| format!("drop({v})"));
    let mut depth: i64 = 0;
    let mut i = from;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            _ => {}
        }
        if let Some(p) = &drop_pat {
            if masked[i..].starts_with(p.as_str()) {
                return i;
            }
        }
        i += 1;
    }
    bytes.len()
}

/// Executor entry points a shard guard must not be held across. The
/// targeted-upquery refill (`upquery_fill`) and the fixed-tuple delta
/// join (`join_fixed`) are executor work like any other: a keyed
/// refill still scans base relations under the db read lock.
pub(crate) const EXEC_CALLS: [&str; 8] = [
    "execute(",
    "execute_bounded(",
    "execute_bounded_arc(",
    "execute_scan(",
    "join_from(",
    "join_fixed(",
    "run_plain(",
    "upquery_fill(",
];

/// Shard write-guard bindings: a `let` statement that both mentions
/// `shard` and acquires `.write()`.
pub(crate) fn shard_guard_bindings<'a>(
    masked: &'a str,
    acquire: &str,
) -> impl Iterator<Item = (usize, usize, Option<&'a str>)> + 'a {
    let mut out = Vec::new();
    for pos in find_all(masked, acquire) {
        let (stmt_start, stmt) = statement_around(masked, pos);
        if !stmt.contains("let ") || !stmt.contains("shard") {
            continue;
        }
        let var = let_binding_name(stmt);
        // Guards consumed inside the same expression (e.g.
        // `shard.write().quarantine()` or closure-local `s.read().x()`)
        // are released at the statement's end; only named bindings hold.
        if var.is_none() {
            continue;
        }
        let _ = stmt_start;
        out.push((pos, guard_scope_end(masked, pos + acquire.len(), var), var));
    }
    out.into_iter()
}

fn rule_write_guard_across_exec(masked: &str, line_of: &[usize], out: &mut Vec<RawFinding>) {
    for (pos, scope_end, var) in shard_guard_bindings(masked, ".write()") {
        let span = &masked[pos..scope_end];
        for call in EXEC_CALLS {
            for hit in find_all(span, call) {
                // Require a call, not a definition (`fn execute(`).
                let before = &span[..hit];
                if before.trim_end().ends_with("fn") {
                    continue;
                }
                let at = pos + hit;
                out.push((
                    "write_guard_across_exec",
                    Level::Error,
                    line_of[at],
                    format!(
                        "`{}` called while shard write guard `{}` (line {}) is live — \
                         executor work under a shard X-lock; compute first, lock second",
                        call.trim_end_matches('('),
                        var.unwrap_or("_"),
                        line_of[pos]
                    ),
                ));
            }
        }
    }
}

fn rule_lock_in_catch_unwind(masked: &str, line_of: &[usize], out: &mut Vec<RawFinding>) {
    for pos in find_all(masked, "catch_unwind") {
        // Span: balanced parens of the catch_unwind(...) call.
        let Some(open_rel) = masked[pos..].find('(') else {
            continue;
        };
        let open = pos + open_rel;
        let bytes = masked.as_bytes();
        let mut depth = 0i64;
        let mut end = open;
        for (i, &b) in bytes.iter().enumerate().skip(open) {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i;
                        break;
                    }
                }
                _ => {}
            }
        }
        let span = &masked[open..end];
        for acquire in [".read()", ".write()", ".lock()"] {
            for hit in find_all(span, acquire) {
                let at = open + hit;
                out.push((
                    "lock_in_catch_unwind",
                    Level::Error,
                    line_of[at],
                    format!(
                        "lock acquisition `{acquire}` inside the `catch_unwind` closure \
                         starting on line {} — acquire the guard outside so the quarantine \
                         handler can reach the store after a panic",
                        line_of[pos]
                    ),
                ));
            }
        }
    }
}

fn rule_lock_order(masked: &str, line_of: &[usize], out: &mut Vec<RawFinding>) {
    // DB guard before shard guard, never the reverse: flag DB lock
    // acquisitions while a shard guard binding is live.
    for acquire in [".write()", ".read()"] {
        for (pos, scope_end, var) in shard_guard_bindings(masked, acquire) {
            let span = &masked[pos..scope_end];
            for db_acquire in ["db.read()", "db.write()"] {
                for hit in find_all(span, db_acquire) {
                    // `db` must be a standalone receiver (`db.read()`,
                    // `self.db.read()`), not a suffix of another ident.
                    let at = pos + hit;
                    if at > 0 && prev_is_ident(masked.as_bytes(), at) {
                        continue;
                    }
                    out.push((
                        "lock_order",
                        Level::Error,
                        line_of[at],
                        format!(
                            "`{db_acquire}` while shard guard `{}` (line {}) is live — \
                             lock order is DB guard first, then shard guard, never the \
                             reverse",
                            var.unwrap_or("_"),
                            line_of[pos]
                        ),
                    ));
                }
            }
        }
    }
}

/// Blocking lock acquisitions forbidden inside an epoch-pinned region.
/// `.try_write()` / `.try_read()` deliberately do not match (`_` before
/// `write`): best-effort, non-blocking write-backs are the sanctioned
/// pattern on the pinned path.
pub(crate) const BLOCKING_ACQUIRES: [&str; 3] = [".read()", ".write()", ".lock()"];

fn rule_lock_in_pin_region(masked: &str, line_of: &[usize], out: &mut Vec<RawFinding>) {
    // Region form 1: the scope of a `let pin = ….pin()` binding. The
    // pinned snapshot promises lock-free serving for as long as the
    // query holds it.
    for pos in find_all(masked, ".pin()") {
        let (_, stmt) = statement_around(masked, pos);
        if !stmt.contains("let ") {
            continue;
        }
        let Some(var) = let_binding_name(stmt) else {
            continue;
        };
        let scope_end = guard_scope_end(masked, pos + ".pin()".len(), Some(var));
        flag_blocking(masked, pos, scope_end, line_of, out, &|at_line| {
            format!(
                "blocking lock acquisition while epoch pin `{var}` (line {at_line}) is live — \
                 the pinned serving path must not wait on any lock; use the published \
                 read views / `try_write` write-backs instead"
            )
        });
    }
    // Region form 2: the body of any `fn run_pinned…` — the serving
    // functions (`core::serve`) and the `Inner` probe and write-back
    // methods that run inside them, which must stay wait-free end to end.
    for pos in find_all(masked, "fn run_pinned") {
        let Some(open_rel) = masked[pos..].find('{') else {
            continue;
        };
        let open = pos + open_rel;
        let body_end = guard_scope_end(masked, open + 1, None);
        flag_blocking(masked, open, body_end, line_of, out, &|at_line| {
            format!(
                "blocking lock acquisition inside `run_pinned` (line {at_line}) — the epoch \
                 serving path must not wait on any lock; use the published read views / \
                 `try_write` write-backs instead"
            )
        });
    }
}

fn flag_blocking(
    masked: &str,
    start: usize,
    end: usize,
    line_of: &[usize],
    out: &mut Vec<RawFinding>,
    message: &dyn Fn(usize) -> String,
) {
    let span = &masked[start..end.min(masked.len())];
    for acquire in BLOCKING_ACQUIRES {
        for hit in find_all(span, acquire) {
            let at = start + hit;
            out.push((
                "lock_in_pin_region",
                Level::Error,
                line_of[at],
                message(line_of[start]),
            ));
        }
    }
}

/// Filesystem APIs that mutate durable state. Read-side APIs
/// (`fs::read`, `File::open`, `read_dir`, `metadata`) are deliberately
/// absent — the contract covers *writes*, which must be observable by
/// fault injection.
pub(crate) const FS_WRITE_APIS: [&str; 9] = [
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

/// Crates whose production sources must route durable writes through
/// `pmv_wal::dio`: the commit path (`core`), the heap/index substrate
/// (`storage`), and the durability engine itself (`wal`).
pub(crate) const DURABLE_CRATES: [&str; 3] = ["core", "storage", "wal"];

fn rule_raw_fs_write(file: &Path, masked: &str, line_of: &[usize], out: &mut Vec<RawFinding>) {
    let comps: Vec<String> = file
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let in_scope = comps
        .windows(3)
        .any(|w| w[0] == "crates" && DURABLE_CRATES.contains(&w[1].as_str()) && w[2] == "src");
    if !in_scope {
        return;
    }
    // The one sanctioned module: every write funnels through it so a
    // `FaultPlan` can fail or crash any site the kill-point matrix
    // names.
    if comps
        .windows(3)
        .any(|w| w[0] == "wal" && w[1] == "src" && w[2] == "dio.rs")
    {
        return;
    }
    // Unit tests embedded in src files (scratch dirs, damage helpers)
    // are not production write paths: exempt everything from the first
    // `#[cfg(test)]` on. Masking keeps the attribute visible (it is
    // neither a comment nor a string).
    let test_start = masked.find("#[cfg(test)]").unwrap_or(masked.len());
    for api in FS_WRITE_APIS {
        for pos in find_all(masked, api) {
            if pos >= test_start {
                continue;
            }
            out.push((
                "raw_fs_write",
                Level::Error,
                line_of[pos],
                format!(
                    "raw filesystem write `{}` outside `pmv_wal::dio` — route it through \
                     the dio layer so fault injection and the crash kill-point matrix \
                     cover this write",
                    api.trim_end_matches('('),
                ),
            ));
        }
    }
}

/// Marker phrase a module must carry to use relaxed atomics: it declares
/// the counters are statistics with no synchronization role.
pub const RELAXED_MARKER: &str = "statistics, not synchronization";

fn rule_relaxed_outside_stats(
    file: &Path,
    source: &str,
    masked: &str,
    line_of: &[usize],
    out: &mut Vec<RawFinding>,
) {
    let name = file.file_name().map(|n| n.to_string_lossy().into_owned());
    if name.as_deref() == Some("stats.rs") {
        return;
    }
    // The whole obs crate is a designated statistics module: lock-free
    // histograms, trace ids, and the enabled switch are all counters or
    // flags with no synchronization role (its module docs carry the
    // marker too; the path allowlist keeps that contract even if a new
    // obs file forgets the phrase).
    if file.components().any(|c| c.as_os_str() == "obs") {
        return;
    }
    // The marker must appear in the original text (it lives in doc
    // comments, which masking blanks out).
    if source.contains(RELAXED_MARKER) {
        return;
    }
    for pos in find_all(masked, "Ordering::Relaxed") {
        out.push((
            "relaxed_outside_stats",
            Level::Warning,
            line_of[pos],
            format!(
                "`Ordering::Relaxed` outside a designated statistics module — move the \
                 counter to stats.rs, use Acquire/Release, or document the module with \
                 \"{RELAXED_MARKER}\""
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(src: &str) -> LintReport {
        let mut report = LintReport::default();
        lint_source(Path::new("test.rs"), src, &mut report);
        report
    }

    #[test]
    fn masking_preserves_offsets() {
        let src = "let a = \"x{y}\"; // {brace}\nlet b = 1;\n";
        let masked = mask_comments_and_strings(src);
        assert_eq!(masked.len(), src.len());
        assert!(!masked.contains("{y}"));
        assert!(!masked.contains("{brace}"));
        assert!(masked.contains("let b = 1;"));
    }

    #[test]
    fn flags_write_guard_across_exec() {
        let src = r#"
fn bad(db: &Database) {
    let mut store = self.shards[si].write();
    let (rows, _) = execute(db, &q).unwrap();
    store.insert(rows);
}
"#;
        let report = lint_str(src);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, "write_guard_across_exec");
    }

    #[test]
    fn guard_scope_ends_at_block_or_drop() {
        let src = r#"
fn good(db: &Database) {
    {
        let mut store = self.shards[si].write();
        store.insert(1);
    }
    let (rows, _) = execute(db, &q).unwrap();
    let mut store = self.shards[si].write();
    drop(store);
    let (more, _) = execute_bounded(db, &q, budget).unwrap();
}
"#;
        let report = lint_str(src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn flags_lock_inside_catch_unwind() {
        let src = r#"
fn bad(&self) {
    let r = catch_unwind(AssertUnwindSafe(|| {
        let mut store = self.shards[si].write();
        store.insert(1);
    }));
}
"#;
        let report = lint_str(src);
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "lock_in_catch_unwind"));
    }

    #[test]
    fn guard_outside_catch_unwind_is_clean() {
        let src = r#"
fn good(&self) {
    let mut store = self.shards[si].write();
    let r = catch_unwind(AssertUnwindSafe(|| {
        probe_parts(&mut store, &q);
    }));
    if r.is_err() {
        store.quarantine();
    }
}
"#;
        let report = lint_str(src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn flags_db_lock_under_shard_guard() {
        let src = r#"
fn bad(&self) {
    let store = self.shards[si].read();
    let guard = self.db.read();
}
"#;
        let report = lint_str(src);
        assert!(report.findings.iter().any(|f| f.rule == "lock_order"));
        // Correct order: DB first, then shard.
        let src = r#"
fn good(&self) {
    let guard = self.db.read();
    let store = self.shards[si].read();
}
"#;
        let report = lint_str(src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn flags_relaxed_outside_stats_and_accepts_marker() {
        let src = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";
        let report = lint_str(src);
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "relaxed_outside_stats"));
        let src = format!("//! counters are {RELAXED_MARKER}.\n{src}");
        let report = lint_str(&src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn relaxed_allowed_anywhere_in_obs_crate() {
        let src = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";
        let mut report = LintReport::default();
        lint_source(Path::new("crates/obs/src/hist.rs"), src, &mut report);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        // A directory merely *containing* "obs" in its name is not the
        // obs crate.
        let mut report = LintReport::default();
        lint_source(Path::new("crates/observer/src/x.rs"), src, &mut report);
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "relaxed_outside_stats"));
    }

    #[test]
    fn allow_escape_suppresses_and_is_counted() {
        let src = r#"
fn special(db: &Database) {
    let mut store = self.shards[si].write();
    // pmv::allow(write_guard_across_exec): measured, see DESIGN.md
    let (rows, _) = execute(db, &q).unwrap();
}
"#;
        let report = lint_str(src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.allows_used.len(), 1);
        assert_eq!(report.allows_used[0].rule, "write_guard_across_exec");
    }

    #[test]
    fn flags_blocking_lock_in_pin_scope() {
        let src = r#"
fn bad(&self) {
    let snap = self.published.pin();
    let guard = self.db.read();
}
"#;
        let report = lint_str(src);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == "lock_in_pin_region"),
            "{:?}",
            report.findings
        );
        // Dropping the pin ends the region.
        let src = r#"
fn good(&self) {
    let snap = self.published.pin();
    serve(&snap);
    drop(snap);
    let guard = self.db.read();
}
"#;
        let report = lint_str(src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn flags_blocking_lock_in_run_pinned_but_allows_try_write() {
        let src = r#"
fn run_pinned(&self, view: &V) {
    let sv = inner.views[si].load();
    let Some(mut store) = inner.shards[si].try_write() else {
        return;
    };
    store.touch(&bcp, true);
}
"#;
        let report = lint_str(src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        let src = r#"
fn run_pinned(&self, view: &V) {
    let mut store = inner.shards[si].write();
    store.touch(&bcp, true);
}
"#;
        let report = lint_str(src);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == "lock_in_pin_region"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn flags_raw_fs_write_outside_dio() {
        let src = "fn save(p: &Path) { std::fs::write(p, b\"x\").unwrap(); }\n";
        let mut report = LintReport::default();
        lint_source(Path::new("crates/core/src/epoch.rs"), src, &mut report);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, "raw_fs_write");
        // The dio module is the sanctioned funnel.
        let mut report = LintReport::default();
        lint_source(Path::new("crates/wal/src/dio.rs"), src, &mut report);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        // Crates outside the durable set are unconstrained (the CLI
        // reads scripts, benches write JSON, …).
        let mut report = LintReport::default();
        lint_source(Path::new("crates/cli/src/main.rs"), src, &mut report);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn raw_fs_write_exempts_test_modules_and_reads() {
        let src = "fn load(p: &Path) -> Vec<u8> { std::fs::read(p).unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn scratch(p: &Path) { std::fs::remove_dir_all(p).ok(); }\n\
                   }\n";
        let mut report = LintReport::default();
        lint_source(Path::new("crates/wal/src/lib.rs"), src, &mut report);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        // The same write *above* the test module is a finding.
        let src =
            "fn save(p: &Path) { std::fs::remove_dir_all(p).ok(); }\n#[cfg(test)]\nmod tests {}\n";
        let mut report = LintReport::default();
        lint_source(Path::new("crates/wal/src/lib.rs"), src, &mut report);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    }

    #[test]
    fn string_and_comment_content_is_ignored() {
        let src = r#"
fn good() {
    // let g = shards[0].write(); execute(db, &q);
    let msg = "shards[0].write() then execute(db)";
}
"#;
        let report = lint_str(src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }
}
