//! Lexer, item index and call graph: the first three stages of the
//! analyzer pipeline (DESIGN.md §12).
//!
//! The workspace is fully offline, so there is no `syn`. The lexer
//! ([`mask_comments_and_strings`]) blanks comments and literals so that
//! byte offsets, brace depths and text patterns in the masked text line
//! up with the original; a hand-rolled item parser then walks every
//! `.rs` file under the scan roots, extracts `fn` items and `impl`
//! blocks from the masked text, attributes call sites to their innermost
//! enclosing function, and resolves them to candidate definitions by
//! name. [`crate::summaries`] and [`crate::contracts`] read the result.
//!
//! ## Approximations (documented in DESIGN.md §12)
//!
//! - **No trait-object or generic dispatch.** A method call `x.m(…)`
//!   resolves only when exactly one function named `m` exists in the
//!   workspace; trait methods with several impls produce no edge.
//! - **Closures are attributed to the enclosing fn.** A call inside a
//!   closure body is an edge from the function that syntactically
//!   contains it (sound for the region rules: the guard/pin scopes that
//!   matter are lexical too).
//! - **`Drop` impls are invisible.** Nothing models the implicit call
//!   at scope exit (e.g. `TraceScope::drop` publishing into a mutexed
//!   ring); such paths are reviewed by hand and documented.
//! - **Function references are not edges.** Only `name(…)` call syntax
//!   is recognized; `iter.map(helper)` produces nothing.
//! - **Lock/pin method names are patterns, not calls.** `.read()`,
//!   `.write()`, `.lock()`, `.pin()` and their `try_` forms are what
//!   the rules *detect*; resolving them as calls would alias every
//!   `RwLock` acquisition to unrelated workspace functions.
//! - **Test code cannot be a callee of production code.** Candidates in
//!   test files (or below `#[cfg(test)]`) are dropped when the caller
//!   is production code.
//! - **Fixture trees are not workspace code.** A directory named
//!   `corpus` is not descended into (like `target/`): the analyzer's own
//!   violating fixtures are scanned only as roots of their own.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Crates whose production sources must route durable writes through
/// `pmv_wal::dio`: the commit path (`core`), the heap/index substrate
/// (`storage`), and the durability engine itself (`wal`).
const DURABLE_CRATES: [&str; 3] = ["core", "storage", "wal"];

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
pub(crate) fn statement_around(masked: &str, pos: usize) -> &str {
    let bytes = masked.as_bytes();
    let mut start = pos;
    while start > 0 && !matches!(bytes[start - 1], b';' | b'{' | b'}') {
        start -= 1;
    }
    let mut end = pos;
    while end < bytes.len() && !matches!(bytes[end], b';' | b'{') {
        end += 1;
    }
    &masked[start..end.min(masked.len())]
}

/// Where a `// <marker>…` comment attaches to `line` (1-based): on the
/// same line, or anywhere in the contiguous `//` comment block directly
/// above it (so a multi-line justification can carry the marker on its
/// first line). The comment must *begin* with the marker — prose that
/// merely mentions one declares nothing. Read from the *unmasked*
/// source lines; returns the marker's line. The one placement rule for
/// `pmv::allow(rule)` escapes and `pmv::pin_region` declarations.
pub(crate) fn comment_marker(lines: &[&str], marker: &str, line: usize) -> Option<usize> {
    let begins_with_marker = |text: &str| {
        text.find("//").is_some_and(|p| {
            let comment = text[p..].trim_start_matches(['/', '!']);
            comment.trim_start().starts_with(marker)
        })
    };
    let mut candidate = line;
    while let Some(text) = lines.get(candidate.wrapping_sub(1)) {
        if begins_with_marker(text) {
            return Some(candidate);
        }
        // Above `line` itself, keep walking only while still inside a
        // comment block.
        if candidate < line && !text.trim_start().starts_with("//") {
            break;
        }
        candidate -= 1;
    }
    None
}

/// One scanned file with its masked text and derived classifications.
pub struct FileIndex {
    /// Path as given by the scan (joined scan root + relative path).
    pub path: PathBuf,
    /// Original text (escape-hatch comments live here).
    pub source: String,
    /// Comment/string-masked text all offsets refer to.
    pub masked: String,
    /// Byte offset → 1-based line number.
    pub line_of: Vec<usize>,
    /// Offset of the first `#[cfg(test)]`, or `masked.len()`.
    pub test_start: usize,
    /// Whether the file lies under a `tests/`, `benches/` or
    /// `examples/` directory *relative to its scan root* — fixture
    /// trees scanned from their own root are production code.
    pub is_test_file: bool,
    /// Whether the file is production source of a durable crate
    /// (`crates/{core,storage,wal}/src`).
    pub in_durable_src: bool,
    /// Whether the file is the sanctioned `wal/src/dio.rs` funnel.
    pub is_dio: bool,
    /// Crate directory name (component after the last `crates/`), used
    /// for qualified-path resolution.
    pub crate_dir: Option<String>,
    /// File stem (`dio` for `dio.rs`), used for module-qualified calls.
    pub stem: String,
    /// This file's slice of [`Workspace::calls`], in offset order.
    pub calls: Range<usize>,
}

/// One `fn` item.
pub struct FnDef {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type name, when inside an impl block.
    pub impl_of: Option<String>,
    /// Byte offset of the `fn` keyword in the masked text.
    pub start: usize,
    /// Body span `(open_brace, close_brace)`; `None` for declarations
    /// (trait methods without default bodies).
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Test code: below `#[cfg(test)]` or in a test file.
    pub is_test: bool,
    /// Declared wait-free: a `// pmv::pin_region` comment sits directly
    /// above the `fn` (`comment_marker` placement). The body is a pin
    /// region of `pin_reaches_blocking_lock`.
    pub pin_region: bool,
}

/// One recognized call site, attributed to its enclosing function.
pub struct Call {
    /// Caller function id.
    pub caller: usize,
    /// File the call appears in (same as the caller's file).
    pub file: usize,
    /// Byte offset of the callee identifier in the masked text.
    pub offset: usize,
    /// Callee identifier.
    pub name: String,
    /// Resolved candidate definitions (empty when unresolvable).
    pub targets: Vec<usize>,
}

/// The parsed workspace: files, functions, and the resolved call graph.
pub struct Workspace {
    pub files: Vec<FileIndex>,
    pub fns: Vec<FnDef>,
    pub calls: Vec<Call>,
    /// fn id → call ids made from its body, in source order.
    pub fn_calls: Vec<Vec<usize>>,
}

/// Keywords, intrinsic attribute names, and common `std` method names
/// that must never resolve to workspace functions. The std entries are
/// the collision-prone prelude surface: a workspace `fn push` on a
/// mutex-guarded ring must not become the target of every `vec.push(…)`
/// in the tree.
const NEVER_CALLEES: &[&str] = &[
    // keywords and reserved words
    "if",
    "else",
    "while",
    "for",
    "loop",
    "match",
    "return",
    "let",
    "in",
    "as",
    "move",
    "ref",
    "mut",
    "impl",
    "pub",
    "use",
    "mod",
    "where",
    "unsafe",
    "async",
    "await",
    "dyn",
    "crate",
    "super",
    "self",
    "break",
    "continue",
    "const",
    "static",
    "struct",
    "enum",
    "trait",
    "type",
    "extern",
    "true",
    "false",
    "fn",
    // attribute vocabulary (attributes survive masking)
    "cfg",
    "derive",
    "inline",
    "allow",
    "deny",
    "warn",
    "expect",
    "cfg_attr",
    "test",
    "ignore",
    "doc",
    "must_use",
    "repr",
    "non_exhaustive",
    "track_caller",
    "cold",
    "feature",
    "clippy",
    "rustfmt",
    "path",
    "any",
    "all",
    "not",
    // lock/pin acquisition patterns — detected by rules, never edges
    "read",
    "write",
    "lock",
    "try_read",
    "try_write",
    "try_lock",
    "pin",
    "upgrade",
    "downgrade",
    // collision-prone std prelude methods
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "take",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "drain",
    "clear",
    "extend",
    "entry",
    "keys",
    "values",
    "sort",
    "sort_unstable",
    "sort_by",
    "retain",
    "dedup",
    "last",
    "first",
    "map",
    "filter",
    "fold",
    "for_each",
    "find",
    "position",
    "count",
    "rev",
    "zip",
    "chain",
    "skip",
    "peek",
    "next",
    "nth",
    "then",
    "clone",
    "drop",
    "default",
    "fmt",
    "from",
    "into",
    "to_string",
    "to_owned",
    "to_vec",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "and_then",
    "or_else",
    "flatten",
    "swap",
    "replace",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "deref",
    "deref_mut",
    "borrow",
    "borrow_mut",
    "join",
    "split",
    "starts_with",
    "ends_with",
    "contains",
    "contains_key",
    "trim",
    "parse",
    "min",
    "max",
    "abs",
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "compare_exchange",
    "send",
    "recv",
    "spawn",
    "sleep",
    "now",
    "elapsed",
    "with",
    "set",
    "new",
];

/// Upper bound on the candidate set a single call may fan out to;
/// anything wider is treated as unresolvable noise.
const MAX_TARGETS: usize = 8;

/// Every `.rs` file under `dir`, skipping `target/`, `corpus/` (analyzer
/// fixtures) and dot-directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "corpus" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

impl Workspace {
    /// Parse every `.rs` file under the scan roots (each a file or a
    /// directory) and resolve the call graph.
    pub fn scan(roots: &[PathBuf]) -> io::Result<Workspace> {
        let mut file_paths: Vec<(PathBuf, PathBuf)> = Vec::new(); // (root, path)
        for root in roots {
            if root.is_file() {
                file_paths.push((root.clone(), root.clone()));
            } else {
                let mut under = Vec::new();
                collect_rs_files(root, &mut under)?;
                for p in under {
                    file_paths.push((root.clone(), p));
                }
            }
        }
        file_paths.sort_by(|a, b| a.1.cmp(&b.1));
        file_paths.dedup_by(|a, b| a.1 == b.1);

        let mut ws = Workspace {
            files: Vec::new(),
            fns: Vec::new(),
            calls: Vec::new(),
            fn_calls: Vec::new(),
        };
        for (root, path) in file_paths {
            let source = fs::read_to_string(&path)?;
            ws.add_file(&root, &path, source);
        }
        ws.resolve();
        Ok(ws)
    }

    fn add_file(&mut self, root: &Path, path: &Path, source: String) {
        let masked = mask_comments_and_strings(&source);
        let line_of = line_index(&masked);
        let lines: Vec<&str> = source.lines().collect();
        let comps: Vec<String> = path
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        let rel: Vec<String> = path
            .strip_prefix(root)
            .map(|r| {
                r.components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        let is_test_file = rel
            .iter()
            .any(|c| c == "tests" || c == "benches" || c == "examples");
        let in_durable_src = comps
            .windows(3)
            .any(|w| w[0] == "crates" && DURABLE_CRATES.contains(&w[1].as_str()) && w[2] == "src");
        let is_dio = comps
            .windows(3)
            .any(|w| w[0] == "wal" && w[1] == "src" && w[2] == "dio.rs");
        let crate_dir = comps
            .windows(2)
            .rfind(|w| w[0] == "crates")
            .map(|w| w[1].clone());
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let test_start = masked.find("#[cfg(test)]").unwrap_or(masked.len());

        let file_id = self.files.len();
        let impls = parse_impls(&masked);
        let fn_base = self.fns.len();
        parse_fns(&masked, |start, name, body| {
            let impl_of = impls
                .iter()
                .filter(|(open, close, _)| (*open..=*close).contains(&start))
                .min_by_key(|(open, close, _)| close - open)
                .map(|(_, _, ty)| ty.clone());
            let line = line_of[start];
            self.fns.push(FnDef {
                file: file_id,
                name: name.to_string(),
                impl_of,
                start,
                body,
                line,
                is_test: is_test_file || start >= test_start,
                pin_region: comment_marker(&lines, "pmv::pin_region", line).is_some(),
            });
        });
        self.fn_calls.resize(self.fns.len(), Vec::new());

        // Innermost-enclosing-fn lookup: bodies nest properly, so the
        // containing fn with the greatest body start is the innermost.
        let local: Vec<usize> = (fn_base..self.fns.len()).collect();
        let enclosing = |offset: usize| -> Option<usize> {
            local
                .iter()
                .copied()
                .filter(|&id| {
                    self.fns[id]
                        .body
                        .is_some_and(|(open, close)| (open..=close).contains(&offset))
                })
                .max_by_key(|&id| self.fns[id].body.unwrap().0)
        };
        let call_base = self.calls.len();
        for (offset, name) in extract_call_idents(&masked) {
            let Some(caller) = enclosing(offset) else {
                continue;
            };
            let call_id = self.calls.len();
            self.calls.push(Call {
                caller,
                file: file_id,
                offset,
                name,
                targets: Vec::new(),
            });
            self.fn_calls[caller].push(call_id);
        }

        self.files.push(FileIndex {
            path: path.to_path_buf(),
            source,
            masked,
            line_of,
            test_start,
            is_test_file,
            in_durable_src,
            is_dio,
            crate_dir,
            stem,
            calls: call_base..self.calls.len(),
        });
    }

    /// Resolve every call site to candidate definitions.
    fn resolve(&mut self) {
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (id, f) in self.fns.iter().enumerate() {
            if f.body.is_some() {
                by_name.entry(&f.name).or_default().push(id);
            }
        }
        let mut resolved: Vec<Vec<usize>> = Vec::with_capacity(self.calls.len());
        for call in &self.calls {
            resolved.push(self.resolve_call(call, &by_name));
        }
        for (call, targets) in self.calls.iter_mut().zip(resolved) {
            call.targets = targets;
        }
    }

    fn resolve_call(&self, call: &Call, by_name: &HashMap<&str, Vec<usize>>) -> Vec<usize> {
        let Some(all) = by_name.get(call.name.as_str()) else {
            return Vec::new();
        };
        let caller = &self.fns[call.caller];
        // Production code cannot call test code; dropping test-file
        // candidates for production callers keeps corpus fixtures from
        // aliasing real definitions during whole-repo scans.
        let visible: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&id| caller.is_test || !self.fns[id].is_test)
            .collect();
        if visible.is_empty() {
            return Vec::new();
        }
        let masked = &self.files[call.file].masked;
        let bytes = masked.as_bytes();
        let before = &bytes[..call.offset];
        let qualifier = if before.ends_with(b"::") {
            let q_end = call.offset - 2;
            let mut q_start = q_end;
            while q_start > 0
                && (bytes[q_start - 1].is_ascii_alphanumeric() || bytes[q_start - 1] == b'_')
            {
                q_start -= 1;
            }
            (q_start < q_end).then(|| masked[q_start..q_end].to_string())
        } else {
            None
        };
        let dotted = before.last() == Some(&b'.');

        let cap = |v: Vec<usize>| if v.len() > MAX_TARGETS { Vec::new() } else { v };
        if let Some(mut q) = qualifier {
            if q == "Self" {
                match &caller.impl_of {
                    Some(ty) => q = ty.clone(),
                    None => return Vec::new(),
                }
            }
            // `Type::name` — impl match first, then module-file match
            // (`dio::write_all` → wal/src/dio.rs), then crate match
            // (`pmv_faultinject::fire_soft` → crates/faultinject).
            let by_impl: Vec<usize> = visible
                .iter()
                .copied()
                .filter(|&id| self.fns[id].impl_of.as_deref() == Some(q.as_str()))
                .collect();
            if !by_impl.is_empty() {
                return cap(by_impl);
            }
            let by_stem: Vec<usize> = visible
                .iter()
                .copied()
                .filter(|&id| self.files[self.fns[id].file].stem == q)
                .collect();
            if !by_stem.is_empty() {
                return cap(by_stem);
            }
            let crate_name = q.strip_prefix("pmv_").unwrap_or(&q).replace('_', "-");
            let by_crate: Vec<usize> = visible
                .iter()
                .copied()
                .filter(|&id| {
                    self.fns[id].impl_of.is_none()
                        && self.files[self.fns[id].file]
                            .crate_dir
                            .as_deref()
                            .is_some_and(|c| c == crate_name || c == q)
                })
                .collect();
            if !by_crate.is_empty() {
                return cap(by_crate);
            }
            return if visible.len() == 1 {
                visible
            } else {
                Vec::new()
            };
        }
        if dotted || before.ends_with(b">::") {
            // Method call (or qualified path we cannot read): resolve
            // only on a workspace-unique name.
            return if visible.len() == 1 {
                visible
            } else {
                Vec::new()
            };
        }
        // Free call: same file, then same crate, then any free fn.
        let free: Vec<usize> = visible
            .iter()
            .copied()
            .filter(|&id| self.fns[id].impl_of.is_none())
            .collect();
        let pool = if free.is_empty() { &visible } else { &free };
        let same_file: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&id| self.fns[id].file == call.file)
            .collect();
        if !same_file.is_empty() {
            return cap(same_file);
        }
        let caller_crate = self.files[caller.file].crate_dir.as_deref();
        let same_crate: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&id| self.files[self.fns[id].file].crate_dir.as_deref() == caller_crate)
            .collect();
        if !same_crate.is_empty() {
            return cap(same_crate);
        }
        if free.is_empty() && visible.len() > 1 {
            return Vec::new();
        }
        cap(pool.clone())
    }

    /// Calls at offsets `[start, end)` of a file, in source order.
    pub fn calls_in(&self, file: usize, start: usize, end: usize) -> impl Iterator<Item = &Call> {
        self.calls[self.files[file].calls.clone()]
            .iter()
            .filter(move |c| (start..end).contains(&c.offset))
    }

    /// 1-based line of a byte offset in a file.
    pub fn line_at(&self, file: usize, offset: usize) -> usize {
        let lo = &self.files[file].line_of;
        lo.get(offset).copied().unwrap_or(lo.len().max(1))
    }

    /// Display name for a function (`Type::name` or `name`).
    pub fn fn_name(&self, id: usize) -> String {
        let f = &self.fns[id];
        match &f.impl_of {
            Some(ty) => format!("{ty}::{}", f.name),
            None => f.name.clone(),
        }
    }
}

/// Byte offset of the `}` or `)` closing the `{` or `(` at `open` (or
/// text end).
pub(crate) fn matching_close(masked: &str, open: usize) -> usize {
    let bytes = masked.as_bytes();
    let (opener, closer) = match bytes[open] {
        b'(' => (b'(', b')'),
        _ => (b'{', b'}'),
    };
    let mut depth = 0i64;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == opener {
            depth += 1;
        } else if b == closer {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    bytes.len()
}

/// Parse `impl [Trait for] Type` blocks: `(body_open, body_close,
/// type_name)`.
fn parse_impls(masked: &str) -> Vec<(usize, usize, String)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for pos in find_all(masked, "impl") {
        if prev_is_ident(bytes, pos) {
            continue;
        }
        let after = pos + 4;
        if after >= bytes.len() || !(bytes[after] == b' ' || bytes[after] == b'<') {
            continue;
        }
        // Type-position `impl` (`-> impl Iterator`, `x: impl Fn()`,
        // `+ impl …`) is not an item: item impls follow `;`, `}`, `{`,
        // an attribute `]`, or nothing.
        let prev = masked[..pos].trim_end().as_bytes().last().copied();
        if matches!(
            prev,
            Some(b'>' | b'+' | b'(' | b',' | b':' | b'&' | b'=' | b'<' | b'|')
        ) {
            continue;
        }
        // Scan to the opening `{` at angle-depth 0 (skipping `->`). A
        // paren outside generics means this is a bound like `impl
        // Fn(u32)`, not an item header.
        let mut i = after;
        let mut angle = 0i64;
        let mut open = None;
        while i < bytes.len() && i < pos + 600 {
            match bytes[i] {
                b'<' => angle += 1,
                b'>' if i > 0 && bytes[i - 1] != b'-' => angle -= 1,
                b'(' | b')' if angle == 0 => break,
                b'{' if angle == 0 => {
                    open = Some(i);
                    break;
                }
                b';' if angle == 0 => break,
                _ => {}
            }
            i += 1;
        }
        let Some(open) = open else { continue };
        let header = &masked[after..open];
        let ty_part = match header.rfind(" for ") {
            Some(p) => &header[p + 5..],
            None => {
                // Skip the generic parameter list, if any.
                let mut h = header;
                if h.trim_start().starts_with('<') {
                    let lt = h.find('<').unwrap();
                    let mut depth = 0i64;
                    let mut end = h.len();
                    for (j, b) in h.bytes().enumerate().skip(lt) {
                        match b {
                            b'<' => depth += 1,
                            b'>' => {
                                depth -= 1;
                                if depth == 0 {
                                    end = j + 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    h = &h[end..];
                }
                h
            }
        };
        let Some(name) = last_path_segment(ty_part) else {
            continue;
        };
        out.push((open, matching_close(masked, open), name));
    }
    out
}

/// Final identifier of a (possibly referenced / generic) type path:
/// `&'a mut foo::Bar<T>` → `Bar`.
fn last_path_segment(ty: &str) -> Option<String> {
    let ty = ty.trim();
    let mut best = None;
    let bytes = ty.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'<' {
            break;
        }
        if (bytes[i].is_ascii_alphabetic() || bytes[i] == b'_') && !prev_is_ident(bytes, i) {
            let mut j = i;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            let word = &ty[i..j];
            if !matches!(word, "mut" | "dyn" | "for") {
                best = Some(word.to_string());
            }
            i = j;
        } else {
            i += 1;
        }
    }
    best
}

/// Parse `fn` items, invoking `sink(start, name, body_span)` for each.
fn parse_fns(masked: &str, mut sink: impl FnMut(usize, &str, Option<(usize, usize)>)) {
    let bytes = masked.as_bytes();
    for pos in find_all(masked, "fn ") {
        if prev_is_ident(bytes, pos) {
            continue;
        }
        let mut i = pos + 3;
        while i < bytes.len() && bytes[i] == b' ' {
            i += 1;
        }
        let name_start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if i == name_start {
            continue; // `fn` in a type position (`fn(` pointer), etc.
        }
        let name = &masked[name_start..i];
        // Signature scan: the body `{` (or declaration `;`) at
        // paren/angle/bracket depth 0. `->` is skipped so return-type
        // arrows do not unbalance the angle count.
        let mut paren = 0i64;
        let mut angle = 0i64;
        let mut bracket = 0i64;
        let mut body = None;
        let mut found = false;
        while i < bytes.len() && i < name_start + 4000 {
            match bytes[i] {
                b'(' => paren += 1,
                b')' => paren -= 1,
                b'[' => bracket += 1,
                b']' => bracket -= 1,
                b'<' => angle += 1,
                b'>' if bytes[i - 1] != b'-' => angle -= 1,
                b'{' if paren == 0 && bracket == 0 && angle <= 0 => {
                    body = Some((i, matching_close(masked, i)));
                    found = true;
                }
                b';' if paren == 0 && bracket == 0 => {
                    found = true;
                }
                _ => {}
            }
            if found {
                break;
            }
            i += 1;
        }
        if found {
            sink(pos, name, body);
        }
    }
}

/// Yield `(offset, name)` for every identifier immediately followed by
/// `(` that plausibly names a workspace function call.
fn extract_call_idents(masked: &str) -> Vec<(usize, String)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if !(b.is_ascii_alphabetic() || b == b'_') || prev_is_ident(bytes, i) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'(' {
            continue;
        }
        let name = &masked[start..i];
        if name.len() <= 2
            || name.as_bytes()[0].is_ascii_uppercase()
            || NEVER_CALLEES.contains(&name)
        {
            continue;
        }
        // A definition, not a call: `fn name(`.
        if masked[..start].trim_end().ends_with("fn") {
            continue;
        }
        // A macro: `name!(` never reaches here (the `!` breaks the
        // ident+paren adjacency), but `name !(` with a space would —
        // rustfmt never emits that, so no special case is needed.
        out.push((start, name.to_string()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_from(src: &str) -> Workspace {
        let mut ws = Workspace {
            files: Vec::new(),
            fns: Vec::new(),
            calls: Vec::new(),
            fn_calls: Vec::new(),
        };
        ws.add_file(Path::new("root"), Path::new("root/a.rs"), src.to_string());
        ws.resolve();
        ws
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
    fn parses_fns_impls_and_resolves_free_calls() {
        let src = r#"
struct T;
impl T {
    fn method(&self) {
        helper(1);
    }
}
fn helper(x: u32) -> u32 { x }
fn decl_only();
"#;
        let ws = ws_from(src);
        let names: Vec<&str> = ws.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["method", "helper", "decl_only"]);
        assert_eq!(ws.fns[0].impl_of.as_deref(), Some("T"));
        assert!(ws.fns[2].body.is_none());
        let call = &ws.calls[0];
        assert_eq!(call.name, "helper");
        assert_eq!(ws.fn_calls[0], vec![0]);
        assert_eq!(call.targets, vec![1]);
    }

    #[test]
    fn qualified_and_method_resolution() {
        let src = r#"
struct A;
struct B;
impl A { fn make() -> A { A } fn only_here(&self) {} }
impl B { fn make() -> B { B } }
fn use_them(a: &A) {
    let x = A::make();
    let y = B::make();
    a.only_here();
    a.make_unknowable();
}
"#;
        let ws = ws_from(src);
        let by_name = |n: &str| {
            ws.calls
                .iter()
                .find(|c| c.name == n)
                .unwrap()
                .targets
                .clone()
        };
        let a_make = ws.fns.iter().position(|f| f.name == "make").unwrap();
        assert_eq!(by_name("make"), vec![a_make], "A::make resolves by impl");
        let only = ws.fns.iter().position(|f| f.name == "only_here").unwrap();
        assert_eq!(by_name("only_here"), vec![only], "unique method resolves");
        assert!(by_name("make_unknowable").is_empty());
    }

    #[test]
    fn lock_patterns_and_std_methods_are_not_edges() {
        let src = r#"
fn trap(&self) { self.inner.lock(); }
fn caller(v: &mut Vec<u32>, m: &M) {
    v.push(1);
    m.read();
}
"#;
        let ws = ws_from(src);
        assert!(ws.calls.is_empty(), "{:?}", ws.calls.len());
    }

    #[test]
    fn closures_attribute_to_enclosing_fn() {
        let src = r#"
fn outer() {
    let c = move || inner_call();
    c();
}
fn inner_call() {}
"#;
        let ws = ws_from(src);
        assert_eq!(ws.calls.len(), 1);
        assert_eq!(ws.fns[ws.calls[0].caller].name, "outer");
    }
}
