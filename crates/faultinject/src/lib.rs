//! # pmv-faultinject — deterministic fault injection
//!
//! The PMV's value proposition is answering from the cache even when the
//! full query path is slow or broken, so the serving path has to be
//! exercised *under* failure, not just under load. This crate provides
//! that failure model: a seeded [`FaultPlan`] of [`FaultRule`]s, each
//! binding a [`Site`] (a named point in storage, index, query execution,
//! or the sharded PMV's critical sections) to a [`FaultKind`]
//! (error/latency/panic) at a given rate.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** Whether invocation *n* of a site fires is a pure
//!    function of `(seed, site, n)` — a counter-indexed hash, not a
//!    shared-state RNG — so an 8-thread stress run injects the same
//!    multiset of faults for a given seed regardless of interleaving,
//!    and a failing seed replays.
//! 2. **Free when off.** `fire` is one relaxed atomic load when no plan
//!    is installed, so the hooks can sit on per-tuple paths. All atomics
//!    in this crate are monotonically-increasing counters — they are
//!    statistics, not synchronization — so `Ordering::Relaxed` is sound
//!    throughout (no reader derives a happens-before edge from them;
//!    `pmv-analyze`'s `relaxed_outside_stats` contract keys off the
//!    phrase in this paragraph).
//! 3. **Suppressible.** Test oracles need to compute ground truth on the
//!    same thread the faults target; [`suppress`] disables injection for
//!    the duration of a closure on the current thread.
//! 4. **Observable.** A delivered fault must be visible to telemetry,
//!    not just to the code path it broke: [`capture`] opens a
//!    thread-local scope that records every [`FiredFault`] delivered on
//!    the current thread. Faults are recorded *before* they act (sleep,
//!    error return, panic), so a panic contained by `catch_unwind`
//!    further up the same thread still leaves its record behind.
//!
//! Faults are injected *globally* (process-wide) via [`install`], because
//! the interesting failures cross thread boundaries: a panic injected in
//! one query thread must not poison state observed by another.
//!
//! ```
//! use pmv_faultinject::{fire, install, FaultKind, FaultPlan, Site};
//! use std::sync::Arc;
//!
//! let plan = Arc::new(FaultPlan::new(42).with_rule(Site::MaintJoin, FaultKind::Error, 1.0));
//! let _guard = install(Arc::clone(&plan));
//! assert!(fire(Site::MaintJoin).is_err());
//! assert!(fire(Site::ExecRow).is_ok()); // no rule at this site
//! ```

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A named injection point. Each site is a place in the real code where
/// [`fire`] (or [`fire_soft`]) is called.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// `pmv_storage::HeapRelation::get` — every tuple fetch. Soft site:
    /// latency/panic only (the read path has no `Result` to carry an
    /// injected error).
    StorageRead,
    /// Secondary-index probe (`AnyIndex::get`). Soft site.
    IndexProbe,
    /// Entry of the index-nested-loop executor (one per query/join).
    ExecStart,
    /// Each tuple examined by the executor. Latency here makes O3 slow
    /// enough to trip deadlines; errors abort the execution.
    ExecRow,
    /// The `ΔR ⋈ R_j` maintenance join (`join_from`).
    MaintJoin,
    /// A targeted per-bcp upquery refill (`upquery_fill`) — the bounded
    /// keyed O3 re-execution that repairs one bcp's slice after a miss
    /// or a drained shard.
    Upquery,
    /// Inside a shard's O2 probe critical section. Soft site.
    ShardProbe,
    /// Inside a shard's O3 fill critical section. Soft site.
    ShardFill,
    /// Inside a shard's maintenance removal critical section. Soft site.
    ShardMaint,
    /// `Dio::append` — the WAL record write (before the bytes reach the
    /// file). Disk site: supports `Io`/`TornWrite`/`CrashPoint`.
    WalAppend,
    /// `Dio::fsync` on the WAL file — the durability point of a commit.
    WalFsync,
    /// WAL segment deletion behind a checkpoint (`Dio::remove`).
    WalTruncate,
    /// Checkpoint temp-file write (`Dio::write_all` during serialization).
    CkptWrite,
    /// The checkpoint's atomic rename (`Dio::rename`).
    CkptRename,
    /// Flight-recorder spool dump write (`DiskSpool` in `pmv-wal`).
    /// Disk site: a failed dump is dropped, never surfaced to the
    /// serving path.
    SpoolWrite,
}

/// All sites, for iteration and per-site counters.
pub const ALL_SITES: [Site; 15] = [
    Site::StorageRead,
    Site::IndexProbe,
    Site::ExecStart,
    Site::ExecRow,
    Site::MaintJoin,
    Site::Upquery,
    Site::ShardProbe,
    Site::ShardFill,
    Site::ShardMaint,
    Site::WalAppend,
    Site::WalFsync,
    Site::WalTruncate,
    Site::CkptWrite,
    Site::CkptRename,
    Site::SpoolWrite,
];

impl Site {
    fn index(self) -> usize {
        match self {
            Site::StorageRead => 0,
            Site::IndexProbe => 1,
            Site::ExecStart => 2,
            Site::ExecRow => 3,
            Site::MaintJoin => 4,
            Site::Upquery => 5,
            Site::ShardProbe => 6,
            Site::ShardFill => 7,
            Site::ShardMaint => 8,
            Site::WalAppend => 9,
            Site::WalFsync => 10,
            Site::WalTruncate => 11,
            Site::CkptWrite => 12,
            Site::CkptRename => 13,
            Site::SpoolWrite => 14,
        }
    }

    /// Stable name, used by the plan parser and in error messages. Disk
    /// sites use dotted names (`wal.append`) to mark the layer boundary;
    /// in-memory sites keep their dashed PR-2 names.
    pub fn as_str(self) -> &'static str {
        match self {
            Site::StorageRead => "storage-read",
            Site::IndexProbe => "index-probe",
            Site::ExecStart => "exec-start",
            Site::ExecRow => "exec-row",
            Site::MaintJoin => "maint-join",
            Site::Upquery => "upquery",
            Site::ShardProbe => "shard-probe",
            Site::ShardFill => "shard-fill",
            Site::ShardMaint => "shard-maint",
            Site::WalAppend => "wal.append",
            Site::WalFsync => "wal.fsync",
            Site::WalTruncate => "wal.truncate",
            Site::CkptWrite => "ckpt.write",
            Site::CkptRename => "ckpt.rename",
            Site::SpoolWrite => "spool.write",
        }
    }

    /// Parse a site name as printed by [`Site::as_str`].
    pub fn parse(s: &str) -> Option<Site> {
        ALL_SITES.iter().copied().find(|site| site.as_str() == s)
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What an injected fault does at its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Return an [`InjectedFault`] error (ignored at soft sites).
    Error,
    /// Panic with a recognizable message; the serving path must contain
    /// the unwind.
    Panic,
    /// Sleep for the given duration (simulates a slow disk/lock/join).
    Latency(Duration),
    /// Disk sites: the operation fails with an I/O error after doing
    /// nothing (ENOSPC/EIO model). At non-disk `Result` sites it behaves
    /// like [`FaultKind::Error`].
    Io,
    /// Disk sites: the write persists only a prefix of the buffer, then
    /// fails — the torn-tail case WAL recovery must truncate. Elsewhere
    /// it degrades to [`FaultKind::Error`].
    TornWrite,
    /// Simulated `kill -9`: panic with [`CRASH_PREFIX`] so a crash
    /// harness can catch the unwind, drop all in-memory state, and
    /// reopen from the surviving files.
    CrashPoint,
}

/// One (site, kind, trigger) binding in a plan: either probabilistic
/// (`rate` per invocation) or one-shot (`nth` pins the exact invocation
/// index, for kill-point placement).
#[derive(Clone, Copy, Debug)]
pub struct FaultRule {
    /// Where to inject.
    pub site: Site,
    /// What to inject.
    pub kind: FaultKind,
    /// Probability per invocation, in `[0, 1]`. Ignored when `nth` is
    /// set.
    pub rate: f64,
    /// Fire exactly on the `nth` invocation (0-based) of the site and
    /// never again — deterministic kill-point placement.
    pub nth: Option<u64>,
}

/// The error value carried out of a fault-injected `Result` path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// Site that fired.
    pub site: Site,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// Message prefix of every injected panic, so harnesses can tell injected
/// panics from genuine bugs when inspecting a caught payload.
pub const PANIC_PREFIX: &str = "pmv-faultinject: injected panic";

/// Message prefix of a [`FaultKind::CrashPoint`] unwind — a *simulated
/// process kill*, distinct from [`PANIC_PREFIX`] so the serving path's
/// panic containment can let it through while a crash harness catches
/// it at the top.
pub const CRASH_PREFIX: &str = "pmv-faultinject: injected crash";

/// The injected I/O failure surfaced by disk sites, convertible into a
/// real `std::io::Error` by the [`Dio`] layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// Whole-operation failure: nothing was written.
    Io,
    /// Partial write: a prefix of the buffer reached the file, then the
    /// operation failed.
    Torn,
}

/// Counts of faults actually delivered, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Errors returned (including injected I/O and torn-write errors).
    pub errors: u64,
    /// Panics raised.
    pub panics: u64,
    /// Latency injections applied.
    pub latencies: u64,
    /// Crash points hit.
    pub crashes: u64,
}

/// A seeded, deterministic fault plan.
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    /// Per-site invocation counters (the `n` in `(seed, site, n)`).
    invocations: [AtomicU64; ALL_SITES.len()],
    errors: AtomicU64,
    panics: AtomicU64,
    latencies: AtomicU64,
    crashes: AtomicU64,
}

impl FaultPlan {
    /// Empty plan (no rules fire) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            invocations: Default::default(),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            latencies: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
        }
    }

    /// Add a probabilistic rule (builder style).
    pub fn with_rule(mut self, site: Site, kind: FaultKind, rate: f64) -> Self {
        self.rules.push(FaultRule {
            site,
            kind,
            rate: rate.clamp(0.0, 1.0),
            nth: None,
        });
        self
    }

    /// Add a one-shot rule firing exactly on invocation `nth` (0-based)
    /// of `site` — the kill-point placement primitive for the crash
    /// matrix.
    pub fn with_rule_at(mut self, site: Site, kind: FaultKind, nth: u64) -> Self {
        self.rules.push(FaultRule {
            site,
            kind,
            rate: 0.0,
            nth: Some(nth),
        });
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rules.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Faults delivered so far.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            latencies: self.latencies.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
        }
    }

    /// Total site invocations observed (diagnostics).
    pub fn invocations(&self, site: Site) -> u64 {
        self.invocations[site.index()].load(Ordering::Relaxed)
    }

    /// Decide the fault (if any) for the next invocation of `site`.
    /// Consumes one invocation index; at most one rule fires per
    /// invocation. One-shot (`nth`) rules take precedence on their exact
    /// invocation; probabilistic rules at the same site stack their
    /// rates.
    fn decide(&self, site: Site) -> Option<FaultKind> {
        if self.rules.iter().all(|r| r.site != site) {
            return None;
        }
        let n = self.invocations[site.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(rule) = self
            .rules
            .iter()
            .find(|r| r.site == site && r.nth == Some(n))
        {
            return Some(rule.kind);
        }
        let h = splitmix64(
            self.seed
                .wrapping_add((site.index() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(n.wrapping_mul(0xbf58_476d_1ce4_e5b9)),
        );
        // Uniform in [0, 1).
        let mut x = (h >> 11) as f64 / (1u64 << 53) as f64;
        for rule in self
            .rules
            .iter()
            .filter(|r| r.site == site && r.nth.is_none())
        {
            if x < rule.rate {
                return Some(rule.kind);
            }
            x -= rule.rate;
        }
        None
    }

    /// Parse a plan spec, the `--fault-plan` argument format:
    ///
    /// ```text
    /// seed=42;exec-row:latency=2ms@0.01;maint-join:error@0.2;wal.fsync:crash#3
    /// ```
    ///
    /// Semicolon-separated items; `seed=N` sets the seed (default 0);
    /// every other item is `<site>:<kind>[=<duration>]` followed by
    /// either `@<rate>` (probabilistic) or `#<n>` (one-shot: fire
    /// exactly on the 0-based `n`th invocation of the site). Kinds:
    /// `error`, `panic`, `latency=<N>ms|us`, and the disk-layer
    /// `io`, `torn`, `crash`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for item in spec.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            if let Some(v) = item.strip_prefix("seed=") {
                seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
                continue;
            }
            let (site_s, rest) = item
                .split_once(':')
                .ok_or_else(|| format!("bad rule '{item}' (want <site>:<kind>@<rate>)"))?;
            let site = Site::parse(site_s).ok_or_else(|| {
                format!(
                    "unknown site '{site_s}' (known: {})",
                    ALL_SITES.map(Site::as_str).join(", ")
                )
            })?;
            let (kind_s, trigger) = if let Some((k, n)) = rest.split_once('#') {
                (k, Trigger::Nth(n))
            } else if let Some((k, r)) = rest.split_once('@') {
                (k, Trigger::Rate(r))
            } else {
                return Err(format!("bad rule '{item}' (missing @<rate> or #<n>)"));
            };
            let kind = match kind_s {
                "error" => FaultKind::Error,
                "panic" => FaultKind::Panic,
                "io" => FaultKind::Io,
                "torn" => FaultKind::TornWrite,
                "crash" => FaultKind::CrashPoint,
                other => match other.strip_prefix("latency=") {
                    Some(d) => FaultKind::Latency(parse_duration(d)?),
                    None => return Err(format!("unknown fault kind '{kind_s}'")),
                },
            };
            let rule = match trigger {
                Trigger::Rate(rate_s) => {
                    let rate: f64 = rate_s.parse().map_err(|_| format!("bad rate '{rate_s}'"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("rate {rate} outside [0, 1]"));
                    }
                    FaultRule {
                        site,
                        kind,
                        rate,
                        nth: None,
                    }
                }
                Trigger::Nth(n_s) => {
                    let n: u64 = n_s
                        .parse()
                        .map_err(|_| format!("bad invocation index '{n_s}'"))?;
                    FaultRule {
                        site,
                        kind,
                        rate: 0.0,
                        nth: Some(n),
                    }
                }
            };
            rules.push(rule);
        }
        let mut plan = FaultPlan::new(seed);
        plan.rules = rules;
        Ok(plan)
    }
}

/// How a parsed rule triggers: probabilistically or on one exact
/// invocation.
enum Trigger<'a> {
    Rate(&'a str),
    Nth(&'a str),
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    if let Some(ms) = s.strip_suffix("ms") {
        let n: u64 = ms.parse().map_err(|_| format!("bad duration '{s}'"))?;
        Ok(Duration::from_millis(n))
    } else if let Some(us) = s.strip_suffix("us") {
        let n: u64 = us.parse().map_err(|_| format!("bad duration '{s}'"))?;
        Ok(Duration::from_micros(n))
    } else {
        Err(format!("bad duration '{s}' (want <N>ms or <N>us)"))
    }
}

/// SplitMix64 finalizer: a well-mixed pure function of its input.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fast-path flag: true while a plan is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

thread_local! {
    static SUPPRESSED: Cell<u32> = const { Cell::new(0) };
}

/// Uninstalls the plan when dropped, so a panicking test cannot leak
/// faults into the rest of the process.
pub struct InstallGuard(());

impl Drop for InstallGuard {
    fn drop(&mut self) {
        uninstall();
    }
}

/// Install `plan` process-wide, replacing any previous plan. Injection
/// stays active until the returned guard drops (or [`uninstall`] is
/// called).
pub fn install(plan: Arc<FaultPlan>) -> InstallGuard {
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    ACTIVE.store(true, Ordering::SeqCst);
    InstallGuard(())
}

/// Remove the installed plan; [`fire`] becomes a no-op again.
pub fn uninstall() {
    ACTIVE.store(false, Ordering::SeqCst);
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Whether a plan is currently installed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Run `f` with injection disabled on this thread — for test oracles that
/// must compute ground truth through the same (instrumented) code paths.
pub fn suppress<T>(f: impl FnOnce() -> T) -> T {
    SUPPRESSED.with(|s| s.set(s.get() + 1));
    // Balance the counter even if `f` unwinds.
    struct Unsuppress;
    impl Drop for Unsuppress {
        fn drop(&mut self) {
            SUPPRESSED.with(|s| s.set(s.get() - 1));
        }
    }
    let _guard = Unsuppress;
    f()
}

/// A fault actually delivered on the current thread, as observed by a
/// [`capture`] scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FiredFault {
    /// Site that fired.
    pub site: Site,
    /// What was delivered.
    pub kind: FaultKind,
}

impl FiredFault {
    /// Render the kind for trace/log output: `"error"`, `"panic"`, or
    /// `"latency:<N>us"`.
    pub fn kind_str(&self) -> String {
        match self.kind {
            FaultKind::Error => "error".to_string(),
            FaultKind::Panic => "panic".to_string(),
            FaultKind::Latency(d) => format!("latency:{}us", d.as_micros()),
            FaultKind::Io => "io".to_string(),
            FaultKind::TornWrite => "torn".to_string(),
            FaultKind::CrashPoint => "crash".to_string(),
        }
    }
}

thread_local! {
    static CAPTURE: RefCell<Option<Vec<FiredFault>>> = const { RefCell::new(None) };
}

/// Open a capture scope on the current thread: every fault delivered
/// until [`CaptureGuard::finish`] is recorded. Scopes nest — an inner
/// scope shadows the outer one, which resumes when the inner finishes
/// (or drops on an unwind).
pub fn capture() -> CaptureGuard {
    let prev = CAPTURE.with(|c| c.borrow_mut().replace(Vec::new()));
    CaptureGuard {
        prev,
        finished: false,
    }
}

/// Live capture scope; restores the previous scope (if any) when
/// finished or dropped.
pub struct CaptureGuard {
    prev: Option<Vec<FiredFault>>,
    finished: bool,
}

impl CaptureGuard {
    /// Close the scope and return the faults delivered on this thread
    /// since [`capture`], in delivery order.
    pub fn finish(mut self) -> Vec<FiredFault> {
        self.finished = true;
        let fired = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
        CAPTURE.with(|c| *c.borrow_mut() = self.prev.take());
        fired
    }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        if !self.finished {
            CAPTURE.with(|c| *c.borrow_mut() = self.prev.take());
        }
    }
}

/// Record a delivered fault into the current thread's capture scope (if
/// one is open). Called *before* the fault acts so the record survives
/// injected panics contained further up the stack.
fn record_fired(site: Site, kind: FaultKind) {
    CAPTURE.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.push(FiredFault { site, kind });
        }
    });
}

/// Evaluate the installed plan at `site`: may sleep (latency), panic, or
/// return an [`InjectedFault`] error. Free (one relaxed load) when no
/// plan is installed or the thread is [`suppress`]ed.
pub fn fire(site: Site) -> Result<(), InjectedFault> {
    match fire_disk(site) {
        Ok(()) => Ok(()),
        Err(_) => Err(InjectedFault { site }),
    }
}

/// [`fire`] for the disk layer: distinguishes whole-operation I/O
/// failures from torn (prefix-persisted) writes so `Dio` can model
/// both. `Error`/`Io` rules surface as [`DiskFault::Io`], `TornWrite`
/// as [`DiskFault::Torn`]; `CrashPoint` panics with [`CRASH_PREFIX`]
/// (the simulated kill), `Panic` with [`PANIC_PREFIX`]. Free (one
/// relaxed load) when no plan is installed or the thread is
/// [`suppress`]ed.
pub fn fire_disk(site: Site) -> Result<(), DiskFault> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    if SUPPRESSED.with(Cell::get) > 0 {
        return Ok(());
    }
    let plan = PLAN.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let Some(plan) = plan else { return Ok(()) };
    match plan.decide(site) {
        None => Ok(()),
        Some(kind @ FaultKind::Latency(d)) => {
            plan.latencies.fetch_add(1, Ordering::Relaxed);
            record_fired(site, kind);
            std::thread::sleep(d);
            Ok(())
        }
        Some(kind @ (FaultKind::Error | FaultKind::Io)) => {
            plan.errors.fetch_add(1, Ordering::Relaxed);
            record_fired(site, kind);
            Err(DiskFault::Io)
        }
        Some(kind @ FaultKind::TornWrite) => {
            plan.errors.fetch_add(1, Ordering::Relaxed);
            record_fired(site, kind);
            Err(DiskFault::Torn)
        }
        Some(kind @ FaultKind::Panic) => {
            plan.panics.fetch_add(1, Ordering::Relaxed);
            record_fired(site, kind);
            panic!("{PANIC_PREFIX} at {site}");
        }
        Some(kind @ FaultKind::CrashPoint) => {
            plan.crashes.fetch_add(1, Ordering::Relaxed);
            record_fired(site, kind);
            panic!("{CRASH_PREFIX} at {site}");
        }
    }
}

/// [`fire`] for sites without a `Result` to carry an error: latency and
/// panic rules apply; an error rule at a soft site is counted but has no
/// effect.
pub fn fire_soft(site: Site) {
    let _ = fire(site);
}

/// Whether a caught panic payload is one of ours (vs a genuine bug) —
/// covers both ordinary injected panics and simulated crashes.
pub fn is_injected_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload_has_prefix(payload, PANIC_PREFIX) || payload_has_prefix(payload, CRASH_PREFIX)
}

/// Whether a caught panic payload is a simulated process kill
/// ([`FaultKind::CrashPoint`]); a crash harness catches these at the
/// top, drops in-memory state, and reopens from disk.
pub fn is_crash_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload_has_prefix(payload, CRASH_PREFIX)
}

fn payload_has_prefix(payload: &(dyn std::any::Any + Send), prefix: &str) -> bool {
    payload
        .downcast_ref::<String>()
        .is_some_and(|s| s.starts_with(prefix))
        || payload
            .downcast_ref::<&str>()
            .is_some_and(|s| s.starts_with(prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this module share the global plan slot; serialize them.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn inactive_plan_fires_nothing() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        assert!(fire(Site::ExecStart).is_ok());
        assert!(!active());
    }

    #[test]
    fn rates_are_deterministic_per_seed() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let counts = |seed: u64| {
            let plan =
                Arc::new(FaultPlan::new(seed).with_rule(Site::MaintJoin, FaultKind::Error, 0.3));
            let _g = install(Arc::clone(&plan));
            let mut fired = Vec::new();
            for i in 0..1000 {
                if fire(Site::MaintJoin).is_err() {
                    fired.push(i);
                }
            }
            fired
        };
        let a = counts(7);
        let b = counts(7);
        let c = counts(8);
        assert_eq!(a, b, "same seed must fire identically");
        assert_ne!(a, c, "different seeds must differ");
        // Rate roughly honored.
        assert!(a.len() > 200 && a.len() < 400, "got {}", a.len());
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan = Arc::new(
            FaultPlan::new(1)
                .with_rule(Site::ExecStart, FaultKind::Error, 1.0)
                .with_rule(Site::ExecRow, FaultKind::Error, 0.0),
        );
        let _g = install(Arc::clone(&plan));
        for _ in 0..50 {
            assert!(fire(Site::ExecStart).is_err());
            assert!(fire(Site::ExecRow).is_ok());
        }
        assert_eq!(plan.counts().errors, 50);
    }

    #[test]
    fn suppress_disables_injection_on_this_thread() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan = Arc::new(FaultPlan::new(1).with_rule(Site::ExecStart, FaultKind::Error, 1.0));
        let _g = install(plan);
        assert!(fire(Site::ExecStart).is_err());
        suppress(|| assert!(fire(Site::ExecStart).is_ok()));
        assert!(fire(Site::ExecStart).is_err());
    }

    #[test]
    fn injected_panic_is_recognizable() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan = Arc::new(FaultPlan::new(1).with_rule(Site::ShardFill, FaultKind::Panic, 1.0));
        let _g = install(Arc::clone(&plan));
        let caught =
            std::panic::catch_unwind(|| fire_soft(Site::ShardFill)).expect_err("must panic");
        assert!(is_injected_panic(caught.as_ref()));
        assert_eq!(plan.counts().panics, 1);
    }

    #[test]
    fn guard_uninstalls_on_drop() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        {
            let _g = install(Arc::new(FaultPlan::new(1).with_rule(
                Site::ExecStart,
                FaultKind::Error,
                1.0,
            )));
            assert!(active());
        }
        assert!(!active());
        assert!(fire(Site::ExecStart).is_ok());
    }

    #[test]
    fn latency_rule_sleeps() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan = Arc::new(FaultPlan::new(1).with_rule(
            Site::StorageRead,
            FaultKind::Latency(Duration::from_millis(5)),
            1.0,
        ));
        let _g = install(Arc::clone(&plan));
        let t0 = std::time::Instant::now();
        fire_soft(Site::StorageRead);
        assert!(t0.elapsed() >= Duration::from_millis(4));
        assert_eq!(plan.counts().latencies, 1);
    }

    #[test]
    fn parse_round_trips_the_readme_example() {
        let plan = FaultPlan::parse(
            "seed=42; exec-row:latency=2ms@0.01; maint-join:error@0.2; exec-start:panic@0.1",
        )
        .unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.rules().len(), 3);
        assert_eq!(plan.rules()[0].site, Site::ExecRow);
        assert_eq!(
            plan.rules()[0].kind,
            FaultKind::Latency(Duration::from_millis(2))
        );
        assert_eq!(plan.rules()[1].kind, FaultKind::Error);
        assert!((plan.rules()[2].rate - 0.1).abs() < 1e-12);
        assert!(FaultPlan::parse("nosite:error@0.5").is_err());
        assert!(FaultPlan::parse("exec-row:error@1.5").is_err());
        assert!(FaultPlan::parse("exec-row:latency=2s@0.5").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
    }

    #[test]
    fn capture_records_delivered_faults_including_contained_panics() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan = Arc::new(
            FaultPlan::new(1)
                .with_rule(
                    Site::ExecRow,
                    FaultKind::Latency(Duration::from_micros(50)),
                    1.0,
                )
                .with_rule(Site::MaintJoin, FaultKind::Error, 1.0)
                .with_rule(Site::ShardFill, FaultKind::Panic, 1.0),
        );
        let _g = install(plan);

        let cap = capture();
        fire_soft(Site::ExecRow); // latency: recorded before the sleep
        assert!(fire(Site::MaintJoin).is_err());
        // Panic contained on the same thread still leaves its record.
        let caught = std::panic::catch_unwind(|| fire_soft(Site::ShardFill));
        assert!(caught.is_err());
        fire_soft(Site::IndexProbe); // no rule: not recorded
        let fired = cap.finish();

        assert_eq!(fired.len(), 3);
        assert_eq!(fired[0].site, Site::ExecRow);
        assert_eq!(fired[0].kind_str(), "latency:50us");
        assert_eq!(fired[1].kind, FaultKind::Error);
        assert_eq!(fired[2].site, Site::ShardFill);
        assert_eq!(fired[2].kind_str(), "panic");
    }

    #[test]
    fn capture_scopes_nest_and_restore() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan = Arc::new(FaultPlan::new(1).with_rule(Site::ExecStart, FaultKind::Error, 1.0));
        let _g = install(plan);

        let outer = capture();
        let _ = fire(Site::ExecStart);
        {
            let inner = capture();
            let _ = fire(Site::ExecStart);
            assert_eq!(inner.finish().len(), 1, "inner sees only its own");
        }
        let _ = fire(Site::ExecStart);
        assert_eq!(
            outer.finish().len(),
            2,
            "outer resumes after inner, missing inner's faults"
        );

        // No scope open: delivery is not recorded anywhere (and finish on
        // a fresh scope returns empty).
        let _ = fire(Site::ExecStart);
        assert!(capture().finish().is_empty());
    }

    #[test]
    fn stacked_rules_share_the_draw() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // error@0.5 + latency@0.5 → every invocation fires exactly one.
        let plan = Arc::new(
            FaultPlan::new(3)
                .with_rule(Site::MaintJoin, FaultKind::Error, 0.5)
                .with_rule(Site::MaintJoin, FaultKind::Latency(Duration::ZERO), 0.5),
        );
        let _g = install(Arc::clone(&plan));
        for _ in 0..200 {
            let _ = fire(Site::MaintJoin);
        }
        let c = plan.counts();
        assert_eq!(c.errors + c.latencies, 200);
        assert!(c.errors > 50 && c.latencies > 50);
    }

    #[test]
    fn one_shot_rule_fires_exactly_once_at_nth() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan = Arc::new(FaultPlan::new(0).with_rule_at(Site::WalFsync, FaultKind::Io, 3));
        let _g = install(Arc::clone(&plan));
        let fired: Vec<usize> = (0..10)
            .filter(|_| fire_disk(Site::WalFsync).is_err())
            .collect();
        assert_eq!(plan.counts().errors, 1);
        assert_eq!(fired.len(), 1);
        // Invocations 0..=2 pass, 3 fails, 4.. pass again.
        assert_eq!(plan.invocations(Site::WalFsync), 10);
    }

    #[test]
    fn disk_kinds_distinguish_io_from_torn() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan = Arc::new(
            FaultPlan::new(0)
                .with_rule_at(Site::WalAppend, FaultKind::TornWrite, 0)
                .with_rule_at(Site::CkptWrite, FaultKind::Io, 0),
        );
        let _g = install(plan);
        assert_eq!(fire_disk(Site::WalAppend), Err(DiskFault::Torn));
        assert_eq!(fire_disk(Site::CkptWrite), Err(DiskFault::Io));
        assert_eq!(fire_disk(Site::WalAppend), Ok(()));
    }

    #[test]
    fn crash_point_panics_with_crash_prefix() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan =
            Arc::new(FaultPlan::new(0).with_rule_at(Site::CkptRename, FaultKind::CrashPoint, 0));
        let _g = install(Arc::clone(&plan));
        let caught = std::panic::catch_unwind(|| {
            let _ = fire_disk(Site::CkptRename);
        })
        .expect_err("crash point must unwind");
        assert!(is_crash_panic(caught.as_ref()));
        assert!(is_injected_panic(caught.as_ref()), "crash is also injected");
        assert_eq!(plan.counts().crashes, 1);
        // An ordinary injected panic is not a crash.
        let plan2 = Arc::new(FaultPlan::new(0).with_rule(Site::ShardFill, FaultKind::Panic, 1.0));
        let _g2 = install(plan2);
        let caught =
            std::panic::catch_unwind(|| fire_soft(Site::ShardFill)).expect_err("must panic");
        assert!(!is_crash_panic(caught.as_ref()));
    }

    #[test]
    fn parse_supports_disk_sites_and_one_shot_triggers() {
        let plan = FaultPlan::parse(
            "seed=9; wal.append:torn#2; wal.fsync:crash#0; ckpt.write:io@0.5; ckpt.rename:crash#1",
        )
        .unwrap();
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.rules().len(), 4);
        assert_eq!(plan.rules()[0].site, Site::WalAppend);
        assert_eq!(plan.rules()[0].kind, FaultKind::TornWrite);
        assert_eq!(plan.rules()[0].nth, Some(2));
        assert_eq!(plan.rules()[1].site, Site::WalFsync);
        assert_eq!(plan.rules()[1].kind, FaultKind::CrashPoint);
        assert_eq!(plan.rules()[2].kind, FaultKind::Io);
        assert_eq!(plan.rules()[2].nth, None);
        assert!(FaultPlan::parse("wal.fsync:crash#x").is_err());
        assert!(FaultPlan::parse("wal.fsync:crash").is_err());
        let up = FaultPlan::parse("upquery:error@0.5").unwrap();
        assert_eq!(up.rules()[0].site, Site::Upquery);
    }
}
