//! Failure model: per-view circuit breaker and degradation semantics.
//!
//! The PMV's value proposition is answering in microseconds from the
//! cache even when the full query (O3) is slow — which makes the serving
//! path *least* allowed to fail exactly when the underlying executor is
//! misbehaving. This module gives every view an explicit health state
//! machine instead of letting errors surface as panics or poisoned locks:
//!
//! ```text
//!            error rate ≥ degrade        error rate ≥ quarantine
//!  Healthy ───────────────────▶ Degraded ──────────────────────▶ Quarantined
//!     ▲ ◀──────────────────────────┘                                  │
//!     │        rate recovers                                          │
//!     └──────────────────────── revalidate (reset) ◀──────────────────┘
//! ```
//!
//! * **Healthy** — serve partials, fill the cache, business as usual.
//! * **Degraded** — still serving, but the windowed error rate crossed
//!   the degrade threshold; operators should look. Recovers on its own
//!   when the rate falls back under the threshold.
//! * **Quarantined** — the error rate crossed the quarantine threshold
//!   (or a shard was drained after a panic). **No partial results are
//!   ever served from a quarantined view** and nothing is cached; queries
//!   still get full, correct answers straight from O3. Quarantine is
//!   sticky: only an explicit [`CircuitBreaker::reset`] — issued by the
//!   `revalidate` repair path once the cache is known-consistent again —
//!   returns the view to Healthy.
//!
//! The breaker is driven by per-query success/failure events recorded
//! with relaxed atomics; it is statistics, not synchronization, so a
//! racy read deciding one query's state a moment late is acceptable —
//! except for the quarantine bit, which only ever rises until reset, so
//! "never serve from Quarantined" holds under any interleaving.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Health of one view (or one shard group) as seen by the breaker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViewHealth {
    /// Normal operation.
    Healthy,
    /// Elevated error rate; serving continues, flagged.
    Degraded,
    /// Serving from the cache is disabled until revalidation.
    Quarantined,
}

impl ViewHealth {
    /// Stable lowercase name (CLI / report output).
    pub fn as_str(&self) -> &'static str {
        match self {
            ViewHealth::Healthy => "healthy",
            ViewHealth::Degraded => "degraded",
            ViewHealth::Quarantined => "quarantined",
        }
    }
}

impl std::fmt::Display for ViewHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning for the [`CircuitBreaker`].
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Rolling window length in events; once reached, counts are halved
    /// so old history decays instead of pinning the rate forever.
    pub window: u64,
    /// Windowed error fraction at which Healthy trips to Degraded.
    pub degrade_threshold: f64,
    /// Windowed error fraction at which the view trips to Quarantined.
    pub quarantine_threshold: f64,
    /// Minimum events before any trip decision (avoids quarantining a
    /// fresh view on its first hiccup).
    pub min_events: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 64,
            degrade_threshold: 0.1,
            quarantine_threshold: 0.5,
            min_events: 8,
        }
    }
}

const STATE_HEALTHY: u8 = 0;
const STATE_DEGRADED: u8 = 1;
const STATE_QUARANTINED: u8 = 2;

/// Error-rate-driven state machine guarding one view's serving path.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: AtomicU8,
    events: AtomicU64,
    errors: AtomicU64,
    /// Times the breaker entered Quarantined.
    trips: AtomicU64,
}

impl CircuitBreaker {
    /// Fresh breaker in the Healthy state.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: AtomicU8::new(STATE_HEALTHY),
            events: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            trips: AtomicU64::new(0),
        }
    }

    /// Current state.
    pub fn state(&self) -> ViewHealth {
        match self.state.load(Ordering::Relaxed) {
            STATE_HEALTHY => ViewHealth::Healthy,
            STATE_DEGRADED => ViewHealth::Degraded,
            _ => ViewHealth::Quarantined,
        }
    }

    /// May the cache serve partial results right now? `false` iff
    /// Quarantined.
    pub fn allow_serve(&self) -> bool {
        self.state.load(Ordering::Relaxed) != STATE_QUARANTINED
    }

    /// Windowed error fraction (diagnostic).
    pub fn error_rate(&self) -> f64 {
        let events = self.events.load(Ordering::Relaxed);
        if events == 0 {
            0.0
        } else {
            self.errors.load(Ordering::Relaxed) as f64 / events as f64
        }
    }

    /// Times the breaker has entered Quarantined.
    pub fn trip_count(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Record a successful query.
    pub fn record_ok(&self) {
        self.record(true);
    }

    /// Record a failed/degraded query.
    pub fn record_error(&self) {
        self.record(false);
    }

    /// Jump straight to Quarantined (e.g. a shard was drained after a
    /// panic and the cached working set is gone).
    pub fn force_quarantine(&self) {
        if self.state.swap(STATE_QUARANTINED, Ordering::Relaxed) != STATE_QUARANTINED {
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Return to Healthy with cleared counters. Only the revalidation
    /// path may call this — it is the one operation that re-establishes
    /// cache consistency.
    pub fn reset(&self) {
        self.events.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        self.state.store(STATE_HEALTHY, Ordering::Relaxed);
    }

    fn record(&self, ok: bool) {
        let events = self.events.fetch_add(1, Ordering::Relaxed) + 1;
        let errors = if ok {
            self.errors.load(Ordering::Relaxed)
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed) + 1
        };
        if events >= self.config.min_events {
            let rate = errors as f64 / events as f64;
            if rate >= self.config.quarantine_threshold {
                self.force_quarantine();
            } else if rate >= self.config.degrade_threshold {
                // Only Healthy → Degraded; never lowers Quarantined.
                let _ = self.state.compare_exchange(
                    STATE_HEALTHY,
                    STATE_DEGRADED,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            } else {
                // Rate recovered; Degraded heals, Quarantined stays.
                let _ = self.state.compare_exchange(
                    STATE_DEGRADED,
                    STATE_HEALTHY,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
        }
        // Decay: halving keeps the rate a rolling estimate.
        if events >= self.config.window {
            self.events.store(events / 2, Ordering::Relaxed);
            self.errors.store(errors / 2, Ordering::Relaxed);
        }
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new(BreakerConfig::default())
    }
}

/// Why a query outcome is flagged degraded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// O3 ran past its wall-clock deadline.
    Deadline,
    /// O3 hit its tuple-examination cap.
    TupleBudget,
    /// The executor panicked mid-O3 (caught; no lock poisoned).
    ExecPanic,
    /// The executor returned a transient error.
    ExecError,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DegradeReason::Deadline => "deadline",
            DegradeReason::TupleBudget => "tuple-budget",
            DegradeReason::ExecPanic => "exec-panic",
            DegradeReason::ExecError => "exec-error",
        };
        f.write_str(s)
    }
}

/// Attached to a [`crate::pipeline::QueryOutcome`] whose `remaining` half
/// is missing: O3 did not complete, so the caller got only the cached
/// partial results (which are always a sub-multiset of the true answer —
/// sound, but possibly incomplete).
#[derive(Clone, Copy, Debug)]
pub struct Degradation {
    /// What cut O3 short.
    pub reason: DegradeReason,
    /// Upper bound on how stale the served partials may be: time since
    /// the view last completed maintenance or revalidation. Under
    /// `EpochDb::commit`'s maintain-before-publish this is an upper
    /// bound, not an observed staleness.
    pub staleness: Duration,
}

/// When a view last completed maintenance or revalidation: the one source
/// of the staleness bound a degraded answer declares
/// ([`Degradation::staleness`]) and of the health reports' "last
/// verified" age, for single-owner and sharded views alike.
pub(crate) struct VerifiedClock {
    created: Instant,
    /// Milliseconds after `created` of the last verification.
    verified_ms: AtomicU64,
}

impl VerifiedClock {
    pub(crate) fn new() -> Self {
        VerifiedClock {
            created: Instant::now(),
            verified_ms: AtomicU64::new(0),
        }
    }

    /// Upper bound on how stale served partials can be: time since the
    /// last completed maintenance/revalidation.
    pub(crate) fn staleness(&self) -> Duration {
        // Acquire pairs with the Release in `mark`: a reader that
        // observed post-maintenance store state also observes the
        // timestamp, keeping the reported bound tight.
        let verified = Duration::from_millis(self.verified_ms.load(Ordering::Acquire));
        self.created.elapsed().saturating_sub(verified)
    }

    /// Record that maintenance or revalidation just completed.
    pub(crate) fn mark(&self) {
        self.verified_ms
            .store(self.created.elapsed().as_millis() as u64, Ordering::Release);
    }
}

/// One shard's (or store's) invariant-check result.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index (0 for an unsharded store).
    pub shard: usize,
    /// Whether the shard is currently quarantined (drained).
    pub quarantined: bool,
    /// Invariant violations found; empty means consistent.
    pub violations: Vec<String>,
}

/// Typed result of a non-panicking consistency check across a view.
#[derive(Clone, Debug, Default)]
pub struct ValidationReport {
    /// Per-shard findings.
    pub shards: Vec<ShardReport>,
}

impl ValidationReport {
    /// True when no shard reported a violation.
    pub fn is_consistent(&self) -> bool {
        self.shards.iter().all(|s| s.violations.is_empty())
    }

    /// Total violations across shards.
    pub fn violation_count(&self) -> usize {
        self.shards.iter().map(|s| s.violations.len()).sum()
    }

    /// Shards currently quarantined.
    pub fn quarantined_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.quarantined).count()
    }
}

impl std::fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_consistent() {
            write!(
                f,
                "consistent ({} shards, {} quarantined)",
                self.shards.len(),
                self.quarantined_shards()
            )
        } else {
            writeln!(f, "{} violation(s):", self.violation_count())?;
            for s in &self.shards {
                for v in &s.violations {
                    writeln!(f, "  shard {}: {}", s.shard, v)?;
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_until_min_events() {
        let b = CircuitBreaker::new(BreakerConfig {
            min_events: 8,
            ..Default::default()
        });
        for _ in 0..7 {
            b.record_error();
        }
        assert_eq!(b.state(), ViewHealth::Healthy, "below min_events");
        b.record_error();
        assert_eq!(b.state(), ViewHealth::Quarantined);
        assert_eq!(b.trip_count(), 1);
    }

    #[test]
    fn degraded_heals_on_recovery() {
        let b = CircuitBreaker::new(BreakerConfig {
            window: 16,
            degrade_threshold: 0.2,
            quarantine_threshold: 0.9,
            min_events: 4,
        });
        for _ in 0..3 {
            b.record_ok();
        }
        b.record_error();
        assert_eq!(b.state(), ViewHealth::Degraded); // 1/4 ≥ 0.2
        for _ in 0..20 {
            b.record_ok();
        }
        assert_eq!(b.state(), ViewHealth::Healthy);
    }

    #[test]
    fn quarantine_is_sticky_until_reset() {
        let b = CircuitBreaker::default();
        b.force_quarantine();
        assert!(!b.allow_serve());
        for _ in 0..1000 {
            b.record_ok();
        }
        assert_eq!(
            b.state(),
            ViewHealth::Quarantined,
            "ok events never lift it"
        );
        assert!(!b.allow_serve());
        b.reset();
        assert_eq!(b.state(), ViewHealth::Healthy);
        assert!(b.allow_serve());
        assert_eq!(b.error_rate(), 0.0);
    }

    #[test]
    fn window_decay_halves_counts() {
        let b = CircuitBreaker::new(BreakerConfig {
            window: 8,
            degrade_threshold: 2.0, // never trip in this test
            quarantine_threshold: 2.0,
            min_events: 1,
        });
        for _ in 0..8 {
            b.record_error();
        }
        // Counts halved at the window boundary: rate still 1.0.
        assert!((b.error_rate() - 1.0).abs() < 1e-9);
        for _ in 0..4 {
            b.record_ok();
        }
        assert!(b.error_rate() < 1.0);
    }

    #[test]
    fn report_formats() {
        let mut r = ValidationReport::default();
        r.shards.push(ShardReport {
            shard: 0,
            quarantined: false,
            violations: vec![],
        });
        assert!(r.is_consistent());
        assert!(r.to_string().contains("consistent"));
        r.shards.push(ShardReport {
            shard: 1,
            quarantined: true,
            violations: vec!["entry over F".into()],
        });
        assert!(!r.is_consistent());
        assert_eq!(r.violation_count(), 1);
        assert_eq!(r.quarantined_shards(), 1);
        assert!(r.to_string().contains("shard 1"));
    }
}
