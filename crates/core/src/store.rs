//! The PMV store: bcp-keyed entries of at most `F` result tuples, bounded
//! to `L` entries, managed by a pluggable replacement policy
//! (Sections 3.2 and 3.5) behind one admission rule.
//!
//! The rule ([`pmv_cache::admit_if_warmer`]): once the policy is full, a
//! bcp that is not resident displaces the victim the policy names only
//! if the store's [`FrequencySketch`] counts it more often; otherwise it
//! is declined — no entry, no fill, no completeness claim. The sketch
//! counts each access of a bcp that has rows, once per query
//! (`PmvStore::note_access`). It is policy metadata, 8 B per frame
//! of capacity, and like the policy's frames it is not charged to
//! [`PmvStore::byte_size`].
//!
//! The store is the moral equivalent of the paper's Figure 4: a table of
//! `(bcp, tuples)` entries with a hash index `I` on bcp (bcp probes are
//! exact-match, so a hash index needs no ordering).
//!
//! A view's store holds each tuple in the view's
//! [`crate::view::StoredLayout`] — only the `Ls'` values its entry cannot
//! derive — packed into one [`PackedRow`]. The store itself never looks
//! inside a tuple — it holds, charges and compares what it is given — and
//! its delta-key index reads the derived positions from each tuple's bcp.
//! [`PmvStore::new`] with [`DeltaKeyIndex::new`] holds full rows.
//!
//! [`PmvStore::byte_size`] is exact under one rule: a bcp key is charged
//! `size_of::<BcpKey>()` plus its dimensions, a cached tuple
//! `size_of::<PackedRow>()` (16 B) plus its packed bytes. T1's tuples
//! store five integers and two empty strings: 16 + 5 × 9 + 2 × 2 = 65 B.
//!
//! A [`crate::concurrent::SharedPmv`] holds one store per shard and
//! publishes an immutable copy of what each serves. So that a publish
//! costs O(changes) instead of O(entries), the store logs the bcps whose
//! served state — cached tuples or completeness stamp — changed
//! (`admit` victims, `push`, `remove_tuple`, `mark_complete`;
//! `quarantine`/`lift_quarantine` mean "all") and hands the log over
//! once per publish.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use pmv_cache::{admit_if_warmer, AdmitOutcome, FrequencySketch, PolicyKind, ReplacementPolicy};
use pmv_storage::{HeapSize, PackedRow, Tuple};

use crate::bcp::BcpKey;
use crate::delta_index::{DeltaKeyIndex, Supported};
use crate::fasthash::{FxHashMap, FxHasher};
use crate::view::PmvConfig;

/// Residency decision for a bcp in Operation O3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Residency {
    /// The bcp is resident: its tuples may be cached and served.
    Resident,
    /// The bcp is on probation (2Q's A1): no tuples cached yet.
    Probation,
    /// The store is full and the bcp does not out-count the entry it
    /// would evict: nothing changed.
    Declined,
}

/// One cached result tuple, packed in the store's layout, and the epoch
/// it was filled at. Packed rows are shared — a published view or the
/// delta-key index copies a pointer, never the bytes. The fill epoch lets
/// the epoch-pinned serving path refuse tuples newer than its pinned
/// version (a reader at epoch `e` serves a cached tuple only when
/// `fill_epoch <= e`).
pub type CachedTuple = (PackedRow, u64);

struct Entry {
    tuples: Vec<CachedTuple>,
    /// Times this bcp produced partial results (popularity ranking
    /// extension).
    hits: u64,
    /// `Some(w)` when this entry held the bcp's *entire* truth at
    /// insert-watermark `w` (a fill or upquery cached every matching
    /// tuple). The entry is still complete only while `w` equals the
    /// store's current [`PmvStore::inserts_seen`] — any later relevant
    /// insert may have added tuples the cache is missing. Maintenance
    /// removals clear it (conservative: a removal may drop a tuple the
    /// base still derives via another support).
    complete: Option<u64>,
}

/// Bounded store of hot query results, keyed by basic condition part.
pub struct PmvStore {
    entries: FxHashMap<BcpKey, Entry>,
    policy: Box<dyn ReplacementPolicy<BcpKey> + Send + Sync>,
    /// Which policy `policy` was built from, kept so a quarantine drain
    /// can rebuild a fresh instance of the same kind.
    policy_kind: PolicyKind,
    /// Recent access counts behind the admission rule.
    sketch: FrequencySketch,
    f: usize,
    bytes: usize,
    evictions: u64,
    index: Option<DeltaKeyIndex>,
    /// Relevant base-relation inserts observed (monotone watermark).
    /// Completeness stamps compare against this; bumping it lazily
    /// invalidates every complete entry without scanning them.
    inserts_seen: u64,
    /// Drained after a panic mid-mutation (or a maintenance fallback):
    /// serves nothing and caches nothing until quarantine is lifted by
    /// revalidation.
    quarantined: bool,
    /// Bcps whose served state (tuples or completeness stamp) changed
    /// since the last [`Self::take_changes`], in order, consecutive
    /// repeats folded. The shard owner republishes exactly these.
    changed: Vec<BcpKey>,
    /// Set instead of growing `changed` when everything changed (a
    /// quarantine drain or lift) or the log reached `L` bcps — past that
    /// a rebuild of the whole view costs no more than replaying the log,
    /// and an owner that never publishes keeps a bounded log.
    changed_all: bool,
}

impl PmvStore {
    /// Empty store per the config ("Initially, V_PM is empty").
    pub fn new(config: &PmvConfig) -> Self {
        PmvStore::with_capacity(config, config.l)
    }

    /// Empty store whose entry budget is `l` instead of `config.l`. The
    /// sharded [`crate::concurrent::SharedPmv`] builds one store per shard
    /// with capacity `⌈L/N⌉` so the shards together respect the view's
    /// global `L`.
    pub fn with_capacity(config: &PmvConfig, l: usize) -> Self {
        let l = l.max(1);
        PmvStore {
            entries: FxHashMap::default(),
            policy: config.policy.build(l),
            policy_kind: config.policy,
            sketch: FrequencySketch::new(l),
            f: config.f,
            bytes: 0,
            evictions: 0,
            index: None,
            inserts_seen: 0,
            quarantined: false,
            changed: Vec::new(),
            changed_all: false,
        }
    }

    /// Record that what is served for `bcp` changed.
    fn log_change(&mut self, bcp: &BcpKey) {
        if self.changed_all || self.changed.last() == Some(bcp) {
            return;
        }
        if self.changed.len() >= self.policy.capacity() {
            self.log_all_changed();
        } else {
            self.changed.push(bcp.clone());
        }
    }

    fn log_all_changed(&mut self) {
        self.changed.clear();
        self.changed_all = true;
    }

    /// Whether anything served changed since the last
    /// [`Self::take_changes`] (policy touches and hit counts do not
    /// count: no reader sees them).
    pub(crate) fn has_changes(&self) -> bool {
        self.changed_all || !self.changed.is_empty()
    }

    /// Hand over the change log, leaving it empty: `Some(bcps)` when
    /// exactly those bcps' served state changed (repeats possible),
    /// `None` when all of it may have.
    pub(crate) fn take_changes(&mut self) -> Option<Vec<BcpKey>> {
        let all = std::mem::take(&mut self.changed_all);
        let changed = std::mem::take(&mut self.changed);
        (!all).then_some(changed)
    }

    /// What a published view holds for `bcp`: its cached tuples and its
    /// completeness stamp (valid only while equal to
    /// [`Self::inserts_seen`]).
    pub(crate) fn served(&self, bcp: &BcpKey) -> Option<(&[CachedTuple], Option<u64>)> {
        self.entries
            .get(bcp)
            .map(|e| (e.tuples.as_slice(), e.complete))
    }

    /// Attach the delta-key maintenance index (must be done while the
    /// store is empty). Subsumes the Section 3.4 maintenance filter: it
    /// answers the same may-affect question *and* yields the supported
    /// view tuples directly.
    pub fn enable_index(&mut self, index: DeltaKeyIndex) {
        debug_assert!(self.entries.is_empty(), "enable the index before use");
        self.index = Some(index);
    }

    /// Whether the delta-key index can serve deletes from template
    /// relation `rel`: an index is attached and `rel` projects at least
    /// one `Ls'` column. `false` marks a bridge relation, whose deletes
    /// maintenance resolves by the ΔR join.
    pub(crate) fn indexed(&self, rel: usize) -> bool {
        self.index.as_ref().is_some_and(|ix| ix.indexable(rel))
    }

    /// The cached view tuples a delete of `base_tuple` from relation
    /// `rel` must remove, straight from the delta-key index — the
    /// O(fanout) maintenance path. `None` for a bridge relation or when
    /// no index is attached (caller must run the ΔR join instead).
    pub fn supported(&self, rel: usize, base_tuple: &Tuple) -> Option<Vec<Supported>> {
        let ix = self.index.as_ref().filter(|ix| ix.indexable(rel))?;
        Some(ix.supported(rel, base_tuple))
    }

    /// Record one relevant base-relation insert. Bumping the watermark
    /// lazily invalidates every complete-entry stamp; no entry scan.
    pub fn note_insert(&mut self) {
        self.inserts_seen += 1;
    }

    /// Current insert watermark. A completeness claim established at
    /// watermark `w` holds only while `w == inserts_seen()`.
    pub fn inserts_seen(&self) -> u64 {
        self.inserts_seen
    }

    /// Mark `bcp`'s entry as holding the bcp's entire truth, observed at
    /// insert watermark `inserts_at`. No-op (and `false`) when the entry
    /// is absent or the watermark already moved — the caller's fill raced
    /// a relevant insert and completeness cannot be claimed.
    pub fn mark_complete(&mut self, bcp: &BcpKey, inserts_at: u64) -> bool {
        if self.quarantined || inserts_at != self.inserts_seen {
            return false;
        }
        match self.entries.get_mut(bcp) {
            Some(e) => {
                e.complete = Some(inserts_at);
                self.log_change(bcp);
                true
            }
            None => false,
        }
    }

    /// Whether `bcp`'s entry currently holds the bcp's entire truth:
    /// marked complete and no relevant insert has landed since.
    pub fn entry_complete(&self, bcp: &BcpKey) -> bool {
        !self.quarantined
            && self
                .entries
                .get(bcp)
                .is_some_and(|e| e.complete == Some(self.inserts_seen))
    }

    /// Max tuples per bcp (`F`).
    pub fn f(&self) -> usize {
        self.f
    }

    /// Max bcp entries (`L`).
    pub fn l(&self) -> usize {
        self.policy.capacity()
    }

    /// Resident fraction of the policy's capacity in `[0, 1]` — the
    /// `occupancy` telemetry gauge.
    pub fn occupancy(&self) -> f64 {
        self.policy.occupancy()
    }

    /// Whether the store is quarantined (drained, serving nothing).
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Drain the store after its contents became untrustworthy (a panic
    /// mid-mutation, or maintenance that could not repair it): every
    /// entry is dropped, the policy and index are rebuilt empty, and the
    /// store stops serving and caching until [`Self::lift_quarantine`].
    /// Removal-only, so it can never cause a stale tuple to be served.
    /// The admission sketch keeps its counts: they describe the
    /// workload, not the drained contents.
    pub fn quarantine(&mut self) {
        self.entries.clear();
        self.bytes = 0;
        self.policy = self.policy_kind.build(self.policy.capacity());
        if let Some(ix) = &mut self.index {
            ix.clear();
        }
        self.quarantined = true;
        self.log_all_changed();
    }

    /// Resume serving after revalidation confirmed (or re-established)
    /// consistency.
    pub fn lift_quarantine(&mut self) {
        self.quarantined = false;
        self.log_all_changed();
    }

    /// Tuples cached for `bcp` (with their fill epochs), if resident.
    /// Does not touch the policy.
    pub fn lookup(&self, bcp: &BcpKey) -> Option<&[CachedTuple]> {
        if self.quarantined {
            return None;
        }
        self.entries.get(bcp).map(|e| e.tuples.as_slice())
    }

    /// Record a query access to `bcp` (Operation O2) and count a hit if it
    /// served results.
    pub fn touch(&mut self, bcp: &BcpKey, served: bool) {
        self.policy.touch(bcp);
        if served {
            if let Some(e) = self.entries.get_mut(bcp) {
                e.hits += 1;
            }
        }
    }

    /// Count one access of `bcp` in the admission sketch. Callers count
    /// a bcp once per query, and only when it has rows (it served a
    /// partial or O3 produced some): probes of empty bcps would swamp
    /// the sample.
    pub(crate) fn note_access(&mut self, bcp: &BcpKey) {
        self.sketch.increment(Self::sketch_hash(bcp));
    }

    /// The sketch's hash of a bcp: Fx, independent of the SipHash that
    /// chose this store's shard — every bcp a shard's store sees agrees
    /// on that hash modulo the shard count.
    fn sketch_hash(bcp: &BcpKey) -> u64 {
        let mut h = FxHasher::default();
        bcp.hash(&mut h);
        h.finish()
    }

    /// Ask the policy to make `bcp` resident (Operation O3, once per bcp
    /// per query), through the admission rule: into a full store, only
    /// when `bcp` out-counts the victim. Evicted entries are purged.
    pub fn admit(&mut self, bcp: &BcpKey) -> Residency {
        if self.quarantined {
            return Residency::Probation;
        }
        match admit_if_warmer(&mut *self.policy, &self.sketch, bcp, Self::sketch_hash) {
            None => Residency::Declined,
            Some(AdmitOutcome::Resident { evicted }) => {
                for victim in evicted {
                    if let Some(e) = self.entries.remove(&victim) {
                        self.bytes -= Self::key_bytes(&victim)
                            + e.tuples
                                .iter()
                                .map(|(t, _)| Self::tuple_bytes(t))
                                .sum::<usize>();
                        self.evictions += 1;
                        if let Some(ix) = &mut self.index {
                            for (t, _) in &e.tuples {
                                ix.remove_from(&victim, t);
                            }
                        }
                        self.log_change(&victim);
                    }
                }
                Residency::Resident
            }
            Some(AdmitOutcome::Probation) => Residency::Probation,
        }
    }

    /// Store one result tuple, in the store's layout, under a resident
    /// `bcp`: [`Self::push`] of `tuple` packed whole.
    pub fn push_arc(&mut self, bcp: &BcpKey, tuple: Arc<Tuple>, epoch: u64) -> bool {
        self.push(bcp, PackedRow::from(&*tuple), epoch)
    }

    /// Store one packed result tuple, in the store's layout, under a
    /// resident `bcp`, stamped with the epoch it was computed at. Returns
    /// false when the bcp is not resident or already holds `F` tuples.
    pub fn push(&mut self, bcp: &BcpKey, tuple: PackedRow, epoch: u64) -> bool {
        if self.quarantined || !self.policy.contains(bcp) {
            return false;
        }
        let entry = self.entries.entry(bcp.clone()).or_insert_with(|| Entry {
            tuples: Vec::with_capacity(self.f.min(8)),
            hits: 0,
            complete: None,
        });
        if entry.tuples.len() >= self.f {
            return false;
        }
        self.bytes += Self::tuple_bytes(&tuple)
            + if entry.tuples.is_empty() {
                Self::key_bytes(bcp)
            } else {
                0
            };
        if let Some(ix) = &mut self.index {
            ix.file(bcp, &tuple);
        }
        entry.tuples.push((tuple, epoch));
        self.log_change(bcp);
        true
    }

    /// Remove one occurrence of `tuple`, in the store's layout, under
    /// `bcp` (PMV maintenance after a base-relation delete/update).
    /// Returns whether a tuple was removed.
    pub fn remove_tuple(&mut self, bcp: &BcpKey, tuple: &PackedRow) -> bool {
        let Some(entry) = self.entries.get_mut(bcp) else {
            return false;
        };
        let Some(pos) = entry.tuples.iter().position(|(t, _)| t == tuple) else {
            return false;
        };
        entry.tuples.swap_remove(pos);
        // A removal may be conservative (the base may still derive this
        // tuple another way), so the entry can no longer claim to hold
        // the bcp's entire truth.
        entry.complete = None;
        self.bytes -= Self::tuple_bytes(tuple);
        if let Some(ix) = &mut self.index {
            ix.remove_from(bcp, tuple);
        }
        if entry.tuples.is_empty() {
            self.entries.remove(bcp);
            self.bytes -= Self::key_bytes(bcp);
            self.policy.remove(bcp);
        }
        self.log_change(bcp);
        true
    }

    /// Popularity of `bcp`: number of queries it served (ranking
    /// extension; see `ext::ranking`).
    pub fn hit_count(&self, bcp: &BcpKey) -> u64 {
        self.entries.get(bcp).map_or(0, |e| e.hits)
    }

    /// Number of bcp entries currently stored.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Total cached tuples.
    pub fn tuple_count(&self) -> usize {
        self.entries.values().map(|e| e.tuples.len()).sum()
    }

    /// Bytes cached, exactly as charged: per entry its key's
    /// `size_of::<BcpKey>()` plus dimensions, per tuple
    /// `size_of::<PackedRow>()` plus its packed bytes. The sketch, the
    /// policy's frames and the delta-key index are not charged.
    pub fn byte_size(&self) -> usize {
        self.bytes
    }

    /// Total entries evicted by the policy so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Iterate over `(bcp, cached tuples)` (diagnostics/tests).
    pub fn iter(&self) -> impl Iterator<Item = (&BcpKey, &[CachedTuple])> {
        self.entries.iter().map(|(k, e)| (k, e.tuples.as_slice()))
    }

    fn tuple_bytes(t: &PackedRow) -> usize {
        std::mem::size_of::<PackedRow>() + t.heap_size()
    }

    fn key_bytes(k: &BcpKey) -> usize {
        std::mem::size_of::<BcpKey>() + k.heap_size()
    }

    /// Check structural invariants, returning each violation as a
    /// message. Empty means consistent. Never panics.
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.entries.len() > self.policy.capacity() {
            violations.push(format!(
                "more entries than L: {} > {}",
                self.entries.len(),
                self.policy.capacity()
            ));
        }
        // Every resident bcp holds an entry: a frame with nothing behind
        // it would evict a live entry for no gain.
        if self.policy.resident_count() != self.entries.len() {
            violations.push(format!(
                "policy resident count {} != entry count {}",
                self.policy.resident_count(),
                self.entries.len()
            ));
        }
        for (k, e) in &self.entries {
            if e.tuples.is_empty() {
                violations.push(format!("empty entry for {k:?}"));
            }
            if e.tuples.len() > self.f {
                violations.push(format!("entry over F for {k:?}"));
            }
            if !self.policy.contains(k) {
                violations.push(format!("entry {k:?} not resident in policy"));
            }
        }
        let recomputed: usize = self
            .entries
            .iter()
            .map(|(k, e)| {
                Self::key_bytes(k)
                    + e.tuples
                        .iter()
                        .map(|(t, _)| Self::tuple_bytes(t))
                        .sum::<usize>()
            })
            .sum();
        if recomputed != self.bytes {
            violations.push(format!(
                "byte accounting drifted: recomputed {recomputed} != tracked {}",
                self.bytes
            ));
        }
        if let Some(ix) = &self.index {
            let cached: Vec<(&BcpKey, &PackedRow)> = self
                .entries
                .iter()
                .flat_map(|(k, e)| e.tuples.iter().map(move |(t, _)| (k, t)))
                .collect();
            violations.extend(ix.check_against(&cached));
        }
        for (k, e) in &self.entries {
            if let Some(w) = e.complete {
                if w > self.inserts_seen {
                    violations.push(format!(
                        "completeness stamp from the future for {k:?}: {w} > {}",
                        self.inserts_seen
                    ));
                }
            }
        }
        violations
    }

    /// Check structural invariants; panics on violation. Test helper.
    pub fn validate(&self) {
        let violations = self.check();
        assert!(
            violations.is_empty(),
            "store invariants violated: {violations:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcp::BcpDim;
    use pmv_storage::{tuple, Value};

    fn bcp(x: i64) -> BcpKey {
        BcpKey::new(vec![BcpDim::Eq(Value::Int(x))])
    }

    fn cfg(f: usize, l: usize, policy: PolicyKind) -> PmvConfig {
        PmvConfig::new(f, l, policy)
    }

    #[test]
    fn push_respects_f() {
        let mut s = PmvStore::new(&cfg(2, 10, PolicyKind::Clock));
        assert_eq!(s.admit(&bcp(1)), Residency::Resident);
        assert!(s.push_arc(&bcp(1), Arc::new(tuple![1i64, 1i64]), 0));
        assert!(s.push_arc(&bcp(1), Arc::new(tuple![1i64, 2i64]), 0));
        assert!(!s.push_arc(&bcp(1), Arc::new(tuple![1i64, 3i64]), 0));
        assert_eq!(s.lookup(&bcp(1)).unwrap().len(), 2);
        s.validate();
    }

    #[test]
    fn push_requires_residency() {
        let mut s = PmvStore::new(&cfg(2, 10, PolicyKind::TwoQ));
        assert_eq!(s.admit(&bcp(1)), Residency::Probation);
        assert!(!s.push_arc(&bcp(1), Arc::new(tuple![1i64]), 0));
        assert_eq!(s.entry_count(), 0);
        // Second admission promotes.
        assert_eq!(s.admit(&bcp(1)), Residency::Resident);
        assert!(s.push_arc(&bcp(1), Arc::new(tuple![1i64]), 0));
        s.validate();
    }

    #[test]
    fn eviction_purges_entry_and_bytes() {
        let mut s = PmvStore::new(&cfg(1, 2, PolicyKind::Clock));
        for i in 0..2i64 {
            s.admit(&bcp(i));
            s.push_arc(&bcp(i), Arc::new(tuple![i]), 0);
        }
        assert_eq!(s.entry_count(), 2);
        let before = s.byte_size();
        // Seen before, 99 out-counts both residents (never counted).
        s.note_access(&bcp(99));
        s.admit(&bcp(99)); // evicts one of the two
        assert_eq!(s.entry_count(), 1);
        assert!(s.byte_size() < before);
        // As every production admit is followed by its fill.
        assert!(s.push_arc(&bcp(99), Arc::new(tuple![99i64]), 0));
        assert_eq!(s.evictions(), 1);
        s.validate();
    }

    /// A full store of L = 1 whose resident, bcp 1, was counted
    /// `resident` times; bcp 2 then asks in, counted `candidate` times.
    /// Returns whether bcp 2 displaced bcp 1.
    fn displaces(resident: usize, candidate: usize) -> bool {
        let mut s = PmvStore::new(&cfg(1, 1, PolicyKind::Clock));
        for _ in 0..resident {
            s.note_access(&bcp(1));
        }
        assert_eq!(s.admit(&bcp(1)), Residency::Resident);
        assert!(s.push_arc(&bcp(1), Arc::new(tuple![1i64]), 0));
        for _ in 0..candidate {
            s.note_access(&bcp(2));
        }
        let residency = s.admit(&bcp(2));
        if residency == Residency::Resident {
            assert!(s.push_arc(&bcp(2), Arc::new(tuple![2i64]), 0));
        }
        s.validate();
        let displaced = s.lookup(&bcp(2)).is_some();
        assert_eq!(displaced, residency == Residency::Resident);
        assert_eq!(s.evictions(), u64::from(displaced));
        assert_eq!(s.lookup(&bcp(1)).is_none(), displaced);
        displaced
    }

    #[test]
    fn a_twice_seen_candidate_displaces_a_once_seen_victim() {
        assert!(displaces(1, 2));
    }

    #[test]
    fn a_one_hit_wonder_does_not_displace() {
        assert!(!displaces(3, 1));
    }

    #[test]
    fn a_tie_keeps_the_incumbent() {
        assert!(!displaces(1, 1));
        assert!(!displaces(2, 2));
        assert!(!displaces(0, 0));
    }

    #[test]
    fn a_declined_bcp_holds_nothing_and_changes_nothing() {
        let mut s = PmvStore::new(&cfg(2, 1, PolicyKind::Clock));
        s.note_access(&bcp(1));
        s.admit(&bcp(1));
        s.push_arc(&bcp(1), Arc::new(tuple![1i64]), 0);
        s.take_changes();
        s.note_access(&bcp(2));
        assert_eq!(s.admit(&bcp(2)), Residency::Declined);
        assert!(!s.push_arc(&bcp(2), Arc::new(tuple![2i64]), 0));
        assert!(!s.mark_complete(&bcp(2), s.inserts_seen()));
        assert_eq!((s.entry_count(), s.evictions()), (1, 0));
        assert!(!s.has_changes());
        s.validate();
        // Behind 2Q the rule guards only a promotion out of A1: a first
        // sighting still enters probation, with nothing to evict.
        let mut q = PmvStore::new(&cfg(2, 1, PolicyKind::TwoQ));
        for _ in 0..2 {
            q.note_access(&bcp(1));
            q.admit(&bcp(1));
        }
        q.push_arc(&bcp(1), Arc::new(tuple![1i64]), 0);
        q.note_access(&bcp(2));
        assert_eq!(q.admit(&bcp(2)), Residency::Probation);
        q.note_access(&bcp(2));
        assert_eq!(q.admit(&bcp(2)), Residency::Declined, "2 ties 1");
        q.note_access(&bcp(2));
        assert_eq!(q.admit(&bcp(2)), Residency::Resident);
        assert_eq!(q.evictions(), 1);
    }

    #[test]
    fn remove_tuple_multiset_semantics() {
        let mut s = PmvStore::new(&cfg(3, 10, PolicyKind::Clock));
        s.admit(&bcp(1));
        s.push_arc(&bcp(1), Arc::new(tuple![7i64]), 0);
        s.push_arc(&bcp(1), Arc::new(tuple![7i64]), 0);
        assert!(s.remove_tuple(&bcp(1), &PackedRow::from(&tuple![7i64])));
        assert_eq!(s.lookup(&bcp(1)).unwrap().len(), 1);
        assert!(s.remove_tuple(&bcp(1), &PackedRow::from(&tuple![7i64])));
        // Entry is gone entirely.
        assert!(s.lookup(&bcp(1)).is_none());
        assert!(!s.remove_tuple(&bcp(1), &PackedRow::from(&tuple![7i64])));
        assert_eq!(s.byte_size(), 0);
        s.validate();
    }

    #[test]
    fn removed_entry_frees_policy_slot() {
        let mut s = PmvStore::new(&cfg(1, 1, PolicyKind::Clock));
        s.admit(&bcp(1));
        s.push_arc(&bcp(1), Arc::new(tuple![1i64]), 0);
        s.remove_tuple(&bcp(1), &PackedRow::from(&tuple![1i64]));
        // New bcp should be admitted without evicting anything.
        s.admit(&bcp(2));
        s.push_arc(&bcp(2), Arc::new(tuple![2i64]), 0);
        assert_eq!(s.evictions(), 0);
        s.validate();
    }

    #[test]
    fn hits_track_serving() {
        let mut s = PmvStore::new(&cfg(1, 4, PolicyKind::Clock));
        s.admit(&bcp(1));
        s.push_arc(&bcp(1), Arc::new(tuple![1i64]), 0);
        assert_eq!(s.hit_count(&bcp(1)), 0);
        s.touch(&bcp(1), true);
        s.touch(&bcp(1), true);
        s.touch(&bcp(1), false);
        assert_eq!(s.hit_count(&bcp(1)), 2);
    }

    #[test]
    fn completeness_tracks_inserts_and_removals() {
        let mut s = PmvStore::new(&cfg(4, 10, PolicyKind::Clock));
        s.admit(&bcp(1));
        s.push_arc(&bcp(1), Arc::new(tuple![1i64]), 0);
        s.push_arc(&bcp(1), Arc::new(tuple![2i64]), 0);
        assert!(!s.entry_complete(&bcp(1)));
        let w = s.inserts_seen();
        assert!(s.mark_complete(&bcp(1), w));
        assert!(s.entry_complete(&bcp(1)));
        // A relevant insert invalidates every completeness claim.
        s.note_insert();
        assert!(!s.entry_complete(&bcp(1)));
        // Re-marking with the stale watermark must be refused.
        assert!(!s.mark_complete(&bcp(1), w));
        assert!(s.mark_complete(&bcp(1), s.inserts_seen()));
        assert!(s.entry_complete(&bcp(1)));
        // A maintenance removal clears the claim (conservative).
        assert!(s.remove_tuple(&bcp(1), &PackedRow::from(&tuple![1i64])));
        assert!(!s.entry_complete(&bcp(1)));
        // Absent entries can never be marked.
        assert!(!s.mark_complete(&bcp(9), s.inserts_seen()));
        s.validate();
    }

    #[test]
    fn change_log_names_what_a_reader_could_see_change() {
        let mut s = PmvStore::new(&cfg(2, 4, PolicyKind::Clock));
        assert!(!s.has_changes());
        s.admit(&bcp(1));
        s.touch(&bcp(1), false);
        assert!(!s.has_changes(), "residency and touches serve nothing");
        s.push_arc(&bcp(1), Arc::new(tuple![1i64]), 0);
        s.push_arc(&bcp(1), Arc::new(tuple![2i64]), 0);
        assert!(
            !s.push_arc(&bcp(1), Arc::new(tuple![3i64]), 0),
            "over F: not logged"
        );
        assert_eq!(s.take_changes(), Some(vec![bcp(1)]), "repeats folded");
        assert_eq!(s.take_changes(), Some(vec![]), "handed over once");
        for i in 2..=4 {
            s.admit(&bcp(i));
            s.push_arc(&bcp(i), Arc::new(tuple![i]), 0);
            s.push_arc(&bcp(i), Arc::new(tuple![-i]), 0);
        }
        assert_eq!(s.take_changes(), Some(vec![bcp(2), bcp(3), bcp(4)]));
        // Completeness stamp, removal, and an eviction's victim.
        assert!(s.mark_complete(&bcp(1), s.inserts_seen()));
        s.remove_tuple(&bcp(2), &PackedRow::from(&tuple![2i64]));
        s.admit(&bcp(3));
        s.note_access(&bcp(5)); // out-counts every resident
        s.admit(&bcp(5)); // the store is full: evicts one of 1, 3, 4
        let log = s.take_changes().unwrap();
        assert_eq!(&log[..2], &[bcp(1), bcp(2)]);
        assert!(log.len() == 3 && s.served(&log[2]).is_none(), "{log:?}");
        // The watermark is not per-bcp state: nothing logged.
        s.note_insert();
        assert!(!s.has_changes());
        // Quarantine and its lift mean "everything".
        s.quarantine();
        assert!(s.has_changes());
        assert_eq!(s.take_changes(), None);
        s.lift_quarantine();
        assert_eq!(s.take_changes(), None);
        // So do more than L logged bcps: the log of a store nobody
        // publishes from stays bounded. (14 is the fifth bcp into a
        // store of L = 4: seen before, it out-counts its victim.)
        s.note_access(&bcp(14));
        for i in 10..15 {
            s.admit(&bcp(i));
            s.push_arc(&bcp(i), Arc::new(tuple![i]), 0);
        }
        assert_eq!(s.take_changes(), None);
        s.validate();
    }

    #[test]
    fn supported_lookup_via_index() {
        use crate::delta_index::DeltaKeyIndex;
        use pmv_query::TemplateBuilder;
        use pmv_storage::{Column, ColumnType, Schema};
        // Single relation r(a, f), select a, cond_eq f — Ls' = (a, f).
        let t = TemplateBuilder::new("t")
            .relation(Schema::new(
                "r",
                vec![
                    Column::new("a", ColumnType::Int),
                    Column::new("f", ColumnType::Int),
                ],
            ))
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .build()
            .unwrap();
        let mut s = PmvStore::new(&cfg(4, 10, PolicyKind::Clock));
        s.enable_index(DeltaKeyIndex::new(&t));
        s.admit(&bcp(1));
        s.push_arc(&bcp(1), Arc::new(tuple![7i64, 1i64]), 0);
        // Deleting base tuple (a=7, f=1) supports the cached view tuple.
        let hit = s.supported(0, &tuple![7i64, 1i64]).unwrap();
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].1, PackedRow::from(&tuple![7i64, 1i64]));
        assert!(s.supported(0, &tuple![8i64, 1i64]).unwrap().is_empty());
        // Removing the supported tuple empties the index too.
        for (b, tu) in hit {
            assert!(s.remove_tuple(&b, &tu));
        }
        assert!(s.supported(0, &tuple![7i64, 1i64]).unwrap().is_empty());
        s.validate();
    }

    #[test]
    fn refill_after_partial_removal() {
        // The paper's cj < F case: maintenance removed a tuple, a later
        // query refills the entry.
        let mut s = PmvStore::new(&cfg(2, 4, PolicyKind::Clock));
        s.admit(&bcp(1));
        s.push_arc(&bcp(1), Arc::new(tuple![1i64]), 0);
        s.push_arc(&bcp(1), Arc::new(tuple![2i64]), 0);
        s.remove_tuple(&bcp(1), &PackedRow::from(&tuple![1i64]));
        assert_eq!(s.admit(&bcp(1)), Residency::Resident);
        assert!(s.push_arc(&bcp(1), Arc::new(tuple![3i64]), 0));
        assert_eq!(s.lookup(&bcp(1)).unwrap().len(), 2);
        s.validate();
    }
}
