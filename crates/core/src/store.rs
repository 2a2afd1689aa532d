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
//! The store is the paper's Figure 4: one table of `(bcp, tuples)`
//! entries with a hash index `I` on bcp (bcp probes are exact-match, so a
//! hash index needs no ordering). The table is a spine of `Arc`-shared
//! chunks of `Arc`-shared entries, each entry in the chunk its bcp's hash
//! names. Every change writes through `Arc::make_mut` from spine to chunk
//! to entry: while a reader still holds the table, a change copies the
//! spine, the chunk and the entry it touches and leaves the reader's
//! version whole. A [`crate::concurrent::SharedPmv`] publishes a shard by
//! handing its readers a pointer copy of the store's table; a store whose
//! table is still the published one has nothing new to publish.
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

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmv_cache::{admit_if_warmer, AdmitOutcome, FrequencySketch, PolicyKind, ReplacementPolicy};
use pmv_storage::{HeapSize, PackedRow, Tuple};

use crate::bcp::BcpKey;
use crate::delta_index::{DeltaKeyIndex, Supported};
use crate::fasthash::FxHasher;
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
/// it was filled at. Packed rows are shared — a copied entry or the
/// delta-key index copies a pointer, never the bytes. The fill epoch lets
/// the epoch-pinned serving path refuse tuples newer than its pinned
/// version (a reader at epoch `e` serves a cached tuple only when
/// `fill_epoch <= e`).
pub type CachedTuple = (PackedRow, u64);

/// Store entries per table chunk, from which the chunk count is derived.
/// The first change after a publish copies the spine (one `Arc` per
/// chunk) and each chunk it touches (one `Arc` per entry; a cold fill
/// into a full store touches two), so its cost `chunks + 2·L/chunks` is
/// flattest around `√(2·L)` chunks: 35–70 entries each at the paper's L
/// of 10–20 K, where 16, 32 and 64 measure the same (DESIGN.md §10), and
/// irrelevant for small stores. Derived, not configurable: it trades
/// nothing a user could want differently.
pub(crate) const CHUNK_ENTRIES: usize = 32;

/// One bcp's entry. Readers of a published table share it; the store
/// copies it before changing it.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) bcp: BcpKey,
    /// The cached tuples, with their fill epochs.
    pub(crate) tuples: Vec<CachedTuple>,
    /// Times this bcp produced partial results (popularity ranking
    /// extension). Policy metadata no reader looks at, so it is counted
    /// in place, through a shared entry, and copied along with one. Every
    /// access holds the shard's lock: the atomic is what lets a shared
    /// entry be counted, not what orders it.
    hits: AtomicU64,
    /// `Some(w)` when this entry held the bcp's *entire* truth at
    /// insert-watermark `w` (a fill or upquery cached every matching
    /// tuple). The entry is still complete only while `w` equals the
    /// store's current [`PmvStore::inserts_seen`] — any later relevant
    /// insert may have added tuples the cache is missing. Maintenance
    /// removals clear it (conservative: a removal may drop a tuple the
    /// base still derives via another support).
    pub(crate) complete: Option<u64>,
}

impl Clone for Entry {
    fn clone(&self) -> Entry {
        Entry {
            bcp: self.bcp.clone(),
            tuples: self.tuples.clone(),
            hits: AtomicU64::new(self.hits.load(Ordering::Acquire)),
            complete: self.complete,
        }
    }
}

/// The entries whose hash falls in one chunk, each tagged with that
/// hash: short enough to scan, and copied by bumping one count per
/// entry.
type Chunk = Vec<(u64, Arc<Entry>)>;

/// The store's entry table: a spine of `Arc`-shared chunks, each entry
/// in the chunk its [`PmvStore::hash_of`] names. A clone copies one
/// pointer; a write copies what a clone still shares.
#[derive(Clone)]
pub(crate) struct Table(Arc<[Arc<Chunk>]>);

/// Where an entry sits: chunk, then position in the chunk.
type At = (usize, usize);

impl Table {
    fn new(chunks: usize) -> Table {
        Table(vec![Arc::default(); chunks.max(1)].into())
    }

    /// The chunks, in spine order.
    pub(crate) fn chunks(&self) -> &[Arc<Chunk>] {
        &self.0
    }

    /// Whether `self` and `other` are one spine: nothing was written
    /// since either was cloned from the other.
    pub(crate) fn ptr_eq(&self, other: &Table) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The chunk entries of hash `hash` sit in.
    pub(crate) fn chunk_of(&self, hash: u64) -> usize {
        (hash % self.0.len() as u64) as usize
    }

    fn find(&self, hash: u64, bcp: &BcpKey) -> Option<At> {
        let ci = self.chunk_of(hash);
        let i = self.0[ci]
            .iter()
            .position(|(h, e)| *h == hash && e.bcp == *bcp)?;
        Some((ci, i))
    }

    /// `bcp`'s entry; `hash` is its [`PmvStore::hash_of`].
    pub(crate) fn get(&self, hash: u64, bcp: &BcpKey) -> Option<&Entry> {
        self.find(hash, bcp).map(|at| self.at(at))
    }

    fn at(&self, (ci, i): At) -> &Entry {
        &self.0[ci][i].1
    }

    /// The entry at `(ci, i)`, writable: copied first, with its chunk and
    /// the spine, where a reader still shares them.
    fn at_mut(&mut self, (ci, i): At) -> &mut Entry {
        Arc::make_mut(&mut self.chunk_mut(ci)[i].1)
    }

    fn chunk_mut(&mut self, ci: usize) -> &mut Chunk {
        Arc::make_mut(&mut Arc::make_mut(&mut self.0)[ci])
    }

    fn insert(&mut self, hash: u64, entry: Entry) {
        let ci = self.chunk_of(hash);
        self.chunk_mut(ci).push((hash, Arc::new(entry)));
    }

    fn remove(&mut self, (ci, i): At) -> Arc<Entry> {
        self.chunk_mut(ci).swap_remove(i).1
    }

    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.0.iter().flat_map(|c| c.iter().map(|(_, e)| &**e))
    }
}

/// What readers of a store see: a pointer copy of its table, and the
/// insert watermark and quarantine flag that go with it.
pub(crate) struct Published {
    pub(crate) table: Table,
    pub(crate) inserts_seen: u64,
    pub(crate) quarantined: bool,
}

/// Bounded store of hot query results, keyed by basic condition part.
pub struct PmvStore {
    table: Table,
    /// Entries in `table`.
    entries: usize,
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
            table: Table::new(l.div_ceil(CHUNK_ENTRIES)),
            entries: 0,
            policy: config.policy.build(l),
            policy_kind: config.policy,
            sketch: FrequencySketch::new(l),
            f: config.f,
            bytes: 0,
            evictions: 0,
            index: None,
            inserts_seen: 0,
            quarantined: false,
        }
    }

    /// The entry table.
    pub(crate) fn table(&self) -> &Table {
        &self.table
    }

    /// What a reader of this store sees now: its table (a pointer copy),
    /// insert watermark and quarantine flag.
    pub(crate) fn published(&self) -> Published {
        Published {
            table: self.table.clone(),
            inserts_seen: self.inserts_seen,
            quarantined: self.quarantined,
        }
    }

    /// The hash that places `bcp` in its store's table and counts it in
    /// the admission sketch: Fx, independent of the SipHash that chose
    /// this store's shard — every bcp a shard's store sees agrees on that
    /// hash modulo the shard count.
    pub(crate) fn hash_of(bcp: &BcpKey) -> u64 {
        let mut h = FxHasher::default();
        bcp.hash(&mut h);
        h.finish()
    }

    /// Attach the delta-key maintenance index (must be done while the
    /// store is empty). Subsumes the Section 3.4 maintenance filter: it
    /// answers the same may-affect question *and* yields the supported
    /// view tuples directly.
    pub fn enable_index(&mut self, index: DeltaKeyIndex) {
        debug_assert!(self.entries == 0, "enable the index before use");
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
        let Some(at) = self.table.find(Self::hash_of(bcp), bcp) else {
            return false;
        };
        if self.table.at(at).complete != Some(inserts_at) {
            self.table.at_mut(at).complete = Some(inserts_at);
        }
        true
    }

    /// Whether `bcp`'s entry currently holds the bcp's entire truth:
    /// marked complete and no relevant insert has landed since.
    pub fn entry_complete(&self, bcp: &BcpKey) -> bool {
        !self.quarantined
            && self
                .table
                .get(Self::hash_of(bcp), bcp)
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
        self.table = Table::new(self.table.chunks().len());
        self.entries = 0;
        self.bytes = 0;
        self.policy = self.policy_kind.build(self.policy.capacity());
        if let Some(ix) = &mut self.index {
            ix.clear();
        }
        self.quarantined = true;
    }

    /// Resume serving after revalidation confirmed (or re-established)
    /// consistency.
    pub fn lift_quarantine(&mut self) {
        self.quarantined = false;
    }

    /// Tuples cached for `bcp` (with their fill epochs), if resident.
    /// Does not touch the policy.
    pub fn lookup(&self, bcp: &BcpKey) -> Option<&[CachedTuple]> {
        if self.quarantined {
            return None;
        }
        let entry = self.table.get(Self::hash_of(bcp), bcp)?;
        Some(&entry.tuples)
    }

    /// Record a query access to `bcp` (Operation O2) and count a hit if it
    /// served results. Copies nothing: the hit count is bumped in place.
    pub fn touch(&mut self, bcp: &BcpKey, served: bool) {
        self.policy.touch(bcp);
        if served {
            if let Some(e) = self.table.get(Self::hash_of(bcp), bcp) {
                e.hits.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Count one access of `bcp` in the admission sketch. Callers count
    /// a bcp once per query, and only when it has rows (it served a
    /// partial or O3 produced some): probes of empty bcps would swamp
    /// the sample.
    pub(crate) fn note_access(&mut self, bcp: &BcpKey) {
        self.sketch.increment(Self::hash_of(bcp));
    }

    /// Ask the policy to make `bcp` resident (Operation O3, once per bcp
    /// per query), through the admission rule: into a full store, only
    /// when `bcp` out-counts the victim. Evicted entries are purged.
    pub fn admit(&mut self, bcp: &BcpKey) -> Residency {
        if self.quarantined {
            return Residency::Probation;
        }
        match admit_if_warmer(&mut *self.policy, &self.sketch, bcp, Self::hash_of) {
            None => Residency::Declined,
            Some(AdmitOutcome::Resident { evicted }) => {
                for victim in evicted {
                    let Some(at) = self.table.find(Self::hash_of(&victim), &victim) else {
                        continue;
                    };
                    let e = self.table.remove(at);
                    self.entries -= 1;
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
        let hash = Self::hash_of(bcp);
        let at = self.table.find(hash, bcp);
        let len = at.map_or(0, |at| self.table.at(at).tuples.len());
        if len >= self.f {
            return false;
        }
        self.bytes += Self::tuple_bytes(&tuple) + if len == 0 { Self::key_bytes(bcp) } else { 0 };
        if let Some(ix) = &mut self.index {
            ix.file(bcp, &tuple);
        }
        match at {
            Some(at) => self.table.at_mut(at).tuples.push((tuple, epoch)),
            None => {
                let mut tuples = Vec::with_capacity(self.f.min(8));
                tuples.push((tuple, epoch));
                self.table.insert(
                    hash,
                    Entry {
                        bcp: bcp.clone(),
                        tuples,
                        hits: AtomicU64::new(0),
                        complete: None,
                    },
                );
                self.entries += 1;
            }
        }
        true
    }

    /// Remove one occurrence of `tuple`, in the store's layout, under
    /// `bcp` (PMV maintenance after a base-relation delete/update).
    /// Returns whether a tuple was removed.
    pub fn remove_tuple(&mut self, bcp: &BcpKey, tuple: &PackedRow) -> bool {
        let Some(at) = self.table.find(Self::hash_of(bcp), bcp) else {
            return false;
        };
        let tuples = &self.table.at(at).tuples;
        let Some(pos) = tuples.iter().position(|(t, _)| t == tuple) else {
            return false;
        };
        let last = tuples.len() == 1;
        self.bytes -= Self::tuple_bytes(tuple);
        if let Some(ix) = &mut self.index {
            ix.remove_from(bcp, tuple);
        }
        if last {
            self.table.remove(at);
            self.entries -= 1;
            self.bytes -= Self::key_bytes(bcp);
            self.policy.remove(bcp);
        } else {
            let entry = self.table.at_mut(at);
            entry.tuples.swap_remove(pos);
            // A removal may be conservative (the base may still derive
            // this tuple another way), so the entry can no longer claim
            // to hold the bcp's entire truth.
            entry.complete = None;
        }
        true
    }

    /// Popularity of `bcp`: number of queries it served (ranking
    /// extension; see `ext::ranking`).
    pub fn hit_count(&self, bcp: &BcpKey) -> u64 {
        self.table
            .get(Self::hash_of(bcp), bcp)
            .map_or(0, |e| e.hits.load(Ordering::Acquire))
    }

    /// Number of bcp entries currently stored.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Total cached tuples.
    pub fn tuple_count(&self) -> usize {
        self.table.entries().map(|e| e.tuples.len()).sum()
    }

    /// Bytes cached, exactly as charged: per entry its key's
    /// `size_of::<BcpKey>()` plus dimensions, per tuple
    /// `size_of::<PackedRow>()` plus its packed bytes. The sketch, the
    /// policy's frames, the table's spine and the delta-key index are not
    /// charged.
    pub fn byte_size(&self) -> usize {
        self.bytes
    }

    /// Total entries evicted by the policy so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Iterate over `(bcp, cached tuples)` (diagnostics/tests).
    pub fn iter(&self) -> impl Iterator<Item = (&BcpKey, &[CachedTuple])> {
        self.table.entries().map(|e| (&e.bcp, e.tuples.as_slice()))
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
        let (mut counted, mut recomputed) = (0, 0);
        for (ci, chunk) in self.table.chunks().iter().enumerate() {
            for (hash, e) in chunk.iter() {
                let k = &e.bcp;
                counted += 1;
                recomputed += Self::key_bytes(k)
                    + e.tuples
                        .iter()
                        .map(|(t, _)| Self::tuple_bytes(t))
                        .sum::<usize>();
                // Misplaced, an entry is one no lookup finds.
                if *hash != Self::hash_of(k) || self.table.chunk_of(*hash) != ci {
                    violations.push(format!("entry {k:?} misplaced in chunk {ci}"));
                }
                if e.tuples.is_empty() {
                    violations.push(format!("empty entry for {k:?}"));
                }
                if e.tuples.len() > self.f {
                    violations.push(format!("entry over F for {k:?}"));
                }
                if !self.policy.contains(k) {
                    violations.push(format!("entry {k:?} not resident in policy"));
                }
                if let Some(w) = e.complete.filter(|&w| w > self.inserts_seen) {
                    violations.push(format!(
                        "completeness stamp from the future for {k:?}: {w} > {}",
                        self.inserts_seen
                    ));
                }
            }
        }
        if counted != self.entries {
            violations.push(format!(
                "entry count drifted: table holds {counted} != tracked {}",
                self.entries
            ));
        }
        if self.entries > self.policy.capacity() {
            violations.push(format!(
                "more entries than L: {} > {}",
                self.entries,
                self.policy.capacity()
            ));
        }
        // Every resident bcp holds an entry: a frame with nothing behind
        // it would evict a live entry for no gain.
        if self.policy.resident_count() != self.entries {
            violations.push(format!(
                "policy resident count {} != entry count {}",
                self.policy.resident_count(),
                self.entries
            ));
        }
        if recomputed != self.bytes {
            violations.push(format!(
                "byte accounting drifted: recomputed {recomputed} != tracked {}",
                self.bytes
            ));
        }
        if let Some(ix) = &self.index {
            let cached: Vec<(&BcpKey, &PackedRow)> = self
                .iter()
                .flat_map(|(k, tuples)| tuples.iter().map(move |(t, _)| (k, t)))
                .collect();
            violations.extend(ix.check_against(&cached));
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
        let seen = s.published();
        s.note_access(&bcp(2));
        assert_eq!(s.admit(&bcp(2)), Residency::Declined);
        assert!(!s.push_arc(&bcp(2), Arc::new(tuple![2i64]), 0));
        assert!(!s.mark_complete(&bcp(2), s.inserts_seen()));
        assert_eq!((s.entry_count(), s.evictions()), (1, 0));
        assert!(s.table().ptr_eq(&seen.table), "nothing to publish");
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

    /// A reader holds the table it was handed, so whatever changes what
    /// it could see copies the spine, and nothing else does: the store's
    /// spine pointer is the publish test.
    #[test]
    fn only_served_changes_copy_the_table() {
        let mut s = PmvStore::new(&cfg(2, 4, PolicyKind::Clock));
        // `step` runs one change against a store whose table a reader
        // holds and says whether the spine was replaced.
        fn step(s: &mut PmvStore, change: &dyn Fn(&mut PmvStore)) -> bool {
            let seen = s.published();
            change(s);
            !s.table().ptr_eq(&seen.table)
        }
        // Residency of a bcp with room, policy touches, sketch counts
        // and the insert watermark serve nothing.
        assert!(!step(&mut s, &|s| assert_eq!(
            s.admit(&bcp(1)),
            Residency::Resident
        )));
        assert!(!step(&mut s, &|s| s.touch(&bcp(1), false)));
        assert!(!step(&mut s, &|s| s.note_access(&bcp(1))));
        assert!(!step(&mut s, &|s| s.note_insert()));
        // Fills do, up to F; a push refused over F does not.
        assert!(step(&mut s, &|s| assert!(s.push_arc(
            &bcp(1),
            Arc::new(tuple![1i64]),
            0
        ))));
        assert!(step(&mut s, &|s| assert!(s.push_arc(
            &bcp(1),
            Arc::new(tuple![2i64]),
            0
        ))));
        assert!(!step(&mut s, &|s| assert!(!s.push_arc(
            &bcp(1),
            Arc::new(tuple![3i64]),
            0
        ))));
        // A served touch counts its hit in place.
        assert!(!step(&mut s, &|s| s.touch(&bcp(1), true)));
        assert_eq!(s.hit_count(&bcp(1)), 1);
        // A completeness stamp does, once; so does a removal.
        assert!(step(&mut s, &|s| assert!(
            s.mark_complete(&bcp(1), s.inserts_seen())
        )));
        assert!(!step(&mut s, &|s| assert!(
            s.mark_complete(&bcp(1), s.inserts_seen())
        )));
        let one = PackedRow::from(&tuple![1i64]);
        assert!(step(&mut s, &|s| assert!(s.remove_tuple(&bcp(1), &one))));
        assert!(!step(&mut s, &|s| assert!(!s.remove_tuple(&bcp(1), &one))));
        // Fill the store, then an eviction and its fill: 5, seen
        // before, out-counts every resident and displaces one of them.
        for i in 2..=4 {
            assert!(step(&mut s, &|s| {
                s.admit(&bcp(i));
                assert!(s.push_arc(&bcp(i), Arc::new(tuple![i]), 0));
            }));
        }
        s.note_access(&bcp(5));
        s.note_access(&bcp(5));
        assert!(step(&mut s, &|s| {
            assert_eq!(s.admit(&bcp(5)), Residency::Resident);
            assert!(s.push_arc(&bcp(5), Arc::new(tuple![5i64]), 0));
        }));
        assert_eq!((s.entry_count(), s.evictions()), (4, 1));
        // The copies leave the reader's version whole: a table handed
        // out before a change still shows what it showed.
        let before = s.published();
        let entries = |t: &Table| {
            let mut all: Vec<_> = t
                .entries()
                .map(|e| (e.bcp.clone(), e.tuples.clone()))
                .collect();
            all.sort_by(|a, b| a.0.cmp(&b.0));
            all
        };
        let held = entries(s.table());
        assert!(s.push_arc(&bcp(5), Arc::new(tuple![-5i64]), 0));
        assert_eq!(entries(&before.table), held);
        assert_ne!(entries(s.table()), held);
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
