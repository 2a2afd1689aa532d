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
//! A view's store holds each entry's tuples in the view's
//! [`crate::view::StoredLayout`] — only the `Ls'` values its entry cannot
//! derive — packed and front-coded back to back: each row keeps only the
//! bytes it does not share with the row before it
//! ([`pmv_storage::packed`]'s entry frame). An entry is one allocation
//! however many rows it holds: its bcp's key, framed as the WAL frames a
//! row; the rows' fill epochs; the rows' frames. Every write of an
//! entry's rows — a fill, a removal — lays the rows out whole in the
//! store's reused scratch and front-codes them through one writer
//! (`Entry::write`), so a removal re-bases the row that followed the
//! removed one. A reader walks the rows with a [`RowCursor`], which
//! rebuilds each into a buffer the reader owns. A chunk slot is the
//! entry's hash and its `Arc`, 16 B. The store itself never looks inside
//! a tuple — it holds, charges and compares the bytes it is given — and
//! its delta-key index reads the derived positions from each tuple's
//! bcp. [`PmvStore::new`] with [`DeltaKeyIndex::new`] holds full rows.
//!
//! [`PmvStore::byte_size`] is exact under one rule: an entry is charged
//! [`HANDLE_BYTES`] (16 B) for the handle of its bytes, its key's frame
//! and its rows' frames as written — each a header `LEB128(suffix_len
//! << 1 | s)` (one byte while the suffix is below 64 bytes), the
//! `LEB128` count of bytes shared with the row before when `s = 1`, and
//! the suffix. A row frames no more than alone: `LEB128(len << 1)` and
//! its packed values. The fill epochs and the scratch are not charged. A
//! T1 key — two integers, each a tag and 1–2 bytes — is 4–6 bytes behind
//! a byte of length: 21–23 B per entry with the handle. T1's tuples store
//! five integers, each its tag and the 1–3 bytes its value needs, and two
//! empty strings of one tag byte each: at most 1 + 18 = 19 B per tuple,
//! and a lineitem that follows another of its order repeats the order's
//! four fields, which it keeps as a count.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use pmv_cache::{admit_if_warmer, AdmitOutcome, FrequencySketch, PolicyKind, ReplacementPolicy};
use pmv_storage::packed::{self, RowRef};
use pmv_storage::{Tuple, Value};

use crate::bcp::BcpKey;
use crate::delta_index::{row_hash, DeltaKeyIndex, Supported};
use crate::fasthash::hash_bytes;
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

/// What the store charges an entry besides its key's frame and its
/// rows: the handle of the entry's bytes, `size_of::<Box<[u8]>>()`.
pub const HANDLE_BYTES: usize = std::mem::size_of::<Box<[u8]>>();

/// Bytes a fill epoch takes in an entry: a `u64`, little-endian.
const EPOCH_BYTES: usize = std::mem::size_of::<u64>();

/// A bcp and the one hash of its packed bytes, which places it in a
/// view: shard, chunk, tag and sketch counters. Every store method that
/// finds an entry takes one, so a caller that hashed the key already —
/// O2, which placed the bcp by that hash — does not hash it again; a
/// bare `&BcpKey` converts by hashing.
#[derive(Clone, Copy, Debug)]
pub struct Hashed<'a> {
    bcp: &'a BcpKey,
    hash: u64,
}

impl<'a> Hashed<'a> {
    /// `bcp` with `hash`, which must be its [`PmvStore::hash_of`].
    #[inline]
    pub(crate) fn new(bcp: &'a BcpKey, hash: u64) -> Self {
        debug_assert_eq!(hash, PmvStore::hash_of(bcp), "{bcp:?}");
        Hashed { bcp, hash }
    }
}

impl<'a> From<&'a BcpKey> for Hashed<'a> {
    #[inline]
    fn from(bcp: &'a BcpKey) -> Self {
        Hashed {
            bcp,
            hash: PmvStore::hash_of(bcp),
        }
    }
}

/// One entry's cached tuples, borrowed from the entry: its rows, packed
/// in the store's layout and front-coded back to back, and the epoch
/// each was filled at. The fill epoch lets the epoch-pinned serving path
/// refuse tuples newer than its pinned version (a reader at epoch `e`
/// serves a cached tuple only when `fill_epoch <= e`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Rows<'a> {
    bytes: &'a [u8],
    /// [`EPOCH_BYTES`] per row.
    epochs: &'a [u8],
}

impl<'a> Rows<'a> {
    /// Tuples held.
    #[inline]
    pub fn len(self) -> usize {
        self.epochs.len() / EPOCH_BYTES
    }

    /// Whether no tuple is held (never, for a resident entry).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.epochs.is_empty()
    }

    /// The rows, front-coded back to back: what the entry is charged
    /// for besides its key's frame and the handle of its bytes.
    #[inline]
    pub fn bytes(self) -> &'a [u8] {
        self.bytes
    }

    /// Each row's fill epoch, in row order.
    #[inline]
    pub fn epochs(self) -> impl Iterator<Item = u64> + 'a {
        self.epochs
            .chunks_exact(EPOCH_BYTES)
            .map(|e| u64::from_le_bytes(e.try_into().expect("an epoch's bytes")))
    }

    /// The rows in the order they were filled, each with its fill
    /// epoch, each rebuilt into `row` (a buffer the caller keeps, so a
    /// walk allocates nothing once it has grown) and lent until the next.
    #[inline]
    pub fn iter<'b>(self, row: &'b mut Vec<u8>) -> RowCursor<'a, 'b> {
        RowCursor {
            rows: packed::cursor(self.bytes, row),
            epochs: self.epochs.chunks_exact(EPOCH_BYTES),
        }
    }
}

/// A walk over one entry's rows ([`Rows::iter`]): each is rebuilt into
/// the caller's buffer and lent, with its fill epoch, until the next
/// call.
pub struct RowCursor<'a, 'b> {
    rows: packed::Cursor<'a, 'b>,
    epochs: std::slice::ChunksExact<'a, u8>,
}

impl RowCursor<'_, '_> {
    /// The next row and its fill epoch; `None` past the last.
    #[inline]
    pub fn next_row(&mut self) -> Option<(RowRef<'_>, u64)> {
        let epoch = self.epochs.next()?;
        let epoch = u64::from_le_bytes(epoch.try_into().expect("an epoch's bytes"));
        Some((self.rows.next_row()?, epoch))
    }
}

/// Full rows packed back to back, each with its fill epoch: what a
/// store write lays out before [`Entry::write`] front-codes them into an
/// entry. The store keeps one and reuses it, so once it has grown a
/// write allocates only the entry it writes.
#[derive(Default)]
struct Staged {
    bytes: Vec<u8>,
    /// Where each row ends in `bytes`, and its fill epoch.
    rows: Vec<(usize, u64)>,
}

impl Staged {
    fn clear(&mut self) {
        self.bytes.clear();
        self.rows.clear();
    }

    /// Rows held.
    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Append `row`, already packed.
    fn push(&mut self, row: RowRef<'_>, epoch: u64) {
        self.bytes.extend_from_slice(row.as_bytes());
        self.rows.push((self.bytes.len(), epoch));
    }

    /// Append `values`, packed. The iterator is walked twice: once to
    /// size the row, once to write it.
    fn push_values<'v>(&mut self, values: impl Iterator<Item = &'v Value> + Clone, epoch: u64) {
        let mut at = self.bytes.len();
        self.bytes.resize(at + packed::row_len(values.clone()), 0);
        for v in values {
            at += packed::encode(v, &mut self.bytes[at..]);
        }
        debug_assert_eq!(at, self.bytes.len());
        self.rows.push((at, epoch));
    }

    /// The rows in order, each with the row before it (`None` for the
    /// first) and its fill epoch.
    fn iter(&self) -> impl Iterator<Item = (RowRef<'_>, Option<RowRef<'_>>, u64)> + Clone {
        let mut start = 0;
        self.rows.iter().scan(None, move |prev, &(end, epoch)| {
            let row = RowRef::new(&self.bytes[start..end]);
            start = end;
            Some((row, prev.replace(row), epoch))
        })
    }
}

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
    /// The entry's one allocation: its bcp's key framed as a row is, then
    /// each row's fill epoch ([`EPOCH_BYTES`] each), then the rows framed
    /// back to back, rows and epochs in the order they were filled.
    bytes: Box<[u8]>,
    /// Where the key's frame ends and the epochs begin: a lookup
    /// compares the key and finds the rows without decoding the frame's
    /// length.
    key_end: u32,
    /// Rows held: with `key_end`, where the epochs end.
    len: u32,
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

impl Entry {
    /// The bytes of an entry of `key` holding `len` rows of `rows`
    /// framed bytes, its key's frame written, and where that frame ends:
    /// the epochs and then the rows that follow are left zero for the
    /// caller to write.
    fn alloc(key: RowRef<'_>, len: usize, rows: usize) -> (Box<[u8]>, usize) {
        let key_frame = packed::framed_len(key.as_bytes().len());
        let mut bytes = vec![0u8; key_frame + len * EPOCH_BYTES + rows].into_boxed_slice();
        packed::put_packed_frame(&mut bytes, key);
        (bytes, key_frame)
    }

    /// The entry of `key` holding `rows`, in their order, each
    /// front-coded against the row before it: the one writer of an
    /// entry's rows. The rows are sized first, so the entry is one
    /// allocation.
    fn write(key: RowRef<'_>, rows: &Staged) -> Entry {
        let len = rows.len();
        let framed = rows
            .iter()
            .map(|(row, prev, _)| packed::entry_row_len(row, prev))
            .sum();
        let (mut bytes, key_frame) = Entry::alloc(key, len, framed);
        let (epochs, framed) = bytes[key_frame..].split_at_mut(len * EPOCH_BYTES);
        let mut end = 0;
        for ((row, prev, epoch), e) in rows.iter().zip(epochs.chunks_exact_mut(EPOCH_BYTES)) {
            e.copy_from_slice(&epoch.to_le_bytes());
            end += packed::put_entry_row(&mut framed[end..], row, prev);
        }
        debug_assert_eq!(end, framed.len());
        Entry::new(bytes, key_frame, len)
    }

    /// An entry of `bytes`, whose key's frame ends at `key_end`, holding
    /// `len` rows.
    fn new(bytes: Box<[u8]>, key_end: usize, len: usize) -> Entry {
        Entry {
            bytes,
            key_end: u32::try_from(key_end).expect("a key frame below 4 GiB"),
            len: u32::try_from(len).expect("F below 2^32"),
            hits: AtomicU64::new(0),
            complete: None,
        }
    }

    /// Rows held.
    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    /// The bcp's packed key.
    #[inline]
    pub(crate) fn key(&self) -> RowRef<'_> {
        packed::split_frame(&self.bytes).0
    }

    /// Whether the entry's key is `key`, whose frame takes `frame`
    /// bytes: a frame of that many bytes holds a key of `key`'s length
    /// (a longer key takes a longer frame), so the frame's last bytes
    /// are compared, its length not decoded.
    #[inline]
    fn has_key(&self, key: &[u8], frame: usize) -> bool {
        self.key_end as usize == frame && self.bytes[frame - key.len()..frame] == *key
    }

    /// The cached tuples.
    #[inline]
    pub(crate) fn rows(&self) -> Rows<'_> {
        let (epochs, bytes) =
            self.bytes[self.key_end as usize..].split_at(self.len() * EPOCH_BYTES);
        Rows { bytes, epochs }
    }

    /// What the entry is charged: the handle of its bytes, and its
    /// bytes but for the epochs.
    fn charge(&self) -> usize {
        HANDLE_BYTES + self.bytes.len() - self.len() * EPOCH_BYTES
    }
}

impl Clone for Entry {
    fn clone(&self) -> Entry {
        Entry {
            bytes: self.bytes.clone(),
            key_end: self.key_end,
            len: self.len,
            hits: AtomicU64::new(self.hits.load(Ordering::Acquire)),
            complete: self.complete,
        }
    }
}

/// The entries whose hash falls in one chunk, each tagged with that
/// hash and kept in tag order, so a lookup binary-searches the tags
/// without leaving the chunk and reads an entry only on a tag match, to
/// compare its key; copied by bumping one count per entry.
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

    /// The chunk entries of hash `hash` sit in: the hash scaled to the
    /// chunk count by its high bits, with a multiply where a modulo would
    /// divide. A shard is chosen from the low half
    /// ([`crate::concurrent::Inner::shard_of`]), so every chunk of a
    /// shard gets its share.
    pub(crate) fn chunk_of(&self, hash: u64) -> usize {
        ((u128::from(hash) * self.0.len() as u128) >> 64) as usize
    }

    /// Where the spine sits: two live tables share it exactly when
    /// nothing was written since either was cloned from the other.
    fn addr(&self) -> usize {
        Arc::as_ptr(&self.0).cast::<u8>() as usize
    }

    /// Where the entry of `bcp`, filed under `hash`, sits: the tags are
    /// searched in the chunk, and only an entry whose tag is `hash` is
    /// read, its key compared with `bcp`'s bytes. The key decides; two
    /// keys of one hash are two entries.
    fn find(&self, hash: u64, bcp: &BcpKey) -> Option<At> {
        let ci = self.chunk_of(hash);
        let chunk = &self.0[ci];
        let first = chunk.partition_point(|(h, _)| *h < hash);
        let (key, frame) = (bcp.as_bytes(), packed::framed_len(bcp.as_bytes().len()));
        let i = chunk[first..]
            .iter()
            .take_while(|(h, _)| *h == hash)
            .position(|(_, e)| e.has_key(key, frame))?;
        Some((ci, first + i))
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
        Arc::make_mut(&mut self.chunk_mut(ci, 0)[i].1)
    }

    /// Chunk `ci`, writable with room for `extra` more entries: copied
    /// first, with the spine, where a reader still shares them. A copy
    /// holds what the write needs; a `Vec` clone at its length would
    /// double on the insert that follows.
    fn chunk_mut(&mut self, ci: usize, extra: usize) -> &mut Chunk {
        let chunk = &mut Arc::make_mut(&mut self.0)[ci];
        if Arc::get_mut(chunk).is_none() {
            let mut copy = Vec::with_capacity(chunk.len() + extra);
            copy.extend(chunk.iter().cloned());
            *chunk = Arc::new(copy);
        }
        Arc::get_mut(chunk).expect("a fresh copy is unshared")
    }

    /// Put `entry`, a rewrite of the entry at `(ci, i)`, in its place
    /// with the old one's hit count and completeness stamp, returning it
    /// writable. An entry a reader still shares is replaced, not copied:
    /// its old bytes are never duplicated only to be dropped.
    fn replace(&mut self, (ci, i): At, entry: Entry) -> &mut Entry {
        let slot = &mut self.chunk_mut(ci, 0)[i].1;
        let entry = Entry {
            hits: AtomicU64::new(slot.hits.load(Ordering::Acquire)),
            complete: slot.complete,
            ..entry
        };
        match Arc::get_mut(slot) {
            Some(old) => *old = entry,
            None => *slot = Arc::new(entry),
        }
        Arc::get_mut(slot).expect("an entry just written is unshared")
    }

    /// File `entry` under `hash`, after any entries of the same tag.
    fn insert(&mut self, hash: u64, entry: Entry) {
        let chunk = self.chunk_mut(self.chunk_of(hash), 1);
        let at = chunk.partition_point(|(h, _)| *h <= hash);
        chunk.insert(at, (hash, Arc::new(entry)));
    }

    fn remove(&mut self, (ci, i): At) -> Arc<Entry> {
        self.chunk_mut(ci, 0).remove(i).1
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
    /// Spine address of the table [`Self::published`] last handed out.
    /// The readers it went to keep that spine alive, so no later table
    /// can sit at the address while it is recorded here. Written only
    /// under the shard's write guard; atomic so `published` takes
    /// `&self`.
    published_spine: AtomicUsize,
    /// The rows a write lays out before front-coding them.
    staged: Staged,
    /// The buffer a fill's or a removal's walk over an entry rebuilds a
    /// row in while it stages the rows.
    row: Vec<u8>,
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
            published_spine: AtomicUsize::new(0),
            staged: Staged::default(),
            row: Vec::new(),
        }
    }

    /// What a reader of this store sees now: its table (a pointer copy),
    /// insert watermark and quarantine flag. Records the table as handed
    /// out; the caller gives it to readers.
    pub(crate) fn published(&self) -> Published {
        self.published_spine
            .store(self.table.addr(), Ordering::Release);
        Published {
            table: self.table.clone(),
            inserts_seen: self.inserts_seen,
            quarantined: self.quarantined,
        }
    }

    /// Whether the table changed since [`Self::published`] last handed
    /// it out: what a shard must republish.
    pub(crate) fn unpublished(&self) -> bool {
        self.table.addr() != self.published_spine.load(Ordering::Acquire)
    }

    /// The one hash of `bcp`, over its packed bytes: it picks the shard
    /// (from its low half), the chunk (from its high bits), the tag a
    /// chunk is ordered by, and the admission sketch's counters.
    #[inline]
    pub(crate) fn hash_of(bcp: &BcpKey) -> u64 {
        hash_bytes(bcp.as_bytes())
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
    pub fn mark_complete<'k>(&mut self, bcp: impl Into<Hashed<'k>>, inserts_at: u64) -> bool {
        let bcp = bcp.into();
        if self.quarantined || inserts_at != self.inserts_seen {
            return false;
        }
        let Some(at) = self.table.find(bcp.hash, bcp.bcp) else {
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

    /// The tuples cached for `bcp`, if resident, front-coded back to back
    /// in one byte string ([`packed::cursor`] walks them). Does not touch
    /// the policy. Its length counts bytes: [`Self::rows`] counts tuples
    /// and carries their fill epochs.
    pub fn lookup<'k>(&self, bcp: impl Into<Hashed<'k>>) -> Option<&[u8]> {
        self.rows(bcp).map(Rows::bytes)
    }

    /// The tuples cached for `bcp`, with their fill epochs, if resident.
    /// Does not touch the policy.
    pub fn rows<'k>(&self, bcp: impl Into<Hashed<'k>>) -> Option<Rows<'_>> {
        let bcp = bcp.into();
        if self.quarantined {
            return None;
        }
        Some(self.table.get(bcp.hash, bcp.bcp)?.rows())
    }

    /// Record a query access to `bcp` (Operation O2) and count a hit if it
    /// served results. Copies nothing: the hit count is bumped in place.
    pub fn touch<'k>(&mut self, bcp: impl Into<Hashed<'k>>, served: bool) {
        let bcp = bcp.into();
        self.policy.touch(bcp.bcp);
        if served {
            if let Some(e) = self.table.get(bcp.hash, bcp.bcp) {
                e.hits.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Count one access of `bcp` in the admission sketch. Callers count
    /// a bcp once per query, and only when it has rows (it served a
    /// partial or O3 produced some): probes of empty bcps would swamp
    /// the sample.
    pub fn note_access<'k>(&mut self, bcp: impl Into<Hashed<'k>>) {
        self.sketch.increment(bcp.into().hash);
    }

    /// Ask the policy to make `bcp` resident (Operation O3, once per bcp
    /// per query), through the admission rule: into a full store, only
    /// when `bcp` out-counts the victim. Evicted entries are purged.
    pub fn admit<'k>(&mut self, bcp: impl Into<Hashed<'k>>) -> Residency {
        let bcp = bcp.into();
        if self.quarantined {
            return Residency::Probation;
        }
        let policy = &mut *self.policy;
        match admit_if_warmer(policy, &self.sketch, bcp.bcp, bcp.hash, Self::hash_of) {
            None => Residency::Declined,
            Some(AdmitOutcome::Resident { evicted }) => {
                for victim in evicted {
                    self.evict(Self::hash_of(&victim), &victim);
                }
                Residency::Resident
            }
            Some(AdmitOutcome::Probation) => Residency::Probation,
        }
    }

    /// Purge the entry of `victim`, filed under `hash`, which the policy
    /// evicted: its rows leave the index, its charge the byte count.
    fn evict(&mut self, hash: u64, victim: &BcpKey) {
        let Some(at) = self.table.find(hash, victim) else {
            return;
        };
        let e = self.table.remove(at);
        self.entries -= 1;
        self.bytes -= e.charge();
        self.evictions += 1;
        if let Some(ix) = &mut self.index {
            // An eviction stages nothing, so the victim's rows are rebuilt
            // in the staging bytes: the fill that wrote the victim grew
            // them to hold all its rows, and nothing is allocated here.
            let mut rows = e.rows().iter(&mut self.staged.bytes);
            while let Some((row, _)) = rows.next_row() {
                ix.remove_from(victim, row);
            }
        }
    }

    /// Store one result tuple under a resident `bcp`, packed whole: a
    /// [`Self::fill`] of one row. Returns whether it was stored.
    pub fn push_arc<'k>(
        &mut self,
        bcp: impl Into<Hashed<'k>>,
        tuple: Arc<Tuple>,
        epoch: u64,
    ) -> bool {
        self.fill(bcp, std::iter::once(tuple.values().iter()), epoch) == 1
    }

    /// Store result tuples under a resident `bcp`, each given as its
    /// values in the store's layout, stamped with the epoch they were
    /// computed at, until the entry holds `F`. Returns how many were
    /// stored: none when the bcp is not resident or the entry is full.
    ///
    /// The entry is rewritten whole, its rows and the new ones laid out
    /// in the store's scratch and front-coded into one allocation: none
    /// per row. Each row's values are walked twice: once to size the
    /// row, once to write it.
    pub fn fill<'k, 'v, R, V>(&mut self, bcp: impl Into<Hashed<'k>>, rows: R, epoch: u64) -> usize
    where
        R: Iterator<Item = V>,
        V: Iterator<Item = &'v Value> + Clone,
    {
        let bcp = bcp.into();
        if self.quarantined || !self.policy.contains(bcp.bcp) {
            return 0;
        }
        let at = self.table.find(bcp.hash, bcp.bcp);
        let old = at.map(|at| self.table.at(at));
        let staged = &mut self.staged;
        staged.clear();
        if let Some(old) = old {
            let mut rows = old.rows().iter(&mut self.row);
            while let Some((row, e)) = rows.next_row() {
                staged.push(row, e);
            }
        }
        let old_len = staged.len();
        for values in rows.take(self.f.saturating_sub(old_len)) {
            staged.push_values(values, epoch);
        }
        let n = staged.len() - old_len;
        if n == 0 {
            return 0;
        }
        let entry = Entry::write(bcp.bcp.row(), staged);
        if let Some(ix) = &mut self.index {
            for (row, _, _) in staged.iter().skip(old_len) {
                ix.file(bcp.bcp, row);
            }
        }
        self.bytes = self.bytes - old.map_or(0, Entry::charge) + entry.charge();
        match at {
            Some(at) => {
                self.table.replace(at, entry);
            }
            None => {
                self.table.insert(bcp.hash, entry);
                self.entries += 1;
            }
        }
        n
    }

    /// Remove one occurrence of `tuple`, in the store's layout, under
    /// `bcp`, compared byte for byte (a bridge join's or revalidation's
    /// removal, which holds the row). Returns whether a tuple was removed.
    pub fn remove_tuple(&mut self, bcp: &BcpKey, tuple: RowRef<'_>) -> bool {
        let mut found = false;
        let removed = self.retain(bcp, |row| {
            let hit = !found && row == tuple;
            found |= hit;
            !hit
        });
        removed == 1
    }

    /// Remove every tuple under `bcp` whose packed bytes hash to `hash`
    /// — a delta-key index posting ([`Supported`]) — returning how many
    /// went. On a hash collision that is more than the posting's row:
    /// sound, as any over-removal from a partial view is.
    pub fn remove_filed(&mut self, (bcp, hash): &Supported) -> usize {
        self.retain(bcp, |row| row_hash(row) != *hash)
    }

    /// Drop the tuples under `bcp` that `keep` refuses — asked once per
    /// tuple, in order — returning how many went (PMV maintenance after
    /// a base-relation delete or update, and revalidation). A dropped
    /// tuple is unfiled from the delta-key index; an entry left empty
    /// is removed, its policy frame with it; one left with tuples can no
    /// longer claim to hold the bcp's entire truth — the removal may be
    /// conservative.
    pub fn retain(&mut self, bcp: &BcpKey, mut keep: impl FnMut(RowRef<'_>) -> bool) -> usize {
        let Some(at) = self.table.find(Self::hash_of(bcp), bcp) else {
            return 0;
        };
        let entry = self.table.at(at);
        let staged = &mut self.staged;
        staged.clear();
        let mut dropped = 0;
        let mut rows = entry.rows().iter(&mut self.row);
        while let Some((row, epoch)) = rows.next_row() {
            if keep(row) {
                staged.push(row, epoch);
            } else {
                dropped += 1;
                if let Some(ix) = &mut self.index {
                    ix.remove_from(bcp, row);
                }
            }
        }
        if dropped == 0 {
            return 0;
        }
        let old_charge = entry.charge();
        if staged.len() == 0 {
            self.table.remove(at);
            self.entries -= 1;
            self.bytes -= old_charge;
            self.policy.remove(bcp);
            return dropped;
        }
        // The kept rows are written afresh: the row after a dropped one is
        // re-based on the row now before it.
        let kept = Entry::write(entry.key(), staged);
        self.bytes = self.bytes - old_charge + kept.charge();
        self.table.replace(at, kept).complete = None;
        dropped
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
        self.table.entries().map(Entry::len).sum()
    }

    /// Bytes cached, exactly as charged: per entry [`HANDLE_BYTES`]
    /// (16 B) for the handle of its bytes, its key's frame — a byte of
    /// length for a key below 128 bytes, then the key's packed bytes —
    /// and its rows' frames as written, each front-coded against the row
    /// before it. The fill epochs, the scratch, the sketch, the policy's
    /// frames, the table's spine and chunk slots and the delta-key index
    /// are not charged.
    pub fn byte_size(&self) -> usize {
        self.bytes
    }

    /// Total entries evicted by the policy so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Iterate over `(bcp, cached tuples)` (diagnostics/tests), each key
    /// read back from its entry.
    pub fn iter(&self) -> impl Iterator<Item = (BcpKey, Rows<'_>)> {
        self.table
            .entries()
            .map(|e| (BcpKey::from_row(e.key()), e.rows()))
    }

    /// Check structural invariants, returning each violation as a
    /// message. Empty means consistent. Never panics.
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let (mut counted, mut recomputed, mut misframed) = (0, 0, false);
        for (ci, chunk) in self.table.chunks().iter().enumerate() {
            // Out of tag order, an entry is one the binary search misses.
            if !chunk.is_sorted_by_key(|(hash, _)| *hash) {
                violations.push(format!("chunk {ci} out of tag order"));
            }
            for (hash, e) in chunk.iter() {
                counted += 1;
                // Walked checked, as bytes read from disk are: a key or a
                // frame cut short is a violation, not a panic.
                let Ok((_, key_frame)) = packed::take_row(&e.bytes) else {
                    violations.push(format!("entry key misframed in chunk {ci}"));
                    misframed = true;
                    continue;
                };
                if key_frame != e.key_end as usize {
                    violations.push(format!(
                        "entry key frame in chunk {ci} ends at {key_frame}, recorded {}",
                        e.key_end
                    ));
                    misframed = true;
                    continue;
                }
                let k = BcpKey::from_row(e.key());
                let Some(rows) = e.bytes.get(key_frame + e.len() * EPOCH_BYTES..) else {
                    violations.push(format!("entry {k:?} cut short of its {} epochs", e.len));
                    misframed = true;
                    continue;
                };
                recomputed += e.charge();
                match packed::check_entry_rows(rows) {
                    Ok(framed) if framed != e.len() => violations.push(format!(
                        "entry {k:?} frames {framed} rows for {} epochs",
                        e.len
                    )),
                    Ok(_) => {}
                    Err(err) => {
                        violations.push(format!("entry rows misframed for {k:?}: {err}"));
                        misframed = true;
                    }
                }
                // Misplaced, an entry is one no lookup finds.
                if *hash != Self::hash_of(&k) || self.table.chunk_of(*hash) != ci {
                    violations.push(format!("entry {k:?} misplaced in chunk {ci}"));
                }
                if e.len == 0 {
                    violations.push(format!("empty entry for {k:?}"));
                }
                if e.len() > self.f {
                    violations.push(format!("entry over F for {k:?}"));
                }
                if !self.policy.contains(&k) {
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
        if recomputed != self.bytes && !misframed {
            violations.push(format!(
                "byte accounting drifted: recomputed {recomputed} != tracked {}",
                self.bytes
            ));
        }
        if let Some(ix) = self.index.as_ref().filter(|_| !misframed) {
            let (mut row, mut owned) = (Vec::new(), Vec::new());
            for (k, rows) in self.iter() {
                let mut rows = rows.iter(&mut row);
                while let Some((r, _)) = rows.next_row() {
                    owned.push((k.clone(), r.as_bytes().to_vec()));
                }
            }
            let cached: Vec<(BcpKey, RowRef<'_>)> = owned
                .iter()
                .map(|(k, r)| (k.clone(), RowRef::new(r)))
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
impl Table {
    /// Whether `self` and `other` are one spine: nothing was written
    /// since either was cloned from the other.
    pub(crate) fn ptr_eq(&self, other: &Table) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

#[cfg(test)]
impl PmvStore {
    /// The entry table.
    pub(crate) fn table(&self) -> &Table {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcp::BcpDim;
    use pmv_storage::{tuple, PackedRow, Value};

    fn bcp(x: i64) -> BcpKey {
        BcpKey::new(vec![BcpDim::Eq(Value::Int(x))])
    }

    fn cfg(f: usize, l: usize, policy: PolicyKind) -> PmvConfig {
        PmvConfig::new(f, l, policy)
    }

    /// The first bcp from 2 up, none of `others`, whose admission-sketch
    /// counters in a store of `l` frames are told apart from each of
    /// `others`': counting it leaves their estimates at 0. A sketch this
    /// small has one or two words of 16 counters, so two keys share all
    /// of theirs one time in four, and the tests below compare keys' own
    /// counts.
    fn apart(l: usize, others: &[i64]) -> i64 {
        (2..)
            .find(|k| {
                let mut sketch = FrequencySketch::new(l);
                sketch.increment(PmvStore::hash_of(&bcp(*k)));
                !others.contains(k)
                    && others
                        .iter()
                        .all(|o| sketch.estimate(PmvStore::hash_of(&bcp(*o))) == 0)
            })
            .expect("some key is told apart")
    }

    /// An entry of `k` holding the one row `(v)`, filled at epoch 0.
    fn entry(k: &BcpKey, v: i64) -> Entry {
        let mut rows = Staged::default();
        rows.push_values([Value::Int(v)].iter(), 0);
        Entry::write(k.row(), &rows)
    }

    /// The value of the one row an entry of [`entry`] holds.
    fn value(e: &Entry) -> Value {
        let mut row = Vec::new();
        let mut rows = e.rows().iter(&mut row);
        let (row, _) = rows.next_row().expect("a row");
        row.field(0).to_value()
    }

    /// Two keys filed under one hash are two entries: the key decides,
    /// not the hash. `Table::insert` takes the hash, so the test forces
    /// one; a lookup, an eviction and a removal each reach the entry of
    /// the key they name, and `check()` reports both entries, whose keys
    /// do not hash to their tag.
    #[test]
    fn the_key_decides_not_the_hash() {
        const FORCED: u64 = 0x5eed;
        let mut s = PmvStore::new(&cfg(1, 4, PolicyKind::Clock));
        let (one, two, three) = (bcp(1), bcp(2), bcp(3));
        for (k, v) in [(&one, 10), (&two, 20)] {
            assert_eq!(s.admit(k), Residency::Resident);
            let e = entry(k, v);
            s.bytes += e.charge();
            s.entries += 1;
            s.table.insert(FORCED, e);
        }
        assert_eq!(value(s.table.get(FORCED, &one).unwrap()), Value::Int(10));
        assert_eq!(value(s.table.get(FORCED, &two).unwrap()), Value::Int(20));
        assert!(s.table.get(FORCED, &three).is_none());
        let at = s.table.find(FORCED, &two).unwrap();
        assert_eq!(BcpKey::from_row(s.table.at(at).key()), two);
        let violations = s.check();
        for k in [&one, &two] {
            let misplaced = format!("entry {k:?} misplaced");
            assert!(
                violations.iter().any(|v| v.starts_with(&misplaced)),
                "{violations:?}"
            );
        }
        // Evicting one purges its entry, its charge with it, and leaves
        // the other's.
        let charge = s.table.get(FORCED, &two).unwrap().charge();
        s.evict(FORCED, &one);
        assert!(s.table.get(FORCED, &one).is_none());
        assert_eq!(value(s.table.get(FORCED, &two).unwrap()), Value::Int(20));
        assert_eq!(
            (s.entry_count(), s.evictions(), s.byte_size()),
            (1, 1, charge)
        );
        let at = s.table.find(FORCED, &two).unwrap();
        assert_eq!(BcpKey::from_row(s.table.remove(at).key()), two);
        assert!(s.table.get(FORCED, &two).is_none());
    }

    /// `check()` walks an entry's key checked: a key frame that does not
    /// decode is reported, not a panic, and so is an entry under its own
    /// hash in another chunk than the hash names.
    #[test]
    fn check_reports_a_misframed_key_and_a_misplaced_chunk() {
        let mut s = PmvStore::new(&cfg(1, 2 * CHUNK_ENTRIES, PolicyKind::Clock));
        assert_eq!(s.table.chunks().len(), 2);
        let k = bcp(7);
        assert_eq!(s.admit(&k), Residency::Resident);
        let hash = PmvStore::hash_of(&k);
        let e = entry(&k, 70);
        s.bytes += e.charge();
        s.entries += 1;
        let other = 1 - s.table.chunk_of(hash);
        s.table.chunk_mut(other, 1).push((hash, Arc::new(e)));
        let misplaced = format!("entry {k:?} misplaced in chunk {other}");
        assert!(s.check().contains(&misplaced), "{:?}", s.check());
        // A key whose frame says 5 bytes and holds one.
        let chunk = s.table.chunk_mut(other, 0);
        Arc::get_mut(&mut chunk[0].1).unwrap().bytes = vec![5, 1].into_boxed_slice();
        let violations = s.check();
        assert!(
            violations.contains(&format!("entry key misframed in chunk {other}")),
            "{violations:?}"
        );
    }

    /// `check()` walks an entry's front-coded rows checked, each fault
    /// reported where it lies, never a panic: a shared prefix on the
    /// first row, a shared prefix longer than the row before, a suffix
    /// cut short. The rows are `(1, 2)` and `(1, 3)`, packed `[1 1 1 2]`
    /// and `[1 1 1 3]`: the second keeps a byte and shares three.
    #[test]
    fn check_reports_misframed_entry_rows() {
        let mut s = PmvStore::new(&cfg(2, 4, PolicyKind::Clock));
        let k = bcp(7);
        let row = |b: i64| Tuple::new(vec![Value::Int(1), Value::Int(b)]);
        assert_eq!(s.admit(&k), Residency::Resident);
        assert!(s.push_arc(&k, Arc::new(row(2)), 0));
        assert!(s.push_arc(&k, Arc::new(row(3)), 0));
        let rows_at = k.as_bytes().len() + 1 + 2 * EPOCH_BYTES;
        let at = s.table.find(PmvStore::hash_of(&k), &k).unwrap();
        assert_eq!(
            s.table.at(at).bytes[rows_at..],
            [4 << 1, 1, 1, 1, 2, 1 << 1 | 1, 3, 3]
        );
        s.validate();
        for (rows, fault) in [
            (
                &[1 << 1 | 1, 3, 3, 4 << 1, 1, 1, 1, 2][..],
                "a shared prefix on an entry's first row at entry offset 0",
            ),
            (
                &[4 << 1, 1, 1, 1, 2, 1 << 1 | 1, 5, 3],
                "a shared prefix longer than the previous row at entry offset 5",
            ),
            (
                &[4 << 1, 1, 1, 1, 2, 2 << 1 | 1, 3, 3],
                "a suffix cut short at entry offset 5",
            ),
        ] {
            let e = s.table.at_mut(at);
            let mut bytes = e.bytes[..rows_at].to_vec();
            bytes.extend_from_slice(rows);
            e.bytes = bytes.into_boxed_slice();
            let violations = s.check();
            let want = format!("entry rows misframed for {k:?}: undecodable bytes: {fault}");
            assert_eq!(violations, [want]);
        }
    }

    #[test]
    fn push_respects_f() {
        let mut s = PmvStore::new(&cfg(2, 10, PolicyKind::Clock));
        assert_eq!(s.admit(&bcp(1)), Residency::Resident);
        assert!(s.push_arc(&bcp(1), Arc::new(tuple![1i64, 1i64]), 0));
        assert!(s.push_arc(&bcp(1), Arc::new(tuple![1i64, 2i64]), 0));
        assert!(!s.push_arc(&bcp(1), Arc::new(tuple![1i64, 3i64]), 0));
        assert_eq!(s.rows(&bcp(1)).unwrap().len(), 2);
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
        // Seen before, the newcomer out-counts both residents (never
        // counted).
        let new = apart(2, &[0, 1]);
        s.note_access(&bcp(new));
        s.admit(&bcp(new)); // evicts one of the two
        assert_eq!(s.entry_count(), 1);
        assert!(s.byte_size() < before);
        // As every production admit is followed by its fill.
        assert!(s.push_arc(&bcp(new), Arc::new(tuple![new]), 0));
        assert_eq!(s.evictions(), 1);
        s.validate();
    }

    /// A full store of L = 1 whose resident, bcp 1, was counted
    /// `resident` times; bcp 2 (or the next key the sketch tells apart
    /// from 1) then asks in, counted `candidate` times. Returns whether
    /// it displaced bcp 1.
    fn displaces(resident: usize, candidate: usize) -> bool {
        let two = apart(1, &[1]);
        let bcp = |k: i64| bcp(if k == 2 { two } else { k });
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
        let two = apart(1, &[1]);
        let bcp = |k: i64| bcp(if k == 2 { two } else { k });
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
        assert!(s.remove_tuple(&bcp(1), PackedRow::from(&tuple![7i64]).row()));
        assert_eq!(s.rows(&bcp(1)).unwrap().len(), 1);
        assert!(s.remove_tuple(&bcp(1), PackedRow::from(&tuple![7i64]).row()));
        // Entry is gone entirely.
        assert!(s.lookup(&bcp(1)).is_none());
        assert!(!s.remove_tuple(&bcp(1), PackedRow::from(&tuple![7i64]).row()));
        assert_eq!(s.byte_size(), 0);
        s.validate();
    }

    #[test]
    fn removed_entry_frees_policy_slot() {
        let mut s = PmvStore::new(&cfg(1, 1, PolicyKind::Clock));
        s.admit(&bcp(1));
        s.push_arc(&bcp(1), Arc::new(tuple![1i64]), 0);
        s.remove_tuple(&bcp(1), PackedRow::from(&tuple![1i64]).row());
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
        assert!(s.remove_tuple(&bcp(1), PackedRow::from(&tuple![1i64]).row()));
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
        assert!(step(&mut s, &|s| assert!(
            s.remove_tuple(&bcp(1), one.row())
        )));
        assert!(!step(&mut s, &|s| assert!(
            !s.remove_tuple(&bcp(1), one.row())
        )));
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
            let mut all: Vec<_> = t.entries().map(|e| (e.bytes.clone(), e.len())).collect();
            all.sort();
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
        let row = PackedRow::from(&tuple![7i64, 1i64]);
        assert_eq!(hit[0], (bcp(1), row_hash(row.row())));
        assert!(s.supported(0, &tuple![8i64, 1i64]).unwrap().is_empty());
        // Removing the supported tuple empties the index too.
        for posting in hit {
            assert_eq!(s.remove_filed(&posting), 1);
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
        s.remove_tuple(&bcp(1), PackedRow::from(&tuple![1i64]).row());
        assert_eq!(s.admit(&bcp(1)), Residency::Resident);
        assert!(s.push_arc(&bcp(1), Arc::new(tuple![3i64]), 0));
        assert_eq!(s.rows(&bcp(1)).unwrap().len(), 2);
        s.validate();
    }
}
