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
//! chunks, each entry in the chunk its bcp's hash names. A chunk is its
//! entries' bytes, back to back in one byte string, and one slot per
//! entry, in tag order: the hash tag, where the entry's bytes end (they
//! begin where the slot before ends), its row count, its completeness
//! stamp and its hit count. A lookup reads spine, chunk, slots and then
//! the entry's bytes; no entry is an allocation of its own. Every change
//! writes through `Arc::make_mut` from spine to chunk: while a reader
//! still holds the table, a change copies the spine and the chunk it
//! touches — the bytes before the entry, the entry's new bytes, the bytes
//! after, so no old byte is copied only to be dropped — and leaves the
//! reader's version whole; a chunk nobody shares is edited in place. A
//! [`crate::concurrent::SharedPmv`] holds one store per view and
//! publishes it by handing its readers a pointer copy of the store's
//! table; a store whose table is still the published one has nothing
//! new to publish.
//!
//! A view's store holds each entry's tuples in the view's
//! [`crate::view::StoredLayout`] — only the `Ls'` values its entry cannot
//! derive — packed and front-coded back to back: each row keeps only the
//! bytes it does not share with the row before it
//! ([`pmv_storage::packed`]'s entry frame). An entry's bytes are its
//! bcp's key, framed as the WAL frames a row; the rows' fill epochs; the
//! rows' frames. Every write of an entry's rows — a fill, a removal —
//! lays the rows out whole in the store's reused scratch and front-codes
//! them through one writer (`write_entry`) straight into the entry's
//! byte range, so a removal re-bases the row that followed the removed
//! one. A reader walks the rows with a [`RowCursor`], which lends a row
//! that shares nothing straight from the chunk and rebuilds one that
//! shares into a buffer the reader owns. The store itself never looks
//! inside a tuple — it holds, charges and compares the bytes it is given
//! — and its delta-key index reads the derived positions from each
//! tuple's bcp. [`PmvStore::new`] with [`DeltaKeyIndex::new`] holds full
//! rows.
//!
//! [`PmvStore::byte_size`] is exact under one rule: an entry is charged
//! [`HANDLE_BYTES`] (4 B) for the handle of its bytes — its slot's end
//! offset — its key's frame and its rows' frames as written — each a
//! header `LEB128(suffix_len << 1 | s)` (one byte while the suffix is
//! below 64 bytes), the `LEB128` count of bytes shared with the row
//! before when `s = 1`, and the suffix. A row frames no more than alone:
//! `LEB128(len << 1)` and its packed values. The fill epochs, the
//! slot's tag, row count, stamp and hit count, and the scratch are not
//! charged. A T1 key — two integers of 1–2 bytes behind one byte of
//! their two 4-bit tags — is 3–5 bytes behind a byte of length: 8–10 B
//! per entry with the handle. T1's tuples store five integers of the
//! 1–3 bytes their values need and two empty strings, which are their
//! tags alone, behind four tag bytes: at most 1 + 15 = 16 B per tuple,
//! and a lineitem that follows another of its order repeats the order's
//! leading bytes, which it keeps as a count.

use std::num::NonZeroU64;
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
/// rows: the handle of the entry's bytes, its slot's end offset in its
/// chunk's bytes, `size_of::<u32>()`.
pub const HANDLE_BYTES: usize = std::mem::size_of::<u32>();

/// Bytes a fill epoch takes in an entry: a `u64`, little-endian.
const EPOCH_BYTES: usize = std::mem::size_of::<u64>();

/// A bcp and the one hash of its packed bytes, which places it in a
/// view: chunk, tag and sketch counters. Every store method that
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
/// store write lays out before `write_entry` front-codes them into an
/// entry. The store keeps one and reuses it, so once it has grown a
/// write allocates only what its chunk needs.
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
        packed::append_row(&mut self.bytes, values);
        self.rows.push((self.bytes.len(), epoch));
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

/// A table's chunk count is `min(⌈L / CHUNK_ENTRIES⌉, MAX_CHUNKS)`: one
/// chunk per 32 entries of capacity, and never more than 120. The first
/// change after a publish copies the spine (8 B per chunk) and each chunk
/// it touches (a 32-B slot and the bytes of each of its entries; a cold
/// fill into a full store touches two). The cap keeps the spine's
/// allocation under 1 KiB (976 B): at the benchmark's L = 8 192 a
/// 256-chunk spine (2 KiB) cost `write_wal` a fifth to a third of its
/// query rate, and a 64-chunk table, some of whose chunks grew past
/// 1 KiB of bytes at `write_wal`'s ~790 entries, raised its
/// `query_p99_us` by 40–65 % (EXPERIMENTS.md, "One store per view"). That a copy of 1 KiB or
/// more is what costs — a request the allocator's per-thread cache does
/// not serve — is read off a per-query allocation count, not profiled
/// inside the allocator. Past `120 × 32` entries of capacity chunks
/// hold more than 32 entries: 83–167 at the paper's L of 10–20 K when
/// full, which no benchmark workload measures (`read_hot`'s view holds
/// 1 381 entries, about 12 per chunk). Derived, not configurable.
pub(crate) const CHUNK_ENTRIES: usize = 32;

/// The most chunks a table holds ([`CHUNK_ENTRIES`] gives the rule).
const MAX_CHUNKS: usize = 120;

/// One entry's place in its chunk. Readers of a published table share
/// it; the store copies it, with its chunk, before changing it.
#[derive(Debug)]
pub(crate) struct Slot {
    /// The hash the entry is filed under, which orders the chunk.
    tag: u64,
    /// Where the entry's bytes end in the chunk's: they begin where the
    /// slot before ends, or at 0. The handle of the entry's bytes, and
    /// charged as one ([`HANDLE_BYTES`]).
    end: u32,
    /// Rows held: with the key's frame, where the epochs end.
    len: u32,
    /// `w + 1` when this entry held the bcp's *entire* truth at
    /// insert-watermark `w` (a fill or upquery cached every matching
    /// tuple): kept one up, so that no stamp is the zero niche and the
    /// field takes 8 bytes, not 16 ([`Slot::complete`] reads it). The entry is still complete only
    /// while `w` equals the store's current [`PmvStore::inserts_seen`] —
    /// any later relevant insert may have added tuples the cache is
    /// missing. Maintenance removals clear it (conservative: a removal
    /// may drop a tuple the base still derives via another support).
    stamp: Option<NonZeroU64>,
    /// Times this bcp produced partial results (popularity ranking
    /// extension). Policy metadata no reader looks at, so it is counted
    /// in place, through a shared chunk, and copied along with one. Every
    /// access holds the store's lock: the atomic is what lets a shared
    /// slot be counted, not what orders it.
    hits: AtomicU64,
}

impl Slot {
    /// The completeness stamp: `Some(w)` when the entry held the bcp's
    /// entire truth at insert-watermark `w`.
    fn complete(&self) -> Option<u64> {
        self.stamp.map(|w| w.get() - 1)
    }

    fn set_complete(&mut self, w: Option<u64>) {
        self.stamp = w.map(|w| NonZeroU64::new(w + 1).expect("a watermark below u64::MAX"));
    }
}

impl Clone for Slot {
    fn clone(&self) -> Slot {
        Slot {
            hits: AtomicU64::new(self.hits.load(Ordering::Acquire)),
            ..*self
        }
    }
}

/// The entries whose hash falls in one chunk: their bytes back to back,
/// and a slot each, both in tag order, so a lookup binary-searches the
/// tags without leaving the slots and reads an entry's bytes only on a
/// tag match, to compare its key.
#[derive(Clone, Debug, Default)]
pub(crate) struct Chunk {
    slots: Vec<Slot>,
    /// Each entry's bytes: its bcp's key framed as a row is, then each
    /// row's fill epoch ([`EPOCH_BYTES`] each), then the rows framed back
    /// to back, rows and epochs in the order they were filled.
    bytes: Vec<u8>,
}

impl Chunk {
    /// Where entry `i`'s bytes lie.
    fn range(&self, i: usize) -> std::ops::Range<usize> {
        let start = i.checked_sub(1).map_or(0, |p| self.slots[p].end as usize);
        start..self.slots[i].end as usize
    }

    /// Entry `i`.
    fn entry(&self, i: usize) -> EntryRef<'_> {
        EntryRef::new(&self.slots[i], &self.bytes[self.range(i)])
    }

    /// Each entry with the tag it is filed under, in tag order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, EntryRef<'_>)> {
        (0..self.slots.len()).map(|i| (self.slots[i].tag, self.entry(i)))
    }

    /// This chunk with the bytes in `range` replaced by `n` zero bytes,
    /// built as the bytes before, the new ones and the bytes after, at
    /// the size the write needs, with room for `extra` more slots: what a
    /// write into a chunk a reader shares copies.
    fn spliced(&self, range: std::ops::Range<usize>, n: usize, extra: usize) -> Chunk {
        let mut bytes = Vec::with_capacity(self.bytes.len() - range.len() + n);
        bytes.extend_from_slice(&self.bytes[..range.start]);
        bytes.resize(range.start + n, 0);
        bytes.extend_from_slice(&self.bytes[range.end..]);
        let mut slots = Vec::with_capacity(self.slots.len() + extra);
        slots.extend(self.slots.iter().cloned());
        Chunk { slots, bytes }
    }

    /// Replace the bytes in `range` by `n` bytes, in place: the bytes
    /// after move once, and the `n` bytes keep whatever lay there.
    fn splice(&mut self, range: std::ops::Range<usize>, n: usize) {
        let (old, len) = (range.len(), self.bytes.len());
        if n == old {
            return;
        }
        if n > old {
            self.bytes.reserve_exact(n - old);
            self.bytes.resize(len + n - old, 0);
        }
        self.bytes.copy_within(range.end..len, range.start + n);
        self.bytes.truncate(len + n - old);
    }

    /// Move the ends of the slots from `i` on by a splice that put `new`
    /// bytes where `old` were.
    fn shift(&mut self, i: usize, old: usize, new: usize) {
        for slot in &mut self.slots[i..] {
            slot.end = offset(slot.end as usize - old + new);
        }
    }
}

/// `at` as a chunk offset.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("a chunk below 4 GiB")
}

/// One entry, borrowed from its chunk: its bcp's packed key, its rows
/// and its completeness stamp.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EntryRef<'a> {
    /// The bcp's packed key.
    pub(crate) key: RowRef<'a>,
    /// The cached tuples.
    pub(crate) rows: Rows<'a>,
    /// The completeness stamp ([`Slot::complete`]).
    pub(crate) complete: Option<u64>,
    hits: &'a AtomicU64,
}

impl<'a> EntryRef<'a> {
    /// The entry of `slot`, whose bytes are `bytes`: the key's frame is
    /// read to find where the epochs begin.
    #[inline]
    fn new(slot: &'a Slot, bytes: &'a [u8]) -> Self {
        let (key, rest) = packed::split_frame(bytes);
        let (epochs, rows) = rest.split_at(slot.len as usize * EPOCH_BYTES);
        EntryRef {
            key,
            rows: Rows {
                bytes: rows,
                epochs,
            },
            complete: slot.complete(),
            hits: &slot.hits,
        }
    }

    /// What the entry is charged: the handle of its bytes, its key's
    /// frame and its rows' frames.
    fn charge(&self) -> usize {
        HANDLE_BYTES + packed::framed_len(self.key.as_bytes().len()) + self.rows.bytes.len()
    }
}

/// Bytes of an entry of `key` holding `rows`: its key's frame, the
/// rows' epochs and the rows front-coded, each against the row before.
fn entry_len(key: RowRef<'_>, rows: &Staged) -> usize {
    let framed: usize = rows
        .iter()
        .map(|(row, prev, _)| packed::entry_row_len(row, prev))
        .sum();
    packed::framed_len(key.as_bytes().len()) + rows.len() * EPOCH_BYTES + framed
}

/// What an entry of `len` bytes holding `rows` rows is charged: the
/// handle of its bytes, and its bytes but for the epochs.
fn charge(len: usize, rows: usize) -> usize {
    HANDLE_BYTES + len - rows * EPOCH_BYTES
}

/// Write the entry of `key` holding `rows`, in their order, each
/// front-coded against the row before it, into `out`, which holds its
/// [`entry_len`] bytes: the one writer of an entry's rows.
fn write_entry(out: &mut [u8], key: RowRef<'_>, rows: &Staged) {
    let key_frame = packed::put_packed_frame(out, key);
    let (epochs, framed) = out[key_frame..].split_at_mut(rows.len() * EPOCH_BYTES);
    let mut end = 0;
    for ((row, prev, epoch), e) in rows.iter().zip(epochs.chunks_exact_mut(EPOCH_BYTES)) {
        e.copy_from_slice(&epoch.to_le_bytes());
        end += packed::put_entry_row(&mut framed[end..], row, prev);
    }
    debug_assert_eq!(end, framed.len());
}

/// The store's entry table: a spine of `Arc`-shared chunks, each entry
/// in the chunk its [`PmvStore::hash_of`] names. A clone copies one
/// pointer; a write copies what a clone still shares.
#[derive(Clone)]
pub(crate) struct Table(Arc<[Arc<Chunk>]>);

/// Where an entry sits: chunk, then slot in the chunk.
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
    /// divide.
    pub(crate) fn chunk_of(&self, hash: u64) -> usize {
        ((u128::from(hash) * self.0.len() as u128) >> 64) as usize
    }

    /// Where the spine sits: two live tables share it exactly when
    /// nothing was written since either was cloned from the other.
    fn addr(&self) -> usize {
        Arc::as_ptr(&self.0).cast::<u8>() as usize
    }

    /// The entry of `bcp`, filed under `hash`, and where it sits: the
    /// tags are searched in the chunk, and only an entry whose tag is
    /// `hash` is read — its leading bytes compared with `bcp`'s key
    /// frame in place — and only the one that matches is split into key,
    /// epochs and rows. The key decides; two keys of one hash are two
    /// entries.
    fn find(&self, hash: u64, bcp: &BcpKey) -> Option<(At, EntryRef<'_>)> {
        let ci = self.chunk_of(hash);
        let chunk = &self.0[ci];
        let first = chunk.slots.partition_point(|s| s.tag < hash);
        let i = (first..chunk.slots.len())
            .take_while(|&i| chunk.slots[i].tag == hash)
            .find(|&i| packed::starts_with_frame(&chunk.bytes[chunk.range(i)], bcp.row()))?;
        Some(((ci, i), chunk.entry(i)))
    }

    /// `bcp`'s entry; `hash` is its [`PmvStore::hash_of`].
    #[inline]
    pub(crate) fn get(&self, hash: u64, bcp: &BcpKey) -> Option<EntryRef<'_>> {
        self.find(hash, bcp).map(|(_, e)| e)
    }

    /// Chunk `ci`, writable, its bytes in `range` replaced by `n` bytes
    /// for the caller to write, with room for `extra` more slots: copied
    /// first as prefix, new bytes and suffix, with the spine, where a
    /// reader still shares them; edited in place where nobody does.
    fn splice(
        &mut self,
        ci: usize,
        range: std::ops::Range<usize>,
        n: usize,
        extra: usize,
    ) -> &mut Chunk {
        let chunk = &mut Arc::make_mut(&mut self.0)[ci];
        if let Some(chunk) = Arc::get_mut(chunk) {
            chunk.splice(range, n);
        } else {
            *chunk = Arc::new(chunk.spliced(range, n, extra));
        }
        Arc::get_mut(chunk).expect("a written chunk is unshared")
    }

    /// The slot at `(ci, i)`, writable: copied first, with its chunk and
    /// the spine, where a reader still shares them.
    fn slot_mut(&mut self, (ci, i): At) -> &mut Slot {
        &mut self.splice(ci, 0..0, 0, 0).slots[i]
    }

    /// Rewrite the entry at `(ci, i)` as one of `rows` rows in `n` bytes,
    /// which `write` writes, returning its slot writable; it keeps its
    /// hit count and completeness stamp.
    fn rewrite(
        &mut self,
        (ci, i): At,
        rows: usize,
        n: usize,
        write: impl FnOnce(&mut [u8]),
    ) -> &mut Slot {
        let range = self.0[ci].range(i);
        let chunk = self.splice(ci, range.clone(), n, 0);
        write(&mut chunk.bytes[range.start..range.start + n]);
        chunk.shift(i, range.len(), n);
        chunk.slots[i].len = u32::try_from(rows).expect("F below 2^32");
        &mut chunk.slots[i]
    }

    /// File an entry of `rows` rows in `n` bytes, which `write` writes,
    /// under `hash`, after any entries of the same tag.
    fn insert(&mut self, hash: u64, rows: usize, n: usize, write: impl FnOnce(&mut [u8])) {
        self.insert_in(self.chunk_of(hash), hash, rows, n, write);
    }

    /// [`Self::insert`] into chunk `ci`, whichever the hash names.
    fn insert_in(
        &mut self,
        ci: usize,
        hash: u64,
        rows: usize,
        n: usize,
        write: impl FnOnce(&mut [u8]),
    ) {
        let slots = &self.0[ci].slots;
        let i = slots.partition_point(|s| s.tag <= hash);
        let start = i.checked_sub(1).map_or(0, |p| slots[p].end as usize);
        let chunk = self.splice(ci, start..start, n, 1);
        write(&mut chunk.bytes[start..start + n]);
        let slot = Slot {
            tag: hash,
            end: offset(start),
            len: u32::try_from(rows).expect("F below 2^32"),
            stamp: None,
            hits: AtomicU64::new(0),
        };
        chunk.slots.reserve_exact(1);
        chunk.slots.insert(i, slot);
        chunk.shift(i, 0, n);
    }

    /// Drop the entry at `(ci, i)`.
    fn remove(&mut self, (ci, i): At) {
        let range = self.0[ci].range(i);
        let chunk = self.splice(ci, range.clone(), 0, 0);
        chunk.slots.remove(i);
        chunk.shift(i, range.len(), 0);
    }

    /// Every entry, chunk by chunk.
    fn entries(&self) -> impl Iterator<Item = EntryRef<'_>> {
        self.0.iter().flat_map(|c| c.entries().map(|(_, e)| e))
    }

    /// Every slot, chunk by chunk.
    fn slots(&self) -> impl Iterator<Item = &Slot> {
        self.0.iter().flat_map(|c| c.slots.iter())
    }
}

/// What readers of a store see: a pointer copy of its table, and the
/// insert watermark that goes with it.
pub(crate) struct Published {
    pub(crate) table: Table,
    pub(crate) inserts_seen: u64,
}

/// Bounded store of hot query results, keyed by basic condition part.
pub struct PmvStore {
    table: Table,
    /// Entries in `table`.
    entries: usize,
    policy: Box<dyn ReplacementPolicy<BcpKey> + Send + Sync>,
    /// Which policy `policy` was built from, kept so [`Self::clear`]
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
    /// Spine address of the table [`Self::published`] last handed out.
    /// The readers it went to keep that spine alive, so no later table
    /// can sit at the address while it is recorded here. Written only
    /// under the store's write guard; atomic so `published` takes
    /// `&self`.
    published_spine: AtomicUsize,
    /// The rows a write lays out before front-coding them.
    staged: Staged,
    /// The buffer a fill's or a removal's walk over an entry rebuilds a
    /// row in while it stages the rows.
    row: Vec<u8>,
}

impl PmvStore {
    /// Empty store of at most `config.l` entries ("Initially, V_PM is
    /// empty").
    pub fn new(config: &PmvConfig) -> Self {
        let l = config.l.max(1);
        PmvStore {
            table: Table::new(l.div_ceil(CHUNK_ENTRIES).min(MAX_CHUNKS)),
            entries: 0,
            policy: config.policy.build(l),
            policy_kind: config.policy,
            sketch: FrequencySketch::new(l),
            f: config.f,
            bytes: 0,
            evictions: 0,
            index: None,
            inserts_seen: 0,
            published_spine: AtomicUsize::new(0),
            staged: Staged::default(),
            row: Vec::new(),
        }
    }

    /// What a reader of this store sees now: its table (a pointer copy)
    /// and insert watermark. Records the table as handed out; the caller
    /// gives it to readers.
    pub(crate) fn published(&self) -> Published {
        self.published_spine
            .store(self.table.addr(), Ordering::Release);
        Published {
            table: self.table.clone(),
            inserts_seen: self.inserts_seen,
        }
    }

    /// Whether the table changed since [`Self::published`] last handed
    /// it out: what the view must republish.
    pub(crate) fn unpublished(&self) -> bool {
        self.table.addr() != self.published_spine.load(Ordering::Acquire)
    }

    /// The one hash of `bcp`, over its packed bytes: it picks the chunk
    /// (from its high bits), the tag a chunk is ordered by, and the
    /// admission sketch's counters.
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
        if inserts_at != self.inserts_seen {
            return false;
        }
        let Some((at, entry)) = self.table.find(bcp.hash, bcp.bcp) else {
            return false;
        };
        if entry.complete != Some(inserts_at) {
            self.table.slot_mut(at).set_complete(Some(inserts_at));
        }
        true
    }

    /// Whether `bcp`'s entry currently holds the bcp's entire truth:
    /// marked complete and no relevant insert has landed since.
    pub fn entry_complete(&self, bcp: &BcpKey) -> bool {
        self.table
            .get(Self::hash_of(bcp), bcp)
            .is_some_and(|e| e.complete == Some(self.inserts_seen))
    }

    /// Max tuples per bcp (`F`).
    pub fn f(&self) -> usize {
        self.f
    }

    /// Resident fraction of the policy's capacity in `[0, 1]` — the
    /// `occupancy` telemetry gauge.
    pub fn occupancy(&self) -> f64 {
        self.policy.occupancy()
    }

    /// Drop every entry after the store's contents became untrustworthy
    /// (a panic mid-mutation, or maintenance that could not repair it):
    /// the policy and index are rebuilt empty. Removal-only, so it can
    /// never cause a stale tuple to be served. The admission sketch
    /// keeps its counts: they describe the workload, not the dropped
    /// contents. What stops the view serving and filling afterwards is
    /// its circuit breaker, which the caller trips.
    pub fn clear(&mut self) {
        self.table = Table::new(self.table.chunks().len());
        self.entries = 0;
        self.bytes = 0;
        self.policy = self.policy_kind.build(self.policy.capacity());
        if let Some(ix) = &mut self.index {
            ix.clear();
        }
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
        Some(self.table.get(bcp.hash, bcp.bcp)?.rows)
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
        let Some((at, e)) = self.table.find(hash, victim) else {
            return;
        };
        self.bytes -= e.charge();
        if let Some(ix) = &mut self.index {
            // An eviction stages nothing, so a victim's row that shares
            // is rebuilt in the staging bytes: the fill that wrote the
            // victim grew them to hold all its rows, and nothing is
            // allocated here.
            let mut rows = e.rows.iter(&mut self.staged.bytes);
            while let Some((row, _)) = rows.next_row() {
                ix.remove_from(victim, row);
            }
        }
        self.table.remove(at);
        self.entries -= 1;
        self.evictions += 1;
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
    /// in the store's scratch and front-coded straight into its byte
    /// range in its chunk: nothing is allocated per row. Each row's
    /// values are walked twice: once to size the row, once to write it.
    pub fn fill<'k, 'v, R, V>(&mut self, bcp: impl Into<Hashed<'k>>, rows: R, epoch: u64) -> usize
    where
        R: Iterator<Item = V>,
        V: Iterator<Item = &'v Value> + Clone,
    {
        let bcp = bcp.into();
        if !self.policy.contains(bcp.bcp) {
            return 0;
        }
        let found = self.table.find(bcp.hash, bcp.bcp);
        let staged = &mut self.staged;
        staged.clear();
        let mut old_charge = 0;
        if let Some((_, old)) = found {
            old_charge = old.charge();
            let mut rows = old.rows.iter(&mut self.row);
            while let Some((row, e)) = rows.next_row() {
                staged.push(row, e);
            }
        }
        let at = found.map(|(at, _)| at);
        let old_len = staged.len();
        for values in rows.take(self.f.saturating_sub(old_len)) {
            staged.push_values(values, epoch);
        }
        let n = staged.len() - old_len;
        if n == 0 {
            return 0;
        }
        if let Some(ix) = &mut self.index {
            for (row, _, _) in staged.iter().skip(old_len) {
                ix.file(bcp.bcp, row);
            }
        }
        let key = bcp.bcp.row();
        let len = entry_len(key, staged);
        let write = |out: &mut [u8]| write_entry(out, key, staged);
        match at {
            Some(at) => {
                self.table.rewrite(at, staged.len(), len, write);
            }
            None => {
                self.table.insert(bcp.hash, staged.len(), len, write);
                self.entries += 1;
            }
        }
        self.bytes = self.bytes - old_charge + charge(len, staged.len());
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
        let Some((at, entry)) = self.table.find(Self::hash_of(bcp), bcp) else {
            return 0;
        };
        let staged = &mut self.staged;
        staged.clear();
        let mut dropped = 0;
        let mut rows = entry.rows.iter(&mut self.row);
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
        let key = bcp.row();
        let len = entry_len(key, staged);
        let write = |out: &mut [u8]| write_entry(out, key, staged);
        self.table
            .rewrite(at, staged.len(), len, write)
            .set_complete(None);
        self.bytes = self.bytes - old_charge + charge(len, staged.len());
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
        self.table.slots().map(|s| s.len as usize).sum()
    }

    /// Bytes cached, exactly as charged: per entry [`HANDLE_BYTES`]
    /// (4 B) for the handle of its bytes — its slot's end offset in its
    /// chunk's bytes — its key's frame — a byte of length for a key below
    /// 128 bytes, then the key's packed bytes — and its rows' frames as
    /// written, each front-coded against the row before it. The fill
    /// epochs, the rest of each slot (its tag, row count, completeness
    /// stamp and hit count), the scratch, the sketch, the policy's
    /// frames, the table's spine and the delta-key index are not
    /// charged.
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
            .map(|e| (BcpKey::from_row(e.key), e.rows))
    }

    /// Check structural invariants, returning each violation as a
    /// message. Empty means consistent. Never panics.
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let (mut counted, mut recomputed, mut misframed) = (0, 0, false);
        for (ci, chunk) in self.table.chunks().iter().enumerate() {
            // Out of tag order, an entry is one the binary search misses.
            if !chunk.slots.is_sorted_by_key(|s| s.tag) {
                violations.push(format!("chunk {ci} out of tag order"));
            }
            let mut start = 0;
            for slot in &chunk.slots {
                counted += 1;
                // Walked checked, as bytes read from disk are: an end out
                // of place, a key or a frame cut short is a violation,
                // not a panic.
                let end = slot.end as usize;
                let Some(bytes) = chunk.bytes.get(start..end) else {
                    violations.push(format!(
                        "entry in chunk {ci} ends at {end}, outside {start}..={}",
                        chunk.bytes.len()
                    ));
                    misframed = true;
                    start = start.max(end);
                    continue;
                };
                start = end;
                let Ok((_, key_frame)) = packed::take_row(bytes) else {
                    violations.push(format!("entry key misframed in chunk {ci}"));
                    misframed = true;
                    continue;
                };
                let k = BcpKey::from_row(packed::split_frame(bytes).0);
                let len = slot.len as usize;
                let Some(rows) = bytes.get(key_frame + len * EPOCH_BYTES..) else {
                    violations.push(format!("entry {k:?} cut short of its {len} epochs"));
                    misframed = true;
                    continue;
                };
                recomputed += charge(bytes.len(), len);
                match packed::check_entry_rows(rows) {
                    Ok(framed) if framed != len => violations
                        .push(format!("entry {k:?} frames {framed} rows for {len} epochs")),
                    Ok(_) => {}
                    Err(err) => {
                        violations.push(format!("entry rows misframed for {k:?}: {err}"));
                        misframed = true;
                    }
                }
                // Misplaced, an entry is one no lookup finds.
                if slot.tag != Self::hash_of(&k) || self.table.chunk_of(slot.tag) != ci {
                    violations.push(format!("entry {k:?} misplaced in chunk {ci}"));
                }
                if len == 0 {
                    violations.push(format!("empty entry for {k:?}"));
                }
                if len > self.f {
                    violations.push(format!("entry over F for {k:?}"));
                }
                if !self.policy.contains(&k) {
                    violations.push(format!("entry {k:?} not resident in policy"));
                }
                if let Some(w) = slot.complete().filter(|&w| w > self.inserts_seen) {
                    violations.push(format!(
                        "completeness stamp from the future for {k:?}: {w} > {}",
                        self.inserts_seen
                    ));
                }
            }
            if start < chunk.bytes.len() {
                violations.push(format!(
                    "chunk {ci} holds {} bytes past its last entry",
                    chunk.bytes.len() - start
                ));
                misframed = true;
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

    /// File an entry of `k` holding the one row `(v)`, filled at epoch 0,
    /// under `hash` in chunk `ci`, counted and charged as the store
    /// counts and charges one.
    fn file_in(s: &mut PmvStore, ci: usize, hash: u64, k: &BcpKey, v: i64) {
        let mut rows = Staged::default();
        rows.push_values([Value::Int(v)].iter(), 0);
        let len = entry_len(k.row(), &rows);
        let write = |out: &mut [u8]| write_entry(out, k.row(), &rows);
        s.table.insert_in(ci, hash, 1, len, write);
        s.bytes += charge(len, 1);
        s.entries += 1;
    }

    /// The value of the one row an entry of [`file_in`] holds.
    fn value(e: EntryRef<'_>) -> Value {
        let mut row = Vec::new();
        let mut rows = e.rows.iter(&mut row);
        let (row, _) = rows.next_row().expect("a row");
        row.field(0).to_value()
    }

    /// The bytes of the entry at `(ci, i)`: key frame, epochs, rows.
    fn entry_bytes(t: &Table, (ci, i): At) -> &[u8] {
        &t.0[ci].bytes[t.0[ci].range(i)]
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
            let ci = s.table.chunk_of(FORCED);
            file_in(&mut s, ci, FORCED, k, v);
        }
        assert_eq!(value(s.table.get(FORCED, &one).unwrap()), Value::Int(10));
        assert_eq!(value(s.table.get(FORCED, &two).unwrap()), Value::Int(20));
        assert!(s.table.get(FORCED, &three).is_none());
        let (_, e) = s.table.find(FORCED, &two).unwrap();
        assert_eq!(BcpKey::from_row(e.key), two);
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
        let (at, _) = s.table.find(FORCED, &two).unwrap();
        s.table.remove(at);
        assert!(s.table.get(FORCED, &two).is_none());
        assert!(s.table.chunks().iter().all(|c| c.bytes.is_empty()));
    }

    /// `check()` walks a chunk checked: an entry under its own hash in
    /// another chunk than the hash names, a key frame that does not
    /// decode, an end past the chunk's bytes and bytes past the last
    /// entry are each reported, never a panic.
    #[test]
    fn check_reports_a_misframed_key_and_a_misplaced_chunk() {
        let mut s = PmvStore::new(&cfg(1, 2 * CHUNK_ENTRIES, PolicyKind::Clock));
        assert_eq!(s.table.chunks().len(), 2);
        let k = bcp(7);
        assert_eq!(s.admit(&k), Residency::Resident);
        let hash = PmvStore::hash_of(&k);
        let other = 1 - s.table.chunk_of(hash);
        file_in(&mut s, other, hash, &k, 70);
        let misplaced = format!("entry {k:?} misplaced in chunk {other}");
        assert!(s.check().contains(&misplaced), "{:?}", s.check());
        // A key whose frame says 5 bytes and holds one.
        let chunk = s.table.splice(other, 0..0, 0, 0);
        (chunk.bytes, chunk.slots[0].end) = (vec![5, 1], 2);
        let violations = s.check();
        assert!(
            violations.contains(&format!("entry key misframed in chunk {other}")),
            "{violations:?}"
        );
        let chunk = s.table.splice(other, 0..0, 0, 0);
        chunk.slots[0].end = 3;
        let violations = s.check();
        let outside = format!("entry in chunk {other} ends at 3, outside 0..=2");
        assert!(violations.contains(&outside), "{violations:?}");
        let chunk = s.table.splice(other, 0..0, 0, 0);
        chunk.slots[0].end = 1;
        let violations = s.check();
        let past = format!("chunk {other} holds 1 bytes past its last entry");
        assert!(violations.contains(&past), "{violations:?}");
    }

    /// `check()` walks an entry's front-coded rows checked, each fault
    /// reported where it lies, never a panic: a shared prefix on the
    /// first row, a shared prefix longer than the row before, a suffix
    /// cut short, a row whose tags are not a row's. The rows are `(1, 2)`
    /// and `(1, 3)`, packed `[0x11 1 2]` and `[0x11 1 3]` (two one-byte
    /// integers' tags in one byte): the second keeps a byte and shares
    /// two.
    #[test]
    fn check_reports_misframed_entry_rows() {
        let mut s = PmvStore::new(&cfg(2, 4, PolicyKind::Clock));
        let k = bcp(7);
        let row = |b: i64| Tuple::new(vec![Value::Int(1), Value::Int(b)]);
        assert_eq!(s.admit(&k), Residency::Resident);
        assert!(s.push_arc(&k, Arc::new(row(2)), 0));
        assert!(s.push_arc(&k, Arc::new(row(3)), 0));
        let rows_at = k.as_bytes().len() + 1 + 2 * EPOCH_BYTES;
        let (at, _) = s.table.find(PmvStore::hash_of(&k), &k).unwrap();
        assert_eq!(
            entry_bytes(&s.table, at)[rows_at..],
            [3 << 1, 0x11, 1, 2, 1 << 1 | 1, 2, 3]
        );
        s.validate();
        for (rows, fault) in [
            (
                &[1 << 1 | 1, 2, 3, 3 << 1, 0x11, 1, 2][..],
                "a shared prefix on an entry's first row at entry offset 0",
            ),
            (
                &[3 << 1, 0x11, 1, 2, 1 << 1 | 1, 4, 3],
                "a shared prefix longer than the previous row at entry offset 4",
            ),
            (
                &[3 << 1, 0x11, 1, 2, 2 << 1 | 1, 2, 3],
                "a suffix cut short at entry offset 4",
            ),
            (
                &[3 << 1, 0x1f, 1, 2, 1 << 1 | 1, 2, 3],
                "no field in a low nibble at entry offset 0",
            ),
        ] {
            let mut bytes = entry_bytes(&s.table, at)[..rows_at].to_vec();
            bytes.extend_from_slice(rows);
            s.table
                .rewrite(at, 2, bytes.len(), |out| out.copy_from_slice(&bytes));
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
            let mut all: Vec<_> = t
                .entries()
                .map(|e| {
                    let epochs: Vec<u64> = e.rows.epochs().collect();
                    (e.key.as_bytes().to_vec(), e.rows.bytes().to_vec(), epochs)
                })
                .collect();
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

    /// Model-based runs of the chunk table: random scripts of the store's
    /// calls against a `BTreeMap` of what each bcp's entry holds.
    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// What the model holds for one bcp: its rows' packed bytes with
        /// their fill epochs, its completeness stamp and its hit count.
        #[derive(Clone, Debug, Default, PartialEq)]
        struct Modeled {
            rows: Vec<(Vec<u8>, u64)>,
            complete: Option<u64>,
            hits: u64,
        }

        type Model = BTreeMap<i64, Modeled>;

        const F: usize = 4;
        /// Two chunks; more keys than entries, so admissions evict.
        const L: usize = 40;
        const KEYS: i64 = 56;

        /// Row `r`: a few shared first values, so rows front-code against
        /// each other and a removal re-bases the row after it.
        fn row(r: u64) -> [Value; 3] {
            let r = r as i64;
            [Value::Int(r / 8), Value::Int(r % 8 * 300), Value::Int(r)]
        }

        /// `arg`'s rows: one to three of them.
        fn rows_of(arg: u64) -> Vec<[Value; 3]> {
            (0..1 + arg % 3).map(|j| row(arg / 3 + j * 5)).collect()
        }

        /// What the store charges the model's entry of `k`.
        fn charge_of(k: i64, m: &Modeled) -> usize {
            let framed: usize = (0..m.rows.len())
                .map(|i| {
                    let prev = i.checked_sub(1).map(|p| RowRef::new(&m.rows[p].0));
                    packed::entry_row_len(RowRef::new(&m.rows[i].0), prev)
                })
                .sum();
            HANDLE_BYTES + packed::framed_len(bcp(k).as_bytes().len()) + framed
        }

        /// The model's view of `table`: every entry's rows, stamp and hit
        /// count, keyed by its bcp.
        fn read(table: &Table) -> BTreeMap<BcpKey, Modeled> {
            let mut buf = Vec::new();
            table
                .entries()
                .map(|e| {
                    let mut rows = Vec::new();
                    let mut walk = e.rows.iter(&mut buf);
                    while let Some((r, epoch)) = walk.next_row() {
                        rows.push((r.as_bytes().to_vec(), epoch));
                    }
                    let hits = e.hits.load(Ordering::Acquire);
                    let m = Modeled {
                        rows,
                        complete: e.complete,
                        hits,
                    };
                    (BcpKey::from_row(e.key), m)
                })
                .collect()
        }

        fn keyed(model: &Model) -> BTreeMap<BcpKey, Modeled> {
            model.iter().map(|(k, m)| (bcp(*k), m.clone())).collect()
        }

        /// After every step: `check()` is empty, the charge is the sum of
        /// the model's, and every entry's rows, stamp and hit count are
        /// the model's.
        fn agree(s: &PmvStore, model: &Model) -> Result<(), TestCaseError> {
            prop_assert_eq!(s.check(), Vec::<String>::new());
            let charged: usize = model.iter().map(|(k, m)| charge_of(*k, m)).sum();
            prop_assert_eq!(s.byte_size(), charged);
            prop_assert_eq!(s.entry_count(), model.len());
            let tuples: usize = model.values().map(|m| m.rows.len()).sum();
            prop_assert_eq!(s.tuple_count(), tuples);
            prop_assert_eq!(read(&s.table), keyed(model));
            for k in 0..KEYS {
                let m = model.get(&k);
                prop_assert_eq!(s.rows(&bcp(k)).map(Rows::len), m.map(|m| m.rows.len()));
                prop_assert_eq!(s.hit_count(&bcp(k)), m.map_or(0, |m| m.hits));
            }
            Ok(())
        }

        /// One script: `(op, key, arg)` triples, run against a store of
        /// `policy` and the model, with a reader holding a published
        /// table across some steps, whose version must stay whole.
        fn run(policy: PolicyKind, script: &[(u8, i64, u64)]) -> Result<(), TestCaseError> {
            let mut s = PmvStore::new(&cfg(F, L, policy));
            let mut model = Model::new();
            let mut held: Option<(Published, BTreeMap<BcpKey, Modeled>)> = None;
            for (step, &(op, k, arg)) in script.iter().enumerate() {
                let key = bcp(k);
                let epoch = step as u64;
                match op {
                    // Admit behind `arg % 3` counted accesses, then fill,
                    // as the serving path does.
                    0..=2 => {
                        for _ in 0..arg % 3 {
                            s.note_access(&key);
                        }
                        let evictions = s.evictions();
                        if s.admit(&key) == Residency::Resident {
                            let rows = rows_of(arg);
                            let n = s.fill(&key, rows.iter().map(|r| r.iter()), epoch);
                            let m = model.entry(k).or_default();
                            let room = F - m.rows.len();
                            prop_assert_eq!(n, rows.len().min(room));
                            for r in rows.iter().take(n) {
                                m.rows.push((PackedRow::pack(r).as_bytes().to_vec(), epoch));
                            }
                        }
                        // Exactly the entries the admission evicted are
                        // gone; the model learns which.
                        let gone: Vec<i64> = model
                            .keys()
                            .copied()
                            .filter(|&m| s.rows(&bcp(m)).is_none())
                            .collect();
                        prop_assert_eq!(gone.len() as u64, s.evictions() - evictions);
                        for m in gone {
                            model.remove(&m);
                        }
                    }
                    // A fill of a resident bcp appends up to F; of
                    // another, nothing.
                    3 => {
                        let rows = rows_of(arg);
                        let n = s.fill(&key, rows.iter().map(|r| r.iter()), epoch);
                        match model.get_mut(&k) {
                            Some(m) => {
                                prop_assert_eq!(n, rows.len().min(F - m.rows.len()));
                                for r in rows.iter().take(n) {
                                    let packed = PackedRow::pack(r).as_bytes().to_vec();
                                    m.rows.push((packed, epoch));
                                }
                            }
                            None => prop_assert_eq!(n, 0),
                        }
                    }
                    // Keep the rows whose bit in `arg` is set.
                    4 => {
                        let mut at = 0;
                        let dropped = s.retain(&key, |_| {
                            at += 1;
                            arg >> (at - 1) & 1 == 1
                        });
                        let Some(m) = model.get_mut(&k) else {
                            prop_assert_eq!(dropped, 0);
                            continue;
                        };
                        let before = m.rows.len();
                        let mut j = 0;
                        m.rows.retain(|_| {
                            j += 1;
                            arg >> (j - 1) & 1 == 1
                        });
                        prop_assert_eq!(dropped, before - m.rows.len());
                        if m.rows.is_empty() {
                            model.remove(&k);
                        } else if dropped > 0 {
                            m.complete = None;
                        }
                    }
                    // A stamp at the current watermark, or a stale one.
                    5 => {
                        let w = s.inserts_seen();
                        let at = if arg % 4 == 0 { w.wrapping_sub(1) } else { w };
                        let marked = s.mark_complete(&key, at);
                        let m = model.get_mut(&k).filter(|_| at == w);
                        prop_assert_eq!(marked, m.is_some());
                        if let Some(m) = m {
                            m.complete = Some(w);
                        }
                    }
                    6 => {
                        s.touch(&key, arg % 2 == 1);
                        if let Some(m) = model.get_mut(&k).filter(|_| arg % 2 == 1) {
                            m.hits += 1;
                        }
                    }
                    7 => s.note_insert(),
                    8 if arg % 8 == 0 => {
                        s.clear();
                        model.clear();
                    }
                    // A reader takes the table, or lets it go.
                    8 => {
                        held = (arg % 3 != 0).then(|| (s.published(), keyed(&model)));
                    }
                    _ => unreachable!(),
                }
                agree(&s, &model)?;
                // Hit counts are counted in place, through a shared
                // chunk; all else a reader holds stays as it was.
                if let Some((reader, seen)) = &held {
                    let unhit = |m: &BTreeMap<BcpKey, Modeled>| {
                        let mut m = m.clone();
                        m.values_mut().for_each(|e| e.hits = 0);
                        m
                    };
                    prop_assert_eq!(
                        unhit(&read(&reader.table)),
                        unhit(seen),
                        "a reader's table moved"
                    );
                }
            }
            Ok(())
        }

        fn script() -> impl Strategy<Value = Vec<(u8, i64, u64)>> {
            proptest::collection::vec((0u8..9, 0..KEYS, 0u64..64), 0..160)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn the_chunk_table_follows_its_model(
                script in script(),
                two_q in any::<bool>(),
            ) {
                let policy = if two_q { PolicyKind::TwoQ } else { PolicyKind::Clock };
                run(policy, &script)?;
            }

            /// Keys filed under one forced tag, among neighbours of the
            /// tags on either side, through `Table::insert` with the
            /// chosen hash: rewrites and removals each reach the entry of
            /// the key they name, and `check()` reports every entry as
            /// misplaced (no key hashes to its tag) and nothing else.
            #[test]
            fn keys_of_one_tag_stay_apart(
                script in proptest::collection::vec((0u8..3, 0i64..6, 0u64..64), 1..40),
            ) {
                const FORCED: u64 = 0x5eed_0000_0000_0000;
                let tag = |k: i64| FORCED - 1 + (k % 3) as u64;
                let mut s = PmvStore::new(&cfg(F, 8, PolicyKind::Clock));
                let mut model = Model::new();
                let mut staged = Staged::default();
                for &(op, k, arg) in &script {
                    let key = bcp(k);
                    let found = s.table.find(tag(k), &key).map(|(at, _)| at);
                    prop_assert_eq!(found.is_some(), model.contains_key(&k));
                    staged.clear();
                    let rows = rows_of(arg);
                    for r in &rows {
                        staged.push_values(r.iter(), arg);
                    }
                    let len = entry_len(key.row(), &staged);
                    let write = |out: &mut [u8]| write_entry(out, key.row(), &staged);
                    let fresh = Modeled {
                        rows: rows
                            .iter()
                            .map(|r| (PackedRow::pack(r).as_bytes().to_vec(), arg))
                            .collect(),
                        ..Modeled::default()
                    };
                    match (op, found) {
                        (0, None) => {
                            prop_assert_eq!(s.admit(&key), Residency::Resident);
                            s.table.insert(tag(k), rows.len(), len, write);
                            (s.entries, s.bytes) = (s.entries + 1, s.bytes + charge_of(k, &fresh));
                            model.insert(k, fresh);
                        }
                        (1, Some(at)) => {
                            s.bytes = s.bytes - charge_of(k, &model[&k]) + charge_of(k, &fresh);
                            s.table.rewrite(at, rows.len(), len, write);
                            model.insert(k, fresh);
                        }
                        (2, Some(at)) => {
                            s.table.remove(at);
                            s.policy.remove(&key);
                            (s.entries, s.bytes) = (s.entries - 1, s.bytes - charge_of(k, &model[&k]));
                            model.remove(&k);
                        }
                        _ => {}
                    }
                    prop_assert_eq!(read(&s.table), keyed(&model));
                    for (k, m) in &model {
                        let e = s.table.get(tag(*k), &bcp(*k));
                        prop_assert_eq!(e.map(|e| e.rows.len()), Some(m.rows.len()));
                    }
                    let mut want: Vec<String> = model
                        .keys()
                        .map(|k| format!("entry {:?} misplaced in chunk 0", bcp(*k)))
                        .collect();
                    let mut got = s.check();
                    want.sort();
                    got.sort();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
