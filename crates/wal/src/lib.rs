//! Crash durability for the PMV engine: write-ahead logging, snapshot
//! checkpoints, and deterministic recovery.
//!
//! The design follows the classic redo-only protocol, one transaction
//! per commit:
//!
//! * **WAL.** Under the master write lock a commit appends *one*
//!   [`record`] — the transaction's [`DeltaBatch`]es — and fsyncs before
//!   the new snapshot is published. Durable strictly precedes visible: a
//!   reader can never observe state that a crash could lose
//!   ([`Durability::append_commit`]).
//! * **Checkpoints.** A pinned immutable `DbSnapshot` is encoded as a
//!   binary image of CRC-framed [`record`]s ([`checkpoint`] has the
//!   grammar) and written to `ckpt.<lsn>.img` off the write path (temp
//!   file `ckpt.<lsn>.img.tmp` + fsync + atomic rename), then the WAL
//!   rotates to a fresh segment `wal.<lsn>.v4.log` and segments wholly
//!   behind the checkpoint are deleted ([`Durability::checkpoint`]).
//! * **One value format.** A tuple in a log record or an image row is
//!   written as `pmv_storage::packed` writes a row, the bytes a view
//!   caches it in. [`FORMAT_VERSION`] names that format: an image
//!   carries it in its header, a segment in its file name.
//! * **Recovery.** [`Durability::open`] first reads, changing nothing:
//!   it refuses the directory on a file of another format (an image of
//!   another version, a `ckpt.<lsn>.json` newer than every image that
//!   loads, a segment not named for [`FORMAT_VERSION`]) with
//!   [`WalError::Format`]. It loads the newest *valid* image (corrupt
//!   ones are skipped, counted, and left for forensics) and replays the
//!   WAL tail in LSN order through `Database::apply_delta_exact` —
//!   RowId-exact, so the recovered heap is byte-for-byte the slot layout
//!   the log was written against — up to a torn tail or the first LSN
//!   gap (the contiguous-prefix rule: a record is committed only if it
//!   *and all its predecessors* survived). A skipped image never
//!   licenses a truncation: when one was skipped and the WAL no longer
//!   holds every record after the image that loaded, the open fails
//!   with [`WalError::MissingRecords`]. Only once the replay has
//!   succeeded does it change the directory: it deletes the temp files
//!   of checkpoints that crashed before their rename and the segments
//!   behind the image, truncates the torn tail or gap, and deletes the
//!   segments past a gap.
//!
//! Every disk write goes through [`dio`], the fault-injectable I/O
//! chokepoint, which is what makes the kill-point matrix test possible:
//! a seeded plan can kill the process at any write, fsync, rename, or
//! delete and recovery must land on exactly the durable prefix.
//!
//! [`DeltaBatch`]: pmv_storage::DeltaBatch

pub mod checkpoint;
pub mod codec;
pub mod dio;
pub mod record;
pub mod spool;
pub mod telemetry;

pub use checkpoint::{CheckpointMeta, ViewSpec};
pub use spool::DiskSpool;

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pmv_faultinject::Site;
use pmv_obs::{ObsRegistry, Phase};
use pmv_query::Database;
use pmv_storage::DeltaBatch;

/// The on-disk format this build writes and reads: a tuple is a row in
/// `pmv_storage::packed`'s encoding (format 4: two 4-bit tags to a
/// byte). An image carries the number in its header, a WAL segment in
/// its name (`wal.<lsn>.v4.log`).
pub const FORMAT_VERSION: u32 = 4;

/// Durability-layer failure.
#[derive(Debug)]
pub enum WalError {
    /// Disk I/O failed (possibly fault-injected).
    Io(std::io::Error),
    /// A WAL payload did not decode.
    Decode(codec::DecodeError),
    /// A checkpoint did not serialize, parse, or restore.
    Checkpoint(String),
    /// A WAL record decoded but does not apply to the database recovered
    /// so far — it names a relation that does not exist, or a row slot
    /// the log was not written against. [`Durability::open`] refuses the
    /// directory, changing nothing.
    Replay {
        /// LSN of the record.
        lsn: u64,
        /// Relation its delta names.
        relation: String,
        /// Why the delta did not apply.
        error: pmv_query::QueryError,
    },
    /// A checkpoint image or WAL segment of a format other than
    /// [`FORMAT_VERSION`]. [`Durability::open`] refuses the directory on
    /// one before it deletes, truncates or renames anything.
    Format {
        /// The file; empty when bytes were decoded without one.
        path: PathBuf,
        /// What the file is: `checkpoint` or `log`.
        kind: &'static str,
        /// The format it was written in.
        version: u32,
    },
    /// An image newer than the one that loaded was skipped as corrupt,
    /// and the WAL no longer holds every record after the one that
    /// loaded: recovering would drop committed records, so
    /// [`Durability::open`] refuses and changes nothing.
    MissingRecords {
        /// LSN of the image that loaded (0 when none did).
        checkpoint_lsn: u64,
        /// LSN of the newest image skipped.
        skipped_lsn: u64,
        /// The first LSN after `checkpoint_lsn` the WAL does not hold.
        missing_lsn: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "durability I/O error: {e}"),
            WalError::Decode(e) => write!(f, "{e}"),
            WalError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            WalError::Replay {
                lsn,
                relation,
                error,
            } => write!(f, "replay of lsn {lsn} failed on '{relation}': {error}"),
            WalError::Format {
                path,
                kind,
                version,
            } => write!(
                f,
                "{} holds {kind} format {version}; this build reads format {FORMAT_VERSION} only",
                path.display()
            ),
            WalError::MissingRecords {
                checkpoint_lsn,
                skipped_lsn,
                missing_lsn,
            } => write!(
                f,
                "the checkpoint at lsn {skipped_lsn} did not load and the WAL no longer holds \
                 lsn {missing_lsn} after the one at lsn {checkpoint_lsn}: refusing to recover \
                 without committed records (nothing was changed)"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<codec::DecodeError> for WalError {
    fn from(e: codec::DecodeError) -> Self {
        WalError::Decode(e)
    }
}

/// Result alias for the durability layer.
pub type WalResult<T> = std::result::Result<T, WalError>;

/// What recovery found and did, for `health` output and assertions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// A valid checkpoint was loaded.
    pub checkpoint_found: bool,
    /// LSN of the loaded checkpoint (0 when none).
    pub checkpoint_lsn: u64,
    /// Corrupt checkpoint images newer than the one loaded.
    pub checkpoints_skipped: u64,
    /// WAL records replayed past the checkpoint.
    pub replayed_records: u64,
    /// Individual deltas applied during replay.
    pub replayed_deltas: u64,
    /// A torn tail (or LSN gap) was found and truncated.
    pub torn_tail: bool,
    /// Highest LSN reflected in the recovered database.
    pub durable_lsn: u64,
}

/// The outcome of opening a data directory: the durability engine
/// (owning the active WAL segment) plus the recovered database and the
/// checkpoint metadata (registered view specs, analyzed flag).
pub struct Recovered {
    /// The durability engine, ready for [`Durability::append_commit`].
    pub durability: Durability,
    /// The recovered database: checkpoint image + replayed WAL tail.
    pub db: Database,
    /// Metadata from the loaded checkpoint (empty when none existed).
    pub meta: CheckpointMeta,
}

struct WalState {
    file: File,
    /// Clean length of the active segment (bytes of durable records).
    len: u64,
    next_lsn: u64,
    /// Segments sorted by start LSN; the last entry is the active one.
    segments: Vec<(u64, PathBuf)>,
}

/// The durability engine: one per data directory.
pub struct Durability {
    dir: PathBuf,
    obs: Arc<ObsRegistry>,
    info: RecoveryInfo,
    inner: Mutex<WalState>,
}

fn seg_name(start_lsn: u64) -> String {
    // Zero-padded so lexicographic file listings sort numerically.
    format!("wal.{start_lsn:020}.v{FORMAT_VERSION}.log")
}

fn ckpt_name(lsn: u64) -> String {
    format!("ckpt.{lsn:020}.img")
}

/// How many of `segments` (sorted by start LSN) lie wholly behind
/// checkpoint `lsn`: those whose successor starts at or before
/// `lsn + 1`.
fn behind(segments: &[(u64, PathBuf)], lsn: u64) -> usize {
    segments
        .windows(2)
        .take_while(|w| w[1].0 <= lsn + 1)
        .count()
}

/// Delete the segments wholly behind checkpoint `lsn`.
fn prune_segments(segments: &mut Vec<(u64, PathBuf)>, lsn: u64) -> WalResult<()> {
    for _ in 0..behind(segments, lsn) {
        dio::remove_file(&segments[0].1)?;
        segments.remove(0);
    }
    Ok(())
}

impl Durability {
    /// Open (or create) a data directory, recovering its contents. See
    /// the module docs for the recovery protocol.
    pub fn open(dir: &Path) -> WalResult<Recovered> {
        Self::open_with_obs(dir, Arc::new(ObsRegistry::new()))
    }

    /// [`Durability::open`] recording phases into a caller-supplied
    /// registry (`wal_append`, `wal_fsync`, `ckpt_write`,
    /// `recovery_replay`).
    pub fn open_with_obs(dir: &Path, obs: Arc<ObsRegistry>) -> WalResult<Recovered> {
        dio::create_dir_all(dir)?;
        let t0 = Instant::now();

        // Inventory the directory, changing nothing yet. A segment of
        // another format refuses the open here: the old `wal.<lsn>.log`
        // name is format 2's.
        let mut temps: Vec<PathBuf> = Vec::new();
        let mut ckpts: Vec<(u64, PathBuf)> = Vec::new();
        let mut newest_json: Option<u64> = None;
        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let parts: Vec<&str> = name.split('.').collect();
            let lsn = parts.get(1).and_then(|n| n.parse::<u64>().ok());
            let log_format = |version| WalError::Format {
                path: entry.path(),
                kind: "log",
                version,
            };
            match (&parts[..], lsn) {
                (["ckpt", .., "tmp"], _) => temps.push(entry.path()),
                (["ckpt", _, "img"], Some(lsn)) => ckpts.push((lsn, entry.path())),
                (["ckpt", _, "json"], Some(lsn)) => newest_json = newest_json.max(Some(lsn)),
                (["wal", _, "log"], Some(_)) => return Err(log_format(2)),
                (["wal", _, v, "log"], Some(start)) => {
                    match v.strip_prefix('v').and_then(|v| v.parse::<u32>().ok()) {
                        Some(FORMAT_VERSION) => segments.push((start, entry.path())),
                        Some(version) => return Err(log_format(version)),
                        None => {}
                    }
                }
                _ => {}
            }
        }
        ckpts.sort_by_key(|c| std::cmp::Reverse(c.0));
        segments.sort_by_key(|s| s.0);

        // Newest checkpoint whose image loads whole, at the LSN its
        // name carries, wins. An image of another format refuses the
        // open; it is never skipped as corrupt.
        let mut info = RecoveryInfo::default();
        let mut db = Database::new();
        let mut meta = CheckpointMeta::default();
        let mut newest_skipped = None;
        for (lsn, path) in &ckpts {
            match checkpoint::load(path) {
                Ok((loaded_db, loaded_meta)) if loaded_meta.lsn == *lsn => {
                    db = loaded_db;
                    meta = loaded_meta;
                    info.checkpoint_found = true;
                    info.checkpoint_lsn = *lsn;
                    break;
                }
                Err(e @ WalError::Format { .. }) => return Err(e),
                _ => {
                    info.checkpoints_skipped += 1;
                    newest_skipped = newest_skipped.or(Some(*lsn));
                }
            }
        }

        // A `ckpt.<lsn>.json` is a whole checkpoint of format 1, never
        // parsed. The segments behind it were deleted when it was
        // written, so unless an image at least as new loaded it holds
        // the only copy of its commits.
        if let Some(lsn) =
            newest_json.filter(|&l| !info.checkpoint_found || l > info.checkpoint_lsn)
        {
            return Err(WalError::Format {
                path: dir.join(format!("ckpt.{lsn:020}.json")),
                kind: "checkpoint",
                version: 1,
            });
        }

        // Read the segments the image does not wholly cover and walk
        // their records in LSN order, still changing nothing. A torn
        // tail ends its segment's clean bytes; a gap (a record after a
        // lost one) ends the walk: nothing at or past it is trusted.
        let pruned = behind(&segments, info.checkpoint_lsn);
        let scans = segments[pruned..]
            .iter()
            .map(|(_, path)| Ok(record::scan(&std::fs::read(path)?)))
            .collect::<WalResult<Vec<_>>>()?;
        let mut last = info.checkpoint_lsn;
        let mut replay = Vec::new();
        // (index into `scans`, bytes kept) for each segment to truncate.
        let mut cuts: Vec<(usize, u64)> = Vec::new();
        let mut gap = None;
        'scans: for (i, scan) in scans.iter().enumerate() {
            let mut trusted_end = 0u64;
            for rec in &scan.records {
                if rec.lsn > last + 1 {
                    cuts.push((i, trusted_end));
                    gap = Some(i);
                    break 'scans;
                }
                if rec.lsn == last + 1 {
                    replay.push(rec);
                    last = rec.lsn;
                }
                trusted_end += 16 + rec.payload.len() as u64;
            }
            if scan.torn {
                cuts.push((i, scan.clean_len));
            }
        }

        // A skipped image stood for every commit up to its LSN, and the
        // segments behind it were deleted when it was written. Falling
        // back to an older image is sound only while the WAL still holds
        // every record after that image: from its first segment on, with
        // no gap. A skipped image never licenses a truncation.
        if let Some(skipped_lsn) = newest_skipped {
            let from = segments.get(pruned).map(|s| s.0);
            let missing_lsn = match gap {
                Some(_) => Some(last + 1),
                None if from.is_none_or(|f| f > info.checkpoint_lsn + 1) => {
                    Some(info.checkpoint_lsn + 1)
                }
                None => None,
            };
            if let Some(missing_lsn) = missing_lsn {
                return Err(WalError::MissingRecords {
                    checkpoint_lsn: info.checkpoint_lsn,
                    skipped_lsn,
                    missing_lsn,
                });
            }
        }

        // Replay in memory: a record that does not decode or apply fails
        // the open with the directory as it was.
        for rec in replay {
            let batches = codec::decode_batches(&rec.payload)?;
            for batch in &batches {
                for delta in batch.deltas() {
                    db.replay_delta(batch.relation(), delta)
                        .map_err(|error| WalError::Replay {
                            lsn: rec.lsn,
                            relation: batch.relation().to_string(),
                            error,
                        })?;
                    info.replayed_deltas += 1;
                }
            }
            info.replayed_records += 1;
        }

        // Only now change the directory. A `ckpt.*.tmp` is a checkpoint
        // that crashed before its rename; its name carries its LSN, so
        // no later checkpoint overwrites it, and none can be in flight
        // while the directory is being opened. Segments behind the image
        // are leftovers of a checkpoint whose pruning crashed.
        for temp in &temps {
            dio::remove_file(temp)?;
        }
        prune_segments(&mut segments, info.checkpoint_lsn)?;
        info.torn_tail = !cuts.is_empty();
        for &(i, len) in &cuts {
            dio::truncate(&dio::open_append(&segments[i].1)?, len)?;
        }
        if let Some(i) = gap {
            for (_, stale) in segments.drain(i + 1..) {
                dio::remove_file(&stale)?;
            }
        }
        info.durable_lsn = last;
        let next_lsn = last + 1;

        // Adopt the last segment as active, or start a fresh one.
        let (file, len) = match segments.last() {
            Some((_, path)) => {
                let f = dio::open_append(path)?;
                let len = f.metadata()?.len();
                (f, len)
            }
            None => {
                let path = dir.join(seg_name(next_lsn));
                let f = dio::open_append(&path)?;
                segments.push((next_lsn, path));
                (f, 0)
            }
        };
        obs.record(Phase::recovery_replay, t0.elapsed());

        Ok(Recovered {
            durability: Durability {
                dir: dir.to_path_buf(),
                obs,
                info,
                inner: Mutex::new(WalState {
                    file,
                    len,
                    next_lsn,
                    segments,
                }),
            },
            db,
            meta,
        })
    }

    /// Append one commit's delta batches as a single WAL record
    /// and fsync it. Returns the record's LSN. On failure the segment is
    /// truncated back to its pre-append length (undoing a torn write)
    /// and the LSN is not consumed — the commit never happened,
    /// durably speaking, and the caller must roll it back in memory.
    pub fn append_commit(&self, batches: &[DeltaBatch]) -> WalResult<u64> {
        let payload = codec::encode_batches(batches);
        let mut st = self.inner.lock().unwrap();
        let lsn = st.next_lsn;
        let bytes = record::encode(lsn, &payload);
        let pre_len = st.len;

        let t0 = Instant::now();
        let appended = dio::write_all(&mut st.file, Site::WalAppend, &bytes);
        self.obs.record(Phase::wal_append, t0.elapsed());
        if let Err(e) = appended {
            let _ = dio::truncate(&st.file, pre_len);
            return Err(e.into());
        }

        let t1 = Instant::now();
        let synced = dio::fsync(&st.file, Site::WalFsync);
        self.obs.record(Phase::wal_fsync, t1.elapsed());
        if let Err(e) = synced {
            let _ = dio::truncate(&st.file, pre_len);
            return Err(e.into());
        }

        st.len = pre_len + bytes.len() as u64;
        st.next_lsn = lsn + 1;
        Ok(lsn)
    }

    /// Write a checkpoint at `meta.lsn` (which must be a durable LSN —
    /// callers pass the durable mark captured with the snapshot), then
    /// rotate the WAL and delete segments wholly behind the checkpoint.
    /// Serialization happens from the immutable snapshot without
    /// holding the WAL lock, so concurrent commits keep flowing.
    pub fn checkpoint(
        &self,
        snap: &pmv_query::DbSnapshot,
        meta: &CheckpointMeta,
    ) -> WalResult<PathBuf> {
        let path = self.dir.join(ckpt_name(meta.lsn));
        let t0 = Instant::now();
        let saved = checkpoint::save(snap, meta, &path);
        self.obs.record(Phase::ckpt_write, t0.elapsed());
        saved?;

        let mut st = self.inner.lock().unwrap();
        // Rotate only when the active segment could hold records the
        // checkpoint now covers; a segment starting past the checkpoint
        // keeps accepting appends.
        if st.segments.last().is_none_or(|s| s.0 <= meta.lsn) {
            let start = st.next_lsn;
            let seg_path = self.dir.join(seg_name(start));
            st.file = dio::open_append(&seg_path)?;
            st.len = 0;
            st.segments.push((start, seg_path));
        }
        prune_segments(&mut st.segments, meta.lsn)?;
        drop(st);
        dio::fsync_dir(&self.dir)?;
        Ok(path)
    }

    /// What recovery found when this directory was opened.
    pub fn recovery_info(&self) -> &RecoveryInfo {
        &self.info
    }

    /// LSN the next commit will receive.
    pub fn next_lsn(&self) -> u64 {
        self.inner.lock().unwrap().next_lsn
    }

    /// Highest LSN known durable (0 before the first commit).
    pub fn durable_lsn(&self) -> u64 {
        self.inner.lock().unwrap().next_lsn - 1
    }

    /// Bytes of durable records in the active WAL segment.
    pub fn active_segment_bytes(&self) -> u64 {
        self.inner.lock().unwrap().len
    }

    /// Number of live WAL segment files.
    pub fn segment_count(&self) -> usize {
        self.inner.lock().unwrap().segments.len()
    }

    /// The data directory this engine owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Phase registry the engine records into.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_storage::{tuple, Column, ColumnType, Delta, RowId, Schema};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pmv_wal_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("name", ColumnType::Str),
            ],
        )
    }

    fn insert_batch(row: u32, id: i64) -> DeltaBatch {
        let mut b = DeltaBatch::new("t");
        b.push(Delta::Insert {
            row: RowId(row),
            tuple: tuple![id, "x"],
        });
        b
    }

    #[test]
    fn fresh_dir_appends_and_replays() {
        let dir = tmp_dir("fresh");
        let rec = Durability::open(&dir).unwrap();
        let mut db = rec.db;
        db.create_relation(schema()).unwrap();
        assert_eq!(
            rec.durability
                .append_commit(&[insert_batch(0, 10)])
                .unwrap(),
            1
        );
        assert_eq!(
            rec.durability
                .append_commit(&[insert_batch(1, 20)])
                .unwrap(),
            2
        );
        drop(rec.durability);

        // Recovery with no checkpoint starts from an empty catalog, so
        // replay the log against a db that has the relation; here we
        // checkpointed nothing, so replay must fail cleanly...
        let err = match Durability::open(&dir) {
            Err(e) => e,
            Ok(_) => panic!("replay without a checkpoint must fail (DDL is not in the WAL)"),
        };
        assert!(matches!(err, WalError::Replay { lsn: 1, .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record naming a row slot no insert sequence reaches — here
    /// `u32::MAX`, as one damaged id under a valid CRC would — fails the
    /// open with a typed error before the heap grows, and the directory
    /// stays as it was.
    #[test]
    fn a_record_naming_a_slot_past_the_end_fails_the_open() {
        let dir = tmp_dir("slot_past_end");
        let rec = Durability::open(&dir).unwrap();
        let mut db = rec.db;
        db.create_relation(schema()).unwrap();
        let snap = db.snapshot();
        rec.durability
            .checkpoint(&snap, &meta_at(0, &snap))
            .unwrap();
        rec.durability
            .append_commit(&[insert_batch(0, 10)])
            .unwrap();
        rec.durability
            .append_commit(&[insert_batch(u32::MAX, 20)])
            .unwrap();
        drop(rec.durability);
        let before = dir_state(&dir);
        match Durability::open(&dir) {
            Err(WalError::Replay {
                lsn: 2,
                relation,
                error:
                    pmv_query::QueryError::Storage(pmv_storage::StorageError::SlotPastEnd {
                        slot: u32::MAX,
                        slots: 1,
                        ..
                    }),
            }) => assert_eq!(relation, "t"),
            Err(e) => panic!("wrong refusal: {e}"),
            Ok(r) => panic!("opened: {:?}", r.durability.recovery_info()),
        }
        assert_eq!(dir_state(&dir), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_then_replay_recovers_exactly() {
        let dir = tmp_dir("ckpt_replay");
        let rec = Durability::open(&dir).unwrap();
        let mut db = rec.db;
        db.create_relation(schema()).unwrap();
        let lsn = rec
            .durability
            .append_commit(&[insert_batch(0, 10)])
            .unwrap();
        db.apply_delta_exact(
            "t",
            &Delta::Insert {
                row: RowId(0),
                tuple: tuple![10i64, "x"],
            },
        )
        .unwrap();

        // Checkpoint covers lsn 1; a later commit rides the WAL tail.
        let snap = db.snapshot();
        let meta = CheckpointMeta {
            lsn,
            epoch: snap.epoch(),
            analyzed: false,
            views: Vec::new(),
        };
        rec.durability.checkpoint(&snap, &meta).unwrap();
        rec.durability
            .append_commit(&[insert_batch(1, 20)])
            .unwrap();
        drop(rec.durability);

        let rec2 = Durability::open(&dir).unwrap();
        let info = rec2.durability.recovery_info();
        assert!(info.checkpoint_found);
        assert_eq!(info.checkpoint_lsn, 1);
        assert_eq!(info.replayed_records, 1);
        assert_eq!(info.durable_lsn, 2);
        assert!(!info.torn_tail);
        let rel = rec2.db.relation("t").unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.get(RowId(1)).unwrap(), &tuple![20i64, "x"]);
        assert_eq!(rec2.durability.next_lsn(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let rec = Durability::open(&dir).unwrap();
        let mut db = rec.db;
        db.create_relation(schema()).unwrap();
        let snap = db.snapshot();
        rec.durability
            .checkpoint(
                &snap,
                &CheckpointMeta {
                    lsn: 0,
                    epoch: snap.epoch(),
                    analyzed: false,
                    views: Vec::new(),
                },
            )
            .unwrap();
        rec.durability
            .append_commit(&[insert_batch(0, 10)])
            .unwrap();
        drop(rec.durability);

        // Simulate a crash mid-append: garbage half-record at the tail.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "log"))
            .unwrap();
        let clean = std::fs::metadata(&seg).unwrap().len();
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[0x55; 11]);
        std::fs::write(&seg, &bytes).unwrap();

        let rec2 = Durability::open(&dir).unwrap();
        let info = rec2.durability.recovery_info();
        assert!(info.torn_tail);
        assert_eq!(info.durable_lsn, 1);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), clean);
        // The engine appends cleanly after truncation.
        assert_eq!(
            rec2.durability
                .append_commit(&[insert_batch(1, 20)])
                .unwrap(),
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rotates_and_prunes_segments() {
        let dir = tmp_dir("rotate");
        let rec = Durability::open(&dir).unwrap();
        let mut db = rec.db;
        db.create_relation(schema()).unwrap();
        for (i, id) in [(0u32, 10i64), (1, 20), (2, 30)] {
            rec.durability
                .append_commit(&[insert_batch(i, id)])
                .unwrap();
            db.apply_delta_exact(
                "t",
                &Delta::Insert {
                    row: RowId(i),
                    tuple: tuple![id, "x"],
                },
            )
            .unwrap();
        }
        let snap = db.snapshot();
        rec.durability
            .checkpoint(
                &snap,
                &CheckpointMeta {
                    lsn: 3,
                    epoch: snap.epoch(),
                    analyzed: false,
                    views: Vec::new(),
                },
            )
            .unwrap();
        // The pre-checkpoint segment is gone; a fresh one is active.
        assert_eq!(rec.durability.segment_count(), 1);
        assert_eq!(rec.durability.active_segment_bytes(), 0);
        assert_eq!(
            rec.durability
                .append_commit(&[insert_batch(3, 40)])
                .unwrap(),
            4
        );
        drop(rec.durability);

        let rec2 = Durability::open(&dir).unwrap();
        assert_eq!(rec2.durability.recovery_info().checkpoint_lsn, 3);
        assert_eq!(rec2.durability.recovery_info().replayed_records, 1);
        let rel = rec2.db.relation("t").unwrap();
        assert_eq!(rel.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        let rec = Durability::open(&dir).unwrap();
        let mut db = rec.db;
        db.create_relation(schema()).unwrap();
        let snap = db.snapshot();
        rec.durability
            .checkpoint(
                &snap,
                &CheckpointMeta {
                    lsn: 0,
                    epoch: snap.epoch(),
                    analyzed: false,
                    views: Vec::new(),
                },
            )
            .unwrap();
        drop(rec.durability);
        // Newer checkpoints appear: real images of the same snapshot, one
        // cut short, one with a flipped bit and one whole image under
        // another LSN's name.
        let image = |lsn| {
            let meta = CheckpointMeta {
                lsn,
                epoch: snap.epoch(),
                analyzed: false,
                views: Vec::new(),
            };
            let bytes = checkpoint::encode(&snap, &meta).unwrap();
            assert!(checkpoint::decode(&bytes).is_ok());
            bytes
        };
        let truncated = image(9);
        std::fs::write(dir.join(ckpt_name(9)), &truncated[..truncated.len() - 1]).unwrap();
        let mut flipped = image(8);
        flipped[20] ^= 0x04;
        std::fs::write(dir.join(ckpt_name(8)), &flipped).unwrap();
        std::fs::write(dir.join(ckpt_name(7)), image(0)).unwrap();

        let rec2 = Durability::open(&dir).unwrap();
        let info = rec2.durability.recovery_info();
        assert!(info.checkpoint_found);
        assert_eq!(info.checkpoint_lsn, 0);
        assert_eq!(info.checkpoints_skipped, 3);
        assert!(rec2.db.relation("t").is_ok());
        // Skipped files are left for forensics.
        assert!(dir.join(ckpt_name(9)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A directory written by the JSON format holds `ckpt.N.json` and,
    /// behind it, only the segment starting at N + 1. Opening it must
    /// fail and change nothing; an image at least as new makes the old
    /// file irrelevant.
    #[test]
    fn old_format_checkpoint_refuses_the_directory_untouched() {
        let dir = tmp_dir("old_format");
        let rec = Durability::open(&dir).unwrap();
        let mut db = rec.db;
        db.create_relation(schema()).unwrap();
        let snap = db.snapshot();
        drop(rec.durability);
        let files = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            names.sort();
            names
        };
        for p in files() {
            std::fs::remove_file(p).unwrap();
        }
        let seg = dir.join(seg_name(4));
        let mut log = record::encode(4, &codec::encode_batches(&[insert_batch(0, 10)]));
        log.extend(record::encode(
            5,
            &codec::encode_batches(&[insert_batch(1, 20)]),
        ));
        std::fs::write(&seg, &log).unwrap();
        let json = dir.join(format!("ckpt.{:020}.json", 3));
        std::fs::write(&json, b"{}").unwrap();
        let temp = dir.join(format!("{}.tmp", ckpt_name(6)));
        std::fs::write(&temp, b"partial").unwrap();
        let before = files();

        for image_lsn in [None, Some(2)] {
            if let Some(lsn) = image_lsn {
                let meta = CheckpointMeta {
                    lsn,
                    epoch: snap.epoch(),
                    analyzed: false,
                    views: Vec::new(),
                };
                checkpoint::save(&snap, &meta, &dir.join(ckpt_name(lsn))).unwrap();
            }
            let err = match Durability::open(&dir) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("an unread newer checkpoint must refuse the open"),
            };
            assert!(err.contains("checkpoint format 1"), "{err}");
            assert_eq!(std::fs::read(&seg).unwrap(), log);
            assert!(temp.exists());
        }
        assert_eq!(files().len(), before.len() + 1);

        // An image at the JSON's LSN covers it: the open proceeds and
        // replays the segment behind both.
        let meta = CheckpointMeta {
            lsn: 3,
            epoch: snap.epoch(),
            analyzed: false,
            views: Vec::new(),
        };
        checkpoint::save(&snap, &meta, &dir.join(ckpt_name(3))).unwrap();
        let rec2 = Durability::open(&dir).unwrap();
        let info = rec2.durability.recovery_info();
        assert_eq!((info.checkpoint_lsn, info.replayed_records), (3, 2));
        assert_eq!(info.checkpoints_skipped, 0);
        assert!(json.exists() && !temp.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file in `dir`, name and contents, sorted by name.
    fn dir_state(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    }

    fn meta_at(lsn: u64, snap: &pmv_query::DbSnapshot) -> CheckpointMeta {
        CheckpointMeta {
            lsn,
            epoch: snap.epoch(),
            analyzed: false,
            views: Vec::new(),
        }
    }

    /// An image at LSN 0, commits 1–2, an image at LSN 2 (which deletes
    /// the segment holding 1–2), commits 3–4 in the next segment. With
    /// the LSN-2 image corrupt, the fallback to LSN 0 would need records
    /// 1–2, which the WAL no longer holds: the open fails and changes
    /// nothing, where replaying from LSN 0 would have called record 3 a
    /// gap and truncated 3–4 away.
    #[test]
    fn skipped_image_never_licenses_a_truncation() {
        let dir = tmp_dir("skipped_image");
        let rec = Durability::open(&dir).unwrap();
        let mut db = rec.db;
        db.create_relation(schema()).unwrap();
        let wal = rec.durability;
        let checkpoint = |db: &Database, lsn| {
            let snap = db.snapshot();
            wal.checkpoint(&snap, &meta_at(lsn, &snap))
        };
        checkpoint(&db, 0).unwrap();
        let mut newest = None;
        for (row, id) in [(0u32, 10i64), (1, 20), (2, 30), (3, 40)] {
            let lsn = wal.append_commit(&[insert_batch(row, id)]).unwrap();
            let tuple = tuple![id, "x"];
            db.apply_delta_exact(
                "t",
                &Delta::Insert {
                    row: RowId(row),
                    tuple,
                },
            )
            .unwrap();
            if lsn == 2 {
                newest = Some(checkpoint(&db, 2).unwrap());
            }
        }
        drop(wal);
        let newest = newest.unwrap();
        let mut image = std::fs::read(&newest).unwrap();
        image[20] ^= 0x04;
        std::fs::write(&newest, &image).unwrap();
        let before = dir_state(&dir);
        assert_eq!(before.len(), 3, "two images and the segment from LSN 3");

        match Durability::open(&dir) {
            Err(WalError::MissingRecords {
                checkpoint_lsn: 0,
                skipped_lsn: 2,
                missing_lsn: 1,
            }) => {}
            Err(e) => panic!("wrong refusal: {e}"),
            Ok(r) => panic!("opened: {:?}", r.durability.recovery_info()),
        }
        assert_eq!(dir_state(&dir), before);

        // With the image whole again, every commit recovers.
        image[20] ^= 0x04;
        std::fs::write(&newest, &image).unwrap();
        let rec = Durability::open(&dir).unwrap();
        let info = rec.durability.recovery_info();
        assert_eq!((info.checkpoint_lsn, info.durable_lsn), (2, 4));
        assert_eq!((info.checkpoints_skipped, info.torn_tail), (0, false));
        assert_eq!(rec.db.relation("t").unwrap().len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A directory of format 2: an image whose header says 2 (its frame
    /// re-CRC'd, so the image is whole) or a segment under format 2's
    /// name `wal.<lsn>.log`. Each refuses the open with
    /// `WalError::Format`, though an older image beside it loads, and
    /// leaves every file as it was.
    #[test]
    fn older_format_image_or_segment_refuses_the_directory_untouched() {
        let dir = tmp_dir("older_format");
        let rec = Durability::open(&dir).unwrap();
        let mut db = rec.db;
        db.create_relation(schema()).unwrap();
        let snap = db.snapshot();
        rec.durability
            .checkpoint(&snap, &meta_at(0, &snap))
            .unwrap();
        rec.durability
            .append_commit(&[insert_batch(0, 10)])
            .unwrap();
        drop(rec.durability);
        std::fs::write(dir.join(format!("{}.tmp", ckpt_name(5))), b"partial").unwrap();

        let image = checkpoint::encode(&snap, &meta_at(1, &snap)).unwrap();
        let header = &record::scan(&image).records[0].payload;
        let mut patched = header.clone();
        patched[1..5].copy_from_slice(&2u32.to_le_bytes());
        let mut old_image = record::encode(1, &patched);
        old_image.extend_from_slice(&image[16 + header.len()..]);
        assert!(matches!(
            checkpoint::decode(&old_image),
            Err(WalError::Format {
                kind: "checkpoint",
                version: 2,
                ..
            })
        ));
        // The name alone refuses a segment; its bytes are never read.
        let old_log = record::encode(1, &codec::encode_batches(&[insert_batch(0, 10)]));

        for (path, bytes, kind) in [
            (dir.join(ckpt_name(1)), old_image, "checkpoint"),
            (dir.join(format!("wal.{:020}.log", 1)), old_log, "log"),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            let before = dir_state(&dir);
            match Durability::open(&dir) {
                Err(WalError::Format {
                    path: refused,
                    kind: k,
                    version: 2,
                }) => assert_eq!((refused, k), (path.clone(), kind)),
                Err(e) => panic!("wrong refusal: {e}"),
                Ok(_) => panic!("{} must refuse the open", path.display()),
            }
            assert_eq!(dir_state(&dir), before);
            std::fs::remove_file(&path).unwrap();
        }

        // Without them the directory opens as it did before.
        let rec = Durability::open(&dir).unwrap();
        let info = rec.durability.recovery_info();
        assert_eq!((info.checkpoint_lsn, info.durable_lsn), (0, 1));
        assert!(!dir.join(format!("{}.tmp", ckpt_name(5))).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A directory of format 3 — one tag byte per value — beside a
    /// format-4 image that loads: an image whose header says 3, or a
    /// segment named `wal.<lsn>.v3.log`. Each refuses the open with
    /// "reads format 4 only"; neither is skipped as corrupt, which would
    /// have let the older image load, and every file stays as it was.
    #[test]
    fn format_3_image_or_segment_is_refused_not_skipped() {
        let dir = tmp_dir("format_3");
        let rec = Durability::open(&dir).unwrap();
        let mut db = rec.db;
        db.create_relation(schema()).unwrap();
        let snap = db.snapshot();
        rec.durability
            .checkpoint(&snap, &meta_at(0, &snap))
            .unwrap();
        drop(rec.durability);

        let image = checkpoint::encode(&snap, &meta_at(1, &snap)).unwrap();
        let header = &record::scan(&image).records[0].payload;
        let mut patched = header.clone();
        patched[1..5].copy_from_slice(&3u32.to_le_bytes());
        let mut v3_image = record::encode(1, &patched);
        v3_image.extend_from_slice(&image[16 + header.len()..]);
        let v3_log = record::encode(1, &codec::encode_batches(&[insert_batch(0, 10)]));

        for (path, bytes, kind) in [
            (dir.join(ckpt_name(1)), v3_image, "checkpoint"),
            (dir.join(format!("wal.{:020}.v3.log", 1)), v3_log, "log"),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            let before = dir_state(&dir);
            match Durability::open(&dir) {
                Err(
                    e @ WalError::Format {
                        kind: k,
                        version: 3,
                        ..
                    },
                ) => {
                    assert_eq!(k, kind);
                    let message = e.to_string();
                    assert!(message.contains("reads format 4 only"), "{message}");
                    assert!(message.contains(&path.display().to_string()), "{message}");
                }
                Err(e) => panic!("wrong refusal: {e}"),
                Ok(rec) => panic!(
                    "{} must refuse the open (skipped {} image(s) as corrupt)",
                    path.display(),
                    rec.durability.recovery_info().checkpoints_skipped
                ),
            }
            assert_eq!(dir_state(&dir), before);
            std::fs::remove_file(&path).unwrap();
        }
        let rec = Durability::open(&dir).unwrap();
        assert_eq!(rec.durability.recovery_info().checkpoints_skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn views_roundtrip_through_checkpoint() {
        use pmv_storage::Value;
        let dir = tmp_dir("views");
        let rec = Durability::open(&dir).unwrap();
        let mut db = rec.db;
        db.create_relation(schema()).unwrap();
        let snap = db.snapshot();
        let views = vec![ViewSpec {
            name: "q1".to_string(),
            sql: "SELECT id FROM t WHERE id BETWEEN ? AND ?".to_string(),
            f: 8,
            l: 64,
            policy: "clock".to_string(),
            shards: 4,
            dividers: vec![Some(vec![Value::Int(10), Value::Int(20)]), None],
        }];
        rec.durability
            .checkpoint(
                &snap,
                &CheckpointMeta {
                    lsn: 0,
                    epoch: snap.epoch(),
                    analyzed: false,
                    views: views.clone(),
                },
            )
            .unwrap();
        drop(rec.durability);

        let rec2 = Durability::open(&dir).unwrap();
        assert_eq!(rec2.meta.views, views);
        std::fs::remove_dir_all(&dir).ok();
    }
}
