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
//!   rotates to a fresh segment and segments wholly behind the
//!   checkpoint are deleted ([`Durability::checkpoint`]).
//! * **Recovery.** [`Durability::open`] loads the newest *valid*
//!   checkpoint (corrupt ones are skipped, counted, and left for
//!   forensics), refuses a directory whose newest checkpoint is an
//!   old-format `ckpt.<lsn>.json` (never parsed, and the only copy of
//!   its commits), deletes the temp files of checkpoints that crashed
//!   before their rename, replays the WAL tail in LSN order through
//!   `Database::apply_delta_exact` — RowId-exact, so the recovered heap
//!   is byte-for-byte the slot layout the log was written against —
//!   truncates any torn tail, and stops at the first LSN gap (the
//!   contiguous-prefix rule: a record is committed only if it *and all
//!   its predecessors* survived).
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

/// Durability-layer failure.
#[derive(Debug)]
pub enum WalError {
    /// Disk I/O failed (possibly fault-injected).
    Io(std::io::Error),
    /// A WAL payload did not decode.
    Decode(codec::DecodeError),
    /// A checkpoint did not serialize, parse, or restore.
    Checkpoint(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "durability I/O error: {e}"),
            WalError::Decode(e) => write!(f, "{e}"),
            WalError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
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
    format!("wal.{start_lsn:020}.log")
}

fn ckpt_name(lsn: u64) -> String {
    format!("ckpt.{lsn:020}.img")
}

/// Delete the segments (sorted by start LSN) wholly behind checkpoint
/// `lsn`: those whose successor starts at or before `lsn + 1`.
fn prune_segments(segments: &mut Vec<(u64, PathBuf)>, lsn: u64) -> WalResult<()> {
    while segments.len() > 1 && segments[1].0 <= lsn + 1 {
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

        // Inventory the directory, changing nothing yet.
        let mut temps: Vec<PathBuf> = Vec::new();
        let mut ckpts: Vec<(u64, PathBuf)> = Vec::new();
        let mut newest_json: Option<u64> = None;
        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let parts: Vec<&str> = name.split('.').collect();
            if let ["ckpt", .., "tmp"] = parts[..] {
                temps.push(entry.path());
                continue;
            }
            if parts.len() != 3 {
                continue;
            }
            match (parts[0], parts[1].parse::<u64>(), parts[2]) {
                ("ckpt", Ok(lsn), "img") => ckpts.push((lsn, entry.path())),
                ("ckpt", Ok(lsn), "json") => newest_json = newest_json.max(Some(lsn)),
                ("wal", Ok(start), "log") => segments.push((start, entry.path())),
                _ => {}
            }
        }
        ckpts.sort_by_key(|c| std::cmp::Reverse(c.0));
        segments.sort_by_key(|s| s.0);

        // Newest checkpoint whose image loads whole, at the LSN its
        // name carries, wins.
        let mut info = RecoveryInfo::default();
        let mut db = Database::new();
        let mut meta = CheckpointMeta::default();
        for (lsn, path) in &ckpts {
            match checkpoint::load(path) {
                Ok((loaded_db, loaded_meta)) if loaded_meta.lsn == *lsn => {
                    db = loaded_db;
                    meta = loaded_meta;
                    info.checkpoint_found = true;
                    info.checkpoint_lsn = *lsn;
                    break;
                }
                _ => info.checkpoints_skipped += 1,
            }
        }

        // A `ckpt.<lsn>.json` is a whole checkpoint of the previous
        // format, never parsed. The segments behind it were deleted when
        // it was written, so unless an image at least as new loaded it
        // holds the only copy of its commits: refuse the directory
        // before anything in it is deleted or truncated.
        if let Some(lsn) =
            newest_json.filter(|&l| !info.checkpoint_found || l > info.checkpoint_lsn)
        {
            return Err(WalError::Checkpoint(format!(
                "{} was written by checkpoint format 1, which is no longer read",
                dir.join(format!("ckpt.{lsn:020}.json")).display()
            )));
        }

        // A `ckpt.*.tmp` is a checkpoint that crashed before its rename;
        // its name carries its LSN, so no later checkpoint overwrites it,
        // and none can be in flight while the directory is being opened.
        for temp in &temps {
            dio::remove_file(temp)?;
        }

        // Leftovers of a checkpoint whose truncation step crashed.
        prune_segments(&mut segments, info.checkpoint_lsn)?;

        // Replay the tail in LSN order, truncating torn bytes and
        // stopping (plus truncating/deleting the untrusted remainder)
        // at the first gap.
        let mut last = info.checkpoint_lsn;
        let mut idx = 0;
        'segments: while idx < segments.len() {
            let (_, path) = &segments[idx];
            let bytes = std::fs::read(path)?;
            let scan = record::scan(&bytes);
            if scan.torn {
                info.torn_tail = true;
                let f = dio::open_append(path)?;
                dio::truncate(&f, scan.clean_len)?;
            }
            let mut trusted_end = 0u64;
            for rec in &scan.records {
                let rec_bytes = 16 + rec.payload.len() as u64;
                if rec.lsn <= last {
                    // Already reflected in the checkpoint.
                    trusted_end += rec_bytes;
                    continue;
                }
                if rec.lsn != last + 1 {
                    // Gap: an earlier record was lost, so nothing at or
                    // beyond this point is trustworthy. Truncate it away
                    // and drop all later segments.
                    info.torn_tail = true;
                    let f = dio::open_append(path)?;
                    dio::truncate(&f, trusted_end)?;
                    for (_, stale) in segments.drain(idx + 1..) {
                        dio::remove_file(&stale)?;
                    }
                    break 'segments;
                }
                let batches = codec::decode_batches(&rec.payload)?;
                for batch in &batches {
                    for delta in batch.deltas() {
                        db.apply_delta_exact(batch.relation(), delta).map_err(|e| {
                            WalError::Checkpoint(format!(
                                "replay of lsn {} failed on '{}': {e}",
                                rec.lsn,
                                batch.relation()
                            ))
                        })?;
                        info.replayed_deltas += 1;
                    }
                }
                info.replayed_records += 1;
                last = rec.lsn;
                trusted_end += rec_bytes;
            }
            idx += 1;
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
        assert!(matches!(err, WalError::Checkpoint(_)));
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
