//! `DiskSpool` — the on-disk [`SpoolSink`] for the flight recorder.
//!
//! `pmv-obs` owns the trigger policy but stays dependency-free, so the
//! sink that renders a dump ([`crate::telemetry::dump_json`]) and puts
//! it on disk lives here, on top of [`crate::dio`]: every spool write
//! fires [`Site::SpoolWrite`] first, which makes dump persistence
//! fault-injectable like every other byte this workspace writes.
//!
//! The spool is **bounded**: dumps land as `flight-<seq>.json` under
//! one directory, and when the directory's total payload would exceed
//! the byte budget the oldest dumps are deleted first (a flight
//! recorder that can fill a disk is worse than the anomaly it records).
//! Reopening an existing directory resumes the accounting from the
//! files present, so the bound holds across process restarts.
//!
//! Failure stance: a dump that cannot be written is dropped — the
//! recorder already treats sink errors as "diagnostics lost, serving
//! unaffected" — but eviction of *old* dumps ignores errors too, so a
//! sticky delete failure can never block new evidence from landing.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use pmv_faultinject::Site;
use pmv_obs::{FlightDump, SpoolSink};

use crate::dio;

/// File-name prefix and suffix for spool dumps: `flight-<seq>.json`.
const PREFIX: &str = "flight-";
const SUFFIX: &str = ".json";

/// Byte-bounded on-disk dump spool; see the module docs.
pub struct DiskSpool {
    dir: PathBuf,
    max_bytes: u64,
    state: Mutex<SpoolState>,
}

/// Files currently in the spool, oldest first, plus their total size.
struct SpoolState {
    files: Vec<(PathBuf, u64)>,
    bytes: u64,
}

impl std::fmt::Debug for DiskSpool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskSpool")
            .field("dir", &self.dir)
            .field("max_bytes", &self.max_bytes)
            .finish_non_exhaustive()
    }
}

impl DiskSpool {
    /// Open (creating if needed) a spool directory with a total payload
    /// budget of `max_bytes`. Existing `flight-*.json` files are
    /// re-adopted into the accounting in name order — the sequence
    /// number embedded in the name orders dumps across restarts.
    pub fn open(dir: &Path, max_bytes: u64) -> io::Result<DiskSpool> {
        dio::create_dir_all(dir)?;
        let mut files: Vec<(PathBuf, u64)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !(name.starts_with(PREFIX) && name.ends_with(SUFFIX)) {
                continue;
            }
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            files.push((entry.path(), len));
        }
        files.sort();
        let bytes = files.iter().map(|(_, n)| *n).sum();
        Ok(DiskSpool {
            dir: dir.to_path_buf(),
            max_bytes,
            state: Mutex::new(SpoolState { files, bytes }),
        })
    }

    /// The spool directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Dump files currently retained, oldest first.
    pub fn files(&self) -> Vec<PathBuf> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.files.iter().map(|(p, _)| p.clone()).collect()
    }

    /// Total payload bytes currently retained.
    pub fn bytes(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).bytes
    }

    /// Evict oldest dumps until `incoming` more bytes fit the budget.
    /// Delete errors are swallowed (the entry is dropped from the
    /// accounting either way — see the module docs' failure stance).
    fn make_room(&self, state: &mut SpoolState, incoming: u64) {
        while !state.files.is_empty() && state.bytes + incoming > self.max_bytes {
            let (path, len) = state.files.remove(0);
            let _ = dio::remove_file(&path);
            state.bytes -= len;
        }
    }

    /// Write one dump document as `flight-<seq>.json`, evicting older
    /// dumps first when the budget requires it.
    fn write(&self, seq: u64, json: &str) -> io::Result<PathBuf> {
        let path = self.dir.join(format!("{PREFIX}{seq:06}{SUFFIX}"));
        let len = json.len() as u64;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.make_room(&mut state, len);
        // Fault site fires inside `write_all`, before any byte lands; a
        // torn write leaves a half dump on disk, which the profile
        // parser skips (no closing brace → not a valid dump document).
        let mut file = dio::create(&path)?;
        if let Err(e) = dio::write_all(&mut file, Site::SpoolWrite, json.as_bytes()) {
            drop(file);
            let _ = dio::remove_file(&path);
            return Err(e);
        }
        dio::fsync(&file, Site::SpoolWrite)?;
        state.files.push((path.clone(), len));
        state.bytes += len;
        Ok(path)
    }
}

impl SpoolSink for DiskSpool {
    fn spool_dump(&self, dump: &FlightDump) -> io::Result<PathBuf> {
        self.write(dump.seq, &crate::telemetry::dump_json(dump).to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_faultinject::{install, FaultKind, FaultPlan};
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pmv_spool_tests").join(format!(
            "{name}-{}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dumps_land_and_survive_reopen() {
        let dir = tmp("reopen");
        let spool = DiskSpool::open(&dir, 1 << 20).unwrap();
        let p0 = spool.write(0, "{\"pmv_flight_dump\":1}").unwrap();
        let p1 = spool.write(1, "{\"pmv_flight_dump\":1,\"seq\":1}").unwrap();
        assert!(p0.exists() && p1.exists());
        assert_eq!(spool.files(), vec![p0.clone(), p1.clone()]);

        let reopened = DiskSpool::open(&dir, 1 << 20).unwrap();
        assert_eq!(reopened.files(), vec![p0, p1]);
        assert_eq!(reopened.bytes(), spool.bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_oldest_first() {
        let dir = tmp("budget");
        let spool = DiskSpool::open(&dir, 100).unwrap();
        let big = "x".repeat(60);
        let p0 = spool.write(0, &big).unwrap();
        let p1 = spool.write(1, &big).unwrap();
        // 120 > 100: dump 0 must have been evicted to admit dump 1.
        assert!(!p0.exists(), "oldest dump not evicted");
        assert!(p1.exists());
        assert_eq!(spool.files(), vec![p1]);
        assert!(spool.bytes() <= 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_fault_drops_the_dump_cleanly() {
        let dir = tmp("fault");
        let spool = DiskSpool::open(&dir, 1 << 20).unwrap();
        {
            let plan = Arc::new(FaultPlan::new(7).with_rule(Site::SpoolWrite, FaultKind::Io, 1.0));
            let _guard = install(plan);
            assert!(spool.write(0, "{}").is_err());
        }
        // Failed dump left nothing behind — on disk or in accounting.
        assert!(spool.files().is_empty());
        assert_eq!(spool.bytes(), 0);
        // And the spool still works once the fault clears.
        assert!(spool.write(1, "{}").is_ok());
        assert_eq!(spool.files().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
