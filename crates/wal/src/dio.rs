//! `Dio` — the durable I/O chokepoint.
//!
//! Every byte this workspace writes to disk goes through the functions
//! in this module, for two reasons:
//!
//! 1. **Deterministic crash testing.** Each operation fires a
//!    `pmv-faultinject` disk site *before* acting, so a seeded plan can
//!    fail it ([`FaultKind::Io`]), tear it ([`FaultKind::TornWrite`] —
//!    a prefix of the buffer reaches the file, then the call errors),
//!    or kill the process at it ([`FaultKind::CrashPoint`] — an unwind
//!    with [`pmv_faultinject::CRASH_PREFIX`] that the crash harness
//!    catches as a simulated `kill -9`). The kill-point matrix test
//!    places one-shot crash rules at every site.
//! 2. **Checkability.** The `pmv-analyze` `dio_funnel_reach` contract
//!    denies direct `std::fs` write access (`File::create`, `write`,
//!    `rename`, …), and any call that reaches one, everywhere in
//!    `crates/{core,storage,wal}` *except* this file, so a code path
//!    cannot quietly bypass fault injection — if it writes, it is
//!    testable.
//!
//! [`FaultKind::Io`]: pmv_faultinject::FaultKind::Io
//! [`FaultKind::TornWrite`]: pmv_faultinject::FaultKind::TornWrite
//! [`FaultKind::CrashPoint`]: pmv_faultinject::FaultKind::CrashPoint

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

use pmv_faultinject::{fire_disk, DiskFault, Site};

fn injected(site: Site) -> io::Error {
    io::Error::other(format!("injected disk fault at {site}"))
}

/// Create (or truncate) a file for writing.
pub fn create(path: &Path) -> io::Result<File> {
    File::create(path)
}

/// Open a file for appending, creating it if absent. Returns the file
/// positioned at its current end.
pub fn open_append(path: &Path) -> io::Result<File> {
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(path)?;
    f.seek(SeekFrom::End(0))?;
    Ok(f)
}

/// Create a directory and all parents.
pub fn create_dir_all(path: &Path) -> io::Result<()> {
    std::fs::create_dir_all(path)
}

/// Write the whole buffer at the file's current position, under the
/// given fault site. A [`DiskFault::Torn`] persists only the first half
/// of the buffer before failing — the torn-tail case recovery must
/// detect and truncate.
pub fn write_all(file: &mut File, site: Site, buf: &[u8]) -> io::Result<()> {
    match fire_disk(site) {
        Ok(()) => file.write_all(buf),
        Err(DiskFault::Io) => Err(injected(site)),
        Err(DiskFault::Torn) => {
            file.write_all(&buf[..buf.len() / 2])?;
            Err(injected(site))
        }
    }
}

/// Flush file contents and metadata to stable storage, under the given
/// fault site. This is the durability point: a commit is durable iff
/// its record's fsync returned.
pub fn fsync(file: &File, site: Site) -> io::Result<()> {
    match fire_disk(site) {
        Ok(()) => file.sync_all(),
        Err(_) => Err(injected(site)),
    }
}

/// Truncate `file` back to `len` bytes — the append-failure cleanup
/// path, undoing a torn in-process write so the running process keeps a
/// clean log tail. Not fault-sited: it runs *inside* failure handling,
/// and if the process dies anyway the recovery scan truncates the same
/// bytes.
pub fn truncate(file: &File, len: u64) -> io::Result<()> {
    file.set_len(len)
}

/// Atomically rename `from` to `to` (same directory), under
/// [`Site::CkptRename`] — the checkpoint publication point.
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    match fire_disk(Site::CkptRename) {
        Ok(()) => std::fs::rename(from, to),
        Err(_) => Err(injected(Site::CkptRename)),
    }
}

/// Remove a file, under [`Site::WalTruncate`] — WAL segments behind a
/// checkpoint are deleted through this.
pub fn remove_file(path: &Path) -> io::Result<()> {
    match fire_disk(Site::WalTruncate) {
        Ok(()) => std::fs::remove_file(path),
        Err(_) => Err(injected(Site::WalTruncate)),
    }
}

/// Fsync a directory, making renames/creates/removals inside it
/// durable. Errors are ignored on platforms where directories cannot be
/// opened for sync.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_faultinject::{install, FaultKind, FaultPlan};
    use std::sync::Arc;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pmv_dio_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn torn_write_persists_half_then_errors() {
        let path = tmp("torn.bin");
        let _ = std::fs::remove_file(&path);
        let mut f = open_append(&path).unwrap();
        let plan =
            Arc::new(FaultPlan::new(0).with_rule_at(Site::WalAppend, FaultKind::TornWrite, 0));
        let g = install(plan);
        let buf = [0xABu8; 64];
        assert!(write_all(&mut f, Site::WalAppend, &buf).is_err());
        drop(g);
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap().len(), 32);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn io_fault_persists_nothing() {
        let path = tmp("io.bin");
        let _ = std::fs::remove_file(&path);
        let mut f = open_append(&path).unwrap();
        let plan = Arc::new(FaultPlan::new(0).with_rule_at(Site::WalAppend, FaultKind::Io, 0));
        let g = install(plan);
        assert!(write_all(&mut f, Site::WalAppend, &[1, 2, 3]).is_err());
        drop(g);
        drop(f);
        assert!(std::fs::read(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_write_and_fsync_roundtrip() {
        let path = tmp("clean.bin");
        let _ = std::fs::remove_file(&path);
        let mut f = open_append(&path).unwrap();
        write_all(&mut f, Site::WalAppend, b"hello").unwrap();
        fsync(&f, Site::WalFsync).unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        remove_file(&path).unwrap();
        assert!(!path.exists());
    }
}
