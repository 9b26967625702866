//! The durable spool: the daemon's write-ahead store of committed streams.
//!
//! Layout: `<spool>/<tenant>/<stream>.wire` for committed streams and
//! `<stream>.part` while a submission is still decoding. The commit
//! sequence is
//!
//! 1. flush + `sync_data` the `.part` file (bytes durable),
//! 2. reserve the stream's events and spool cells in the registry (the
//!    spool-cells quota can refuse here),
//! 3. rename `.part` → `.wire` (atomic commit point),
//! 4. `sync_data` the tenant directory (rename durable),
//! 5. fold the profile into the in-memory aggregate,
//! 6. acknowledge the client.
//!
//! A failure at (3) or (4) only hands the reservation back: the aggregate
//! never held the stream. Because the ack comes last, every acknowledged
//! stream has a durable `.wire` file; a daemon killed between (4) and (6)
//! re-aggregates the stream on restart and answers the client's retry
//! with an idempotent duplicate ack. `.part` leftovers are
//! un-acknowledged by construction and are deleted during recovery.

use crate::tenant::Registry;
use crate::{one_shot_profile, valid_name, ServeError};
use aprof_core::ProfileReport;
use aprof_faults::FaultPlan;
use aprof_obs::counters;
use std::fs::{self, File};
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// Handle on the spool directory.
#[derive(Debug, Clone)]
pub(crate) struct Spool {
    dir: PathBuf,
    /// Fault plan for the commit stages (rename). Disabled in production.
    plan: FaultPlan,
}

/// A stable per-stream ordinal for commit-stage fault decisions: an FNV-1a
/// hash of `tenant/stream`, so the injected schedule is a function of the
/// stream's identity, not of arrival order or thread interleaving.
pub(crate) fn name_ordinal(tenant: &str, stream: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.bytes().chain([b'/']).chain(stream.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Spool {
    /// Opens (creating if needed) the spool directory. `plan` governs
    /// injected commit-stage faults.
    pub(crate) fn open(dir: &Path, plan: FaultPlan) -> Result<Spool, ServeError> {
        fs::create_dir_all(dir)?;
        Ok(Spool { dir: dir.to_owned(), plan })
    }

    fn tenant_dir(&self, tenant: &str) -> PathBuf {
        self.dir.join(tenant)
    }

    pub(crate) fn part_path(&self, tenant: &str, stream: &str) -> PathBuf {
        self.tenant_dir(tenant).join(format!("{stream}.part"))
    }

    pub(crate) fn wire_path(&self, tenant: &str, stream: &str) -> PathBuf {
        self.tenant_dir(tenant).join(format!("{stream}.wire"))
    }

    /// Creates (truncating any stale leftover) the `.part` file for an
    /// in-flight submission.
    pub(crate) fn create_part(&self, tenant: &str, stream: &str) -> Result<File, ServeError> {
        fs::create_dir_all(self.tenant_dir(tenant))?;
        Ok(File::create(self.part_path(tenant, stream))?)
    }

    /// Atomically promotes a synced `.part` to `.wire` and makes the rename
    /// itself durable. This is the commit point of the ingest path. A
    /// failure here (e.g. disk full — injectable via the fault plan's
    /// rename class) leaves the `.part` in place; the caller hands back
    /// its registry reservation, so no half-committed stream is latched.
    pub(crate) fn commit(&self, tenant: &str, stream: &str) -> Result<(), ServeError> {
        if let Some(e) = self.plan.rename_fault(name_ordinal(tenant, stream)) {
            return Err(e.into());
        }
        fs::rename(self.part_path(tenant, stream), self.wire_path(tenant, stream))?;
        File::open(self.tenant_dir(tenant))?.sync_data()?;
        Ok(())
    }

    /// Removes the `.part` of an aborted submission (best-effort).
    pub(crate) fn discard_part(&self, tenant: &str, stream: &str) {
        let _ = fs::remove_file(self.part_path(tenant, stream));
    }

    /// Replays every committed stream into `registry`, one at a time as
    /// it is decoded, and deletes un-acknowledged `.part` leftovers.
    /// Returns the damaged files: a `.wire` file that fails strict
    /// validation is reported and left on disk for inspection — it is
    /// *not* silently dropped from the data-loss accounting.
    pub(crate) fn recover(
        &self,
        registry: &Registry,
    ) -> Result<Vec<(PathBuf, ServeError)>, ServeError> {
        let mut damaged = Vec::new();
        let mut tenants: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        tenants.sort();
        for tenant_dir in tenants {
            let Some(tenant) = tenant_dir.file_name().and_then(|n| n.to_str()) else { continue };
            if !valid_name(tenant) {
                continue;
            }
            let mut files: Vec<PathBuf> = fs::read_dir(&tenant_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .collect();
            files.sort();
            for path in files {
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
                if let Some(stream) = name.strip_suffix(".part") {
                    if valid_name(stream) {
                        let _ = fs::remove_file(&path);
                    }
                    continue;
                }
                let Some(stream) = name.strip_suffix(".wire") else { continue };
                if !valid_name(stream) {
                    continue;
                }
                match recover_stream(&path) {
                    Ok((report, events, bytes)) => {
                        counters::SERVE_RECOVERED_STREAMS.incr();
                        registry.restore(tenant, stream, &report, events, bytes_to_cells(bytes));
                    }
                    Err(e) => damaged.push((path, e)),
                }
            }
        }
        Ok(damaged)
    }
}

/// Profiles one committed `.wire` file; also returns its size in bytes.
fn recover_stream(path: &Path) -> Result<(ProfileReport, u64, u64), ServeError> {
    let bytes = fs::metadata(path)?.len();
    let (report, events) = one_shot_profile(BufReader::new(File::open(path)?))?;
    Ok((report, events, bytes))
}

/// Spool footprint of a byte count, in the VM's 8-byte cells (rounding up),
/// so `ResourceLimits::max_alloc_cells` doubles as a spool quota.
pub(crate) fn bytes_to_cells(bytes: u64) -> u64 {
    bytes.div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_round_up() {
        assert_eq!(bytes_to_cells(0), 0);
        assert_eq!(bytes_to_cells(1), 1);
        assert_eq!(bytes_to_cells(8), 1);
        assert_eq!(bytes_to_cells(9), 2);
    }
}
