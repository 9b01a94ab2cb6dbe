//! Bench-side journal and snapshot stores for the durable service.
//!
//! Both stand in for the disk: the journal keeps its bytes in memory (the
//! restore pass reads them back) and times every write and flush; the
//! snapshot store keeps only the latest snapshot, so `peak_rss_mb` measures
//! the program rather than a store holding every ~1 MB snapshot.

use std::io::Write;
use std::sync::{Arc, Mutex};

use mris_service::{Snapshot, SnapshotStore};
use mris_types::DurabilityError;

use crate::span;

/// A `Write` sink over a shared in-memory buffer.
#[derive(Debug, Clone, Default)]
pub struct Journal(Arc<Mutex<Vec<u8>>>);

impl Journal {
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().expect("journal lock").clone()
    }
}

impl Write for Journal {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        span::span(span::IO_SINK, "journal.write", || {
            self.0.lock().expect("journal lock").extend_from_slice(buf)
        });
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[derive(Debug, Default)]
struct Latest {
    bytes: Option<Vec<u8>>,
    count: u64,
    total_bytes: u64,
}

/// Keeps the latest encoded snapshot and counts what it was given.
#[derive(Debug, Clone, Default)]
pub struct LatestSnapshot(Arc<Mutex<Latest>>);

impl LatestSnapshot {
    /// The latest encoded snapshot, if any.
    pub fn latest(&self) -> Option<Vec<u8>> {
        self.0.lock().expect("snapshot lock").bytes.clone()
    }

    /// `(snapshots stored, encoded bytes stored)`.
    pub fn totals(&self) -> (u64, u64) {
        let latest = self.0.lock().expect("snapshot lock");
        (latest.count, latest.total_bytes)
    }
}

impl SnapshotStore for LatestSnapshot {
    fn put(&mut self, snap: &Snapshot) -> Result<(), DurabilityError> {
        let encoded = span::span(span::SERVICE, "Snapshot::encode", || snap.encode());
        span::span(span::IO_SINK, "snapshot.put", || {
            let mut latest = self.0.lock().expect("snapshot lock");
            latest.count += 1;
            latest.total_bytes += encoded.len() as u64;
            latest.bytes = Some(encoded);
        });
        Ok(())
    }
}
