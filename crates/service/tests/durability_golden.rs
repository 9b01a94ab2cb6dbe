//! Artifact golden: the exact bytes a seeded MRIS service writes to its
//! journal and snapshot store.
//!
//! Every journal frame and snapshot container carries a CRC-32, and the
//! network protocol frames its payloads the same way with the same
//! `mris_service::crc32`. Pinning the FNV-64 of the journal and of every
//! encoded snapshot therefore pins the checksum kernel and the codec
//! byte-for-byte: a build that changes any of them can no longer restore
//! artifacts an older build wrote, and this test says so first.
//!
//! The second test covers restore's snapshot cross-check: a snapshot whose
//! state was altered and then re-encoded with a valid CRC decodes cleanly,
//! so only the replay's byte comparison at its LSN can reject it.

use mris_core::registry::online_policy_by_name;
use mris_rng::Rng;
use mris_service::{
    fnv64, parse_journal, DurabilityConfig, MemorySink, MemorySnapshots, RestoreOptions, Service,
    ServiceConfig, SharedBuf, SimClock, Snapshot,
};
use mris_types::{Instance, Job, JobId, RestoreError};

const MACHINES: usize = 3;
const JOBS: usize = 300;
const DCFG: DurabilityConfig = DurabilityConfig {
    flush_every: 1,
    snapshot_every: 8,
};

/// A seeded three-resource instance: `JOBS` jobs released over a window
/// short enough to keep a queue, so snapshots hold real state.
fn instance() -> Instance {
    let mut rng = Rng::new(0x601D).substream("durability-golden");
    let jobs = (0..JOBS)
        .map(|_| {
            Job::from_fractions(
                JobId(0),
                rng.gen_range(0.0..150.0),
                rng.gen_range(0.5..8.0),
                rng.gen_range(0.0..4.0),
                &(0..3)
                    .map(|_| rng.gen_range(0.05..=0.9))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    Instance::from_unnumbered(jobs, 3).expect("generated jobs are valid")
}

fn config() -> ServiceConfig {
    ServiceConfig::builder(MACHINES)
        .epoch(0.5)
        .build()
        .expect("valid config")
}

/// Runs the journaled MRIS service to completion; returns the journal and
/// every encoded snapshot in the order they were written.
fn run(instance: &Instance) -> (Vec<u8>, Vec<Vec<u8>>) {
    let policy = online_policy_by_name("mris", instance, MACHINES).expect("known policy");
    let mut svc = Service::new(
        instance.clone(),
        policy,
        config(),
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    let buf = SharedBuf::new();
    let snaps = MemorySnapshots::new();
    svc.attach_journal(DCFG, Box::new(buf.clone()), Box::new(snaps.clone()))
        .expect("journal attaches to a fresh service");
    let mut order: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
    order.sort_by(|&a, &b| {
        instance
            .job(a)
            .release
            .total_cmp(&instance.job(b).release)
            .then(a.cmp(&b))
    });
    for job in order {
        let _ = svc
            .submit_at(instance.job(job).release, job)
            .expect("no policy error");
    }
    svc.drain().expect("drain");
    (buf.contents(), snaps.all())
}

/// Restores from the full journal and `snapshot`; returns the LSN of the
/// snapshot replay verified.
fn restore(
    instance: &Instance,
    journal: &[u8],
    snapshot: &[u8],
) -> Result<Option<u64>, RestoreError> {
    let policy = online_policy_by_name("mris", instance, MACHINES).expect("known policy");
    Service::restore(
        instance.clone(),
        policy,
        config(),
        DCFG,
        SimClock::new(),
        MemorySink::default(),
        journal,
        Some(snapshot),
        RestoreOptions::default(),
    )
    .map(|(_, report)| report.snapshot_verified)
}

/// Pinned artifacts of the seeded run. Regenerate only for a deliberate,
/// versioned format change: older artifacts must keep restoring.
const JOURNAL_LEN: usize = 29_534;
const JOURNAL_FNV: u64 = 0x8882_0c50_bd53_cea9;
const SNAPSHOT_COUNT: usize = 61;
/// FNV-64 over the concatenated FNV-64s of every encoded snapshot.
const SNAPSHOTS_FNV: u64 = 0x911d_23d6_1f34_4ce3;

#[test]
fn journal_and_snapshot_bytes_are_pinned() {
    let (journal, snapshots) = run(&instance());
    let digests: Vec<u8> = snapshots
        .iter()
        .flat_map(|s| fnv64(s).to_le_bytes())
        .collect();
    let got = (
        journal.len(),
        fnv64(&journal),
        snapshots.len(),
        fnv64(&digests),
    );
    assert_eq!(
        got,
        (JOURNAL_LEN, JOURNAL_FNV, SNAPSHOT_COUNT, SNAPSHOTS_FNV),
        "journal or snapshot bytes changed: (len, fnv, snapshots, snapshots fnv) = \
         ({}, {:#018x}, {}, {:#018x})",
        got.0,
        got.1,
        got.2,
        got.3
    );
    // Every artifact still decodes.
    for bytes in &snapshots {
        Snapshot::decode(bytes).expect("pinned snapshot decodes");
    }
    parse_journal(&journal).expect("pinned journal parses");
}

#[test]
fn altered_state_with_a_valid_crc_fails_restore_at_its_lsn() {
    let instance = instance();
    let (journal, snapshots) = run(&instance);
    let good = &snapshots[snapshots.len() / 2];
    let mut snap = Snapshot::decode(good).expect("golden snapshot decodes");
    assert_eq!(restore(&instance, &journal, good), Ok(Some(snap.lsn)));

    let mid = snap.state.len() / 2;
    snap.state[mid] ^= 0x01;
    // Re-encoding recomputes the CRC, so the container itself is valid.
    let forged = snap.encode();
    Snapshot::decode(&forged).expect("forged snapshot has a valid CRC");
    assert_eq!(
        restore(&instance, &journal, &forged),
        Err(RestoreError::SnapshotStateMismatch { lsn: snap.lsn })
    );
}
