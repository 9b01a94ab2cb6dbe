//! Hostile submissions at the `Service` API boundary.
//!
//! A front end passes client input straight to [`Service::submit_at_as`]
//! and [`Service::submit_as`]: non-finite times, times too large for job
//! durations to register, unknown or duplicate job ids, and unknown
//! tenants must come back as typed [`OfferError`]s that
//! change no state — never a panic, never a clock moved to infinity, never
//! a journal record. Pinned here over arbitrary submission streams, for a
//! wakeup-driven policy (MRIS) and an event-driven one, single- and
//! multi-tenant: nothing panics, `now()` stays finite, every refused job
//! stays `NotSubmitted`, the journal does not grow on a refusal, and
//! `drain` completes every accepted job.

use mris_core::registry::online_policy_by_name;
use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, prop_assert_eq, Rng};
use mris_service::{
    DurabilityConfig, JobOutcome, MemorySink, MemorySnapshots, Service, ServiceConfig, SharedBuf,
    SimClock, TenantSpec,
};
use mris_types::{Instance, Job, JobId, OfferError, TenantId};

/// One job row: release, proc time, weight, demand fraction.
type Row = (f64, f64, f64, f64);

/// One submission: raw job id, time kind, time magnitude, raw tenant id.
type Offer = (usize, usize, f64, usize);

/// `(machines, rows, offers, multi_tenant)`.
type Case = (usize, Vec<Row>, Vec<Offer>, bool);

fn gen_case(rng: &mut Rng) -> Case {
    let n = rng.gen_range(1..=8usize);
    let rows = (0..n)
        .map(|_| {
            (
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.5..5.0),
                rng.gen_range(0.0..4.0),
                rng.gen_range(0.05..=1.0),
            )
        })
        .collect();
    let offers = (0..rng.gen_range(1..=3 * n))
        .map(|_| {
            (
                rng.gen_range(0..n + 3),
                rng.gen_range(0..=7usize),
                rng.gen_range(0.0..30.0),
                rng.gen_range(0..4usize),
            )
        })
        .collect();
    (
        rng.gen_range(1..=3usize),
        rows,
        offers,
        rng.gen_range(0..2usize) == 1,
    )
}

/// The submission time an offer asks for; `None` submits at the clock's
/// current time.
fn offer_time(kind: usize, magnitude: f64) -> Option<f64> {
    match kind {
        0 => None,
        1 => Some(f64::NAN),
        2 => Some(f64::INFINITY),
        3 => Some(f64::NEG_INFINITY),
        4 => Some(-magnitude),
        5 => Some(magnitude * 1e12),
        6 => Some(magnitude * 1e300),
        _ => Some(magnitude),
    }
}

#[test]
fn hostile_submissions_never_panic_or_corrupt_the_service() {
    check(
        "hostile submissions",
        &Config::with_cases(64),
        gen_case,
        |(machines, rows, offers, multi)| {
            if rows.is_empty() || !(1..=3).contains(machines) {
                return Ok(());
            }
            let jobs = rows
                .iter()
                .map(|&(rel, p, w, d)| Job::from_fractions(JobId(0), rel, p, w, &[d]))
                .collect();
            let Ok(instance) = Instance::from_unnumbered(jobs, 1) else {
                return Ok(());
            };
            for name in ["mris", "pq-wsjf"] {
                let mut cfg = ServiceConfig::new(*machines);
                if *multi {
                    cfg.tenants = vec![
                        TenantSpec::new("a", "ta", 1.0),
                        TenantSpec::new("b", "tb", 2.0),
                    ];
                }
                let policy = online_policy_by_name(name, &instance, *machines)
                    .expect("registry resolves online names");
                let mut svc = Service::new(
                    instance.clone(),
                    policy,
                    cfg,
                    SimClock::new(),
                    MemorySink::default(),
                )
                .expect("valid service config");
                let journal = SharedBuf::new();
                svc.attach_journal(
                    DurabilityConfig {
                        flush_every: 1,
                        snapshot_every: 4,
                    },
                    Box::new(journal.clone()),
                    Box::new(MemorySnapshots::default()),
                )
                .expect("journal attaches to a fresh service");
                let n = instance.len();
                let mut accepted = Vec::new();
                for &(job, kind, magnitude, tenant) in offers {
                    let (job, tenant) = (JobId(job as u32), TenantId(tenant as u32));
                    let outcome = |svc: &Service<_, _>| (job.index() < n).then(|| svc.outcome(job));
                    let before = outcome(&svc);
                    let journal_len = journal.contents().len();
                    let verdict = match offer_time(kind, magnitude) {
                        Some(t) => svc.submit_at_as(t, job, tenant),
                        None => svc.submit_as(job, tenant),
                    };
                    prop_assert!(svc.now().is_finite(), "{name}: now() became {}", svc.now());
                    match verdict {
                        Ok(Ok(())) => accepted.push(job),
                        Ok(Err(_)) => {}
                        Err(OfferError::Scheduling(e)) => {
                            return Err(format!("{name}: policy error {e}"))
                        }
                        Err(refused) => {
                            prop_assert_eq!(
                                outcome(&svc),
                                before,
                                "{name}: refusal ({refused}) changed {job}'s outcome"
                            );
                            prop_assert_eq!(
                                journal.contents().len(),
                                journal_len,
                                "{name}: refusal ({refused}) was journaled"
                            );
                        }
                    }
                }
                let (report, _) = svc
                    .drain()
                    .map_err(|e| format!("{name}: drain failed: {e}"))?;
                for job in accepted {
                    prop_assert!(
                        matches!(report.outcomes[job.index()], JobOutcome::Completed),
                        "{name}: accepted {job} did not complete"
                    );
                }
            }
            Ok(())
        },
    );
}
