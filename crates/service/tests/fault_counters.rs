//! A service replaying a fault plan exports the `mris_chaos_*` counters,
//! like the batch driver: both run the same engine step, which emits them.
//! Kept in its own test binary so no concurrently running driver test can
//! supply the counts.

use std::sync::Arc;

use mris_core::registry::online_policy_by_name;
use mris_service::{MemorySink, Service, ServiceConfig, SimClock};
use mris_sim::FaultPlan;
use mris_types::{FaultEvent, FaultTarget, Instance, Job, JobId};

#[test]
fn faulted_service_exports_chaos_counters() {
    let jobs = (0..6)
        .map(|i| Job::from_fractions(JobId(i), 0.0, 4.0, 1.0, &[0.4]))
        .collect();
    let instance = Instance::new(jobs, 1).expect("valid instance");
    let mut cfg = ServiceConfig::new(2);
    cfg.fault_plan = FaultPlan::from_events(vec![
        FaultEvent {
            at: 1.0,
            downtime: 2.0,
            target: FaultTarget::Machine(0),
        },
        // Machine 0 is down at t = 2: this strike is absorbed.
        FaultEvent {
            at: 2.0,
            downtime: 1.0,
            target: FaultTarget::Machine(0),
        },
    ]);
    let policy = online_policy_by_name("pq-wsjf", &instance, 2).expect("known policy");
    let mut svc = Service::new(
        instance.clone(),
        policy,
        cfg,
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");

    let obs = Arc::new(mris_obs::Obs::new());
    let guard = mris_obs::install_guard(Arc::clone(&obs));
    for job in instance.jobs() {
        let _ = svc.submit_at(job.release, job.id).expect("valid offer");
    }
    let (report, _) = svc.drain().expect("drain");
    drop(guard);

    let counter = |name| obs.registry().counter_value(name, None).unwrap_or(0);
    assert_eq!(report.log.failures.len(), 1);
    assert_eq!(counter("mris_chaos_failures_total"), 1);
    assert_eq!(counter("mris_chaos_absorbed_strikes_total"), 1);
    assert_eq!(counter("mris_chaos_recoveries_total"), 1);
    assert_eq!(
        counter("mris_chaos_re_releases_total"),
        report.log.total_re_releases()
    );
    assert!(
        report.log.total_re_releases() > 0,
        "the strike killed nothing"
    );
}
