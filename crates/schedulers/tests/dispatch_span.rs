//! A subscribed PQ-WSJF run exports the `mris_policy_dispatch_seconds`
//! span with one sample per event: the engine times every policy's
//! dispatch, not only MRIS's. Kept in its own test binary so no
//! concurrently running test can install another subscriber.

use std::sync::Arc;

use mris_obs::{MetricValue, Obs};
use mris_schedulers::{PqPolicy, SortHeuristic};
use mris_sim::run_online_observed;
use mris_types::{Instance, Job, JobId};

#[test]
fn pq_wsjf_run_exports_the_policy_dispatch_span() {
    let jobs = (0..40)
        .map(|i| Job::from_fractions(JobId(0), (i / 4) as f64, 3.0, 1.0, &[0.3, 0.2]))
        .collect();
    let instance = Instance::from_unnumbered(jobs, 2).unwrap();

    let obs = Arc::new(Obs::new());
    let guard = mris_obs::install_guard(Arc::clone(&obs));
    let mut events = 0u64;
    let schedule = run_online_observed(
        &instance,
        2,
        &mut PqPolicy::new(SortHeuristic::Wsjf),
        |_| events += 1,
    )
    .unwrap();
    drop(guard);
    schedule.validate(&instance).unwrap();

    let prom = obs.registry().render_prometheus();
    assert!(
        prom.contains("# TYPE mris_policy_dispatch_seconds histogram"),
        "{prom}"
    );
    let samples = obs
        .registry()
        .snapshot()
        .into_iter()
        .find_map(|(name, _, value)| match value {
            MetricValue::Histogram(h) if name == "mris_policy_dispatch_seconds" => Some(h.count),
            _ => None,
        });
    assert_eq!(samples, Some(events), "one dispatch span per event");
}
