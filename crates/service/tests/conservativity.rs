//! Conservativity of the service event loop.
//!
//! The service adds admission control, clocks, and telemetry *around* the
//! scheduling path — it must not change a single placement. Pinned here,
//! over randomized instances:
//!
//! 1. A permissive service under a lag-free `SimClock` (jobs submitted at
//!    their release times, per-event delivery) produces a bit-identical
//!    schedule and AWCT to the batch scheduler resolved from the registry,
//!    for **every** comparison algorithm — including MRIS, whose `gamma_k`
//!    wakeups the service loop honors.
//! 2. For policies without wakeups (all baselines), the service is also
//!    bit-identical to `run_online` directly.
//! 3. Two service runs with the same seed are byte-identical (replay).
//! 4. A permissive service replaying a fault plan matches the chaos driver
//!    (`run_driver` with the same plan and restart semantics) on schedule,
//!    fault log, and AWCT bits, for every registered online policy, on
//!    edge-free and DAG instances.

use mris_core::registry::{algorithm_by_name, online_policy_by_name};
use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, prop_assert_eq, Rng};
use mris_service::{JobOutcome, MemorySink, Service, ServiceConfig, ServiceReport, SimClock};
use mris_sim::{run_driver, run_online, FaultPlan, RunOptions};
use mris_types::{
    FaultEvent, FaultTarget, Instance, InstanceBuilder, Job, JobId, RestartSemantics,
};

const SCHEDULERS: [&str; 6] = ["mris", "pq-wsjf", "pq-wsvf", "tetris", "bf-exec", "ca-pq"];
/// Baselines whose `next_wakeup` is `None`, comparable against `run_online`.
const EVENT_DRIVEN: [&str; 5] = ["pq-wsjf", "pq-wsvf", "tetris", "bf-exec", "ca-pq"];

/// One generated job row: release, proc time, weight, demands.
type Row = (f64, f64, f64, Vec<f64>);

/// `(machines, resources, rows)`.
type Case = (usize, usize, Vec<Row>);

fn gen_case(rng: &mut Rng) -> Case {
    let r = rng.gen_range(1..=2usize);
    let n = rng.gen_range(2..=12usize);
    let rows = (0..n)
        .map(|_| {
            (
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.5..6.0),
                rng.gen_range(0.0..4.0),
                (0..r).map(|_| rng.gen_range(0.0..=1.0)).collect(),
            )
        })
        .collect();
    (rng.gen_range(1..=3usize), r, rows)
}

fn build_case(case: &Case) -> Option<(usize, Instance)> {
    let (machines, r, rows) = case;
    if rows.len() < 2
        || !(1..=2).contains(r)
        || !(1..=3).contains(machines)
        || rows.iter().any(|(_, _, _, d)| d.len() != *r)
    {
        return None;
    }
    let jobs = rows
        .iter()
        .map(|(rel, p, w, d)| Job::from_fractions(JobId(0), *rel, *p, *w, d))
        .collect();
    let instance = Instance::from_unnumbered(jobs, *r).ok()?;
    Some((*machines, instance))
}

/// Runs a permissive service over `instance`, submitting every job at its
/// release time in (release, id) order — the same arrival order the batch
/// drivers synthesize.
fn run_service(name: &str, instance: &Instance, machines: usize) -> Result<ServiceReport, String> {
    run_service_with(name, instance, machines, ServiceConfig::new(machines))
}

/// [`run_service`] under an explicit (permissive) configuration.
fn run_service_with(
    name: &str,
    instance: &Instance,
    machines: usize,
    cfg: ServiceConfig,
) -> Result<ServiceReport, String> {
    let policy = online_policy_by_name(name, instance, machines)
        .expect("registry resolves comparison names");
    let mut service = Service::new(
        instance.clone(),
        policy,
        cfg,
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    let mut order: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
    order.sort_by(|&a, &b| {
        instance
            .job(a)
            .release
            .total_cmp(&instance.job(b).release)
            .then(a.cmp(&b))
    });
    for job in order {
        service
            .submit_at(instance.job(job).release, job)
            .map_err(|e| format!("{name} service: {e}"))?
            .expect("permissive config never rejects");
    }
    let (report, _sink) = service.drain().map_err(|e| format!("{name} drain: {e}"))?;
    Ok(report)
}

/// Service == batch scheduler, bit for bit, for every comparison algorithm.
#[test]
fn service_matches_batch_for_all_algorithms() {
    check(
        "service vs batch conservativity",
        &Config::with_cases(48),
        gen_case,
        |case| {
            let Some((machines, instance)) = build_case(case) else {
                return Ok(());
            };
            for name in SCHEDULERS {
                let batch = algorithm_by_name(name)
                    .expect("registry resolves comparison names")
                    .try_schedule(&instance, machines)
                    .map_err(|e| format!("{name} batch: {e}"))?;
                let report = run_service(name, &instance, machines)?;
                prop_assert_eq!(&report.schedule, &batch, "{name} diverged from batch");
                prop_assert_eq!(
                    report.schedule.awct(&instance).to_bits(),
                    batch.awct(&instance).to_bits(),
                    "{name} AWCT bits diverged"
                );
                prop_assert!(
                    report
                        .outcomes
                        .iter()
                        .all(|o| matches!(o, JobOutcome::Completed)),
                    "{name} left non-completed outcomes"
                );
                prop_assert_eq!(report.summary.completed, instance.len(), "{name} count");
                prop_assert_eq!(report.summary.failures, 0usize, "{name} phantom failure");
            }
            Ok(())
        },
    );
}

/// For wakeup-free baselines the service is also identical to `run_online`.
#[test]
fn service_matches_run_online_for_event_driven_policies() {
    check(
        "service vs run_online conservativity",
        &Config::with_cases(48),
        gen_case,
        |case| {
            let Some((machines, instance)) = build_case(case) else {
                return Ok(());
            };
            for name in EVENT_DRIVEN {
                let mut policy = online_policy_by_name(name, &instance, machines)
                    .expect("registry resolves comparison names");
                let online = run_online(&instance, machines, policy.as_mut())
                    .map_err(|e| format!("{name} run_online: {e}"))?;
                let report = run_service(name, &instance, machines)?;
                prop_assert_eq!(&report.schedule, &online, "{name} diverged from run_online");
            }
            Ok(())
        },
    );
}

/// Same inputs, two service runs: byte-identical schedules and summaries.
#[test]
fn service_replay_is_bit_for_bit() {
    check(
        "service replay determinism",
        &Config::with_cases(32),
        gen_case,
        |case| {
            let Some((machines, instance)) = build_case(case) else {
                return Ok(());
            };
            for name in ["mris", "tetris"] {
                let first = run_service(name, &instance, machines)?;
                let second = run_service(name, &instance, machines)?;
                prop_assert_eq!(&first.schedule, &second.schedule, "{name} schedule");
                prop_assert_eq!(&first.log, &second.log, "{name} log");
                prop_assert_eq!(
                    first.summary.awct.to_bits(),
                    second.summary.awct.to_bits(),
                    "{name} AWCT bits"
                );
            }
            Ok(())
        },
    );
}

/// Every registered online policy family: MRIS with each knapsack solver,
/// both PQ heuristics of the comparison set, and the other baselines.
const ONLINE_POLICIES: [&str; 9] = [
    "mris",
    "mris-greedy",
    "mris-greedy-half",
    "mris-exact",
    "pq-wsjf",
    "pq-wsvf",
    "tetris",
    "bf-exec",
    "ca-pq",
];

/// `(machines, resources, rows, edges, faults)`: `edges` are `(pred,
/// succ)` index pairs (forward only, so acyclic), `faults` are `(at,
/// downtime, target)` with `target == machines` meaning the busiest
/// machine.
type FaultCase = (
    usize,
    usize,
    Vec<Row>,
    Vec<(usize, usize)>,
    Vec<(f64, f64, usize)>,
);

fn gen_fault_case(rng: &mut Rng) -> FaultCase {
    let (machines, r, rows) = gen_case(rng);
    let n = rows.len();
    let mut edges = Vec::new();
    if rng.gen_range(0.0..1.0) < 0.5 {
        for pred in 0..n {
            for succ in (pred + 1)..n {
                if rng.gen_range(0.0..1.0) < 0.2 {
                    edges.push((pred, succ));
                }
            }
        }
    }
    let faults = (0..rng.gen_range(1..=4usize))
        .map(|_| {
            (
                rng.gen_range(0.0..20.0),
                rng.gen_range(0.5..5.0),
                rng.gen_range(0..=machines),
            )
        })
        .collect();
    (machines, r, rows, edges, faults)
}

fn build_fault_case(case: &FaultCase) -> Option<(usize, Instance, FaultPlan)> {
    let (machines, r, rows, edges, faults) = case;
    let (machines, base) = build_case(&(*machines, *r, rows.clone()))?;
    let mut b = InstanceBuilder::new(*r);
    for j in base.jobs() {
        b.push(j.clone());
    }
    for &(pred, succ) in edges {
        if pred < succ && succ < base.len() {
            b.edge(JobId(pred as u32), JobId(succ as u32));
        }
    }
    let instance = b.build().ok()?;
    let plan = FaultPlan::from_events(
        faults
            .iter()
            .map(|&(at, downtime, target)| FaultEvent {
                at,
                downtime,
                target: if target >= machines {
                    FaultTarget::Busiest
                } else {
                    FaultTarget::Machine(target)
                },
            })
            .collect(),
    );
    Some((machines, instance, plan))
}

/// A permissive service replaying a fault plan is the chaos driver: same
/// schedule, same fault log, same AWCT bits, for every registered online
/// policy, on edge-free and DAG instances, under both restart semantics.
#[test]
fn faulted_service_matches_chaos_driver() {
    check(
        "faulted service vs chaos driver",
        &Config::with_cases(48),
        gen_fault_case,
        |case| {
            let Some((machines, instance, plan)) = build_fault_case(case) else {
                return Ok(());
            };
            for restart in [
                RestartSemantics::FullRestart,
                RestartSemantics::WeightAging { factor: 1.5 },
            ] {
                for name in ONLINE_POLICIES {
                    if name == "ca-pq" && instance.has_precedence() {
                        continue;
                    }
                    let mut policy = online_policy_by_name(name, &instance, machines)
                        .expect("registry resolves online names");
                    let driver = run_driver(
                        &instance,
                        machines,
                        policy.as_mut(),
                        RunOptions::new().with_faults(&plan).with_restart(restart),
                    )
                    .map_err(|e| format!("{name} driver: {e}"))?;
                    let mut cfg = ServiceConfig::new(machines);
                    cfg.fault_plan = plan.clone();
                    cfg.restart = restart;
                    let report = run_service_with(name, &instance, machines, cfg)?;
                    prop_assert_eq!(
                        &report.schedule,
                        &driver.schedule,
                        "{name} {restart:?} schedule diverged from the chaos driver"
                    );
                    prop_assert_eq!(
                        &report.log,
                        &driver.log,
                        "{name} {restart:?} fault log diverged from the chaos driver"
                    );
                    prop_assert_eq!(
                        report.schedule.awct(&instance).to_bits(),
                        driver.schedule.awct(&instance).to_bits(),
                        "{name} {restart:?} AWCT bits diverged"
                    );
                }
            }
            Ok(())
        },
    );
}
