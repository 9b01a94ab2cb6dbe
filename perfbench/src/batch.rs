//! `batch-heavy` and `batch-wide`: trace CSV text → `parse_instance_csv` →
//! `try_schedule` → `validate`, for MRIS (CADP) and PQ-WSJF on every
//! instance the seed draws.

use std::sync::Arc;
use std::time::Instant;

use mris_core::{algorithm_by_name, online_policy_by_name, Mris};
use mris_metrics::awct_lower_bound;
use mris_schedulers::Scheduler;
use mris_sim::run_online_observed;
use mris_trace::parse_instance_csv;
use mris_types::{Instance, Schedule};

use crate::policy::{DispatchCount, Timed};
use crate::span::{self, durations, total};
use crate::stats::{max, median, quantile, ratio};
use crate::traced::{finish, mris_carves, program_metrics, traced_pass};
use crate::{inputs, Outcome, Run};

/// Shape of one batch workload.
pub struct BatchSpec {
    /// Downsampling factor of the base trace: instances have about
    /// `inputs::BASE_JOBS / factor` jobs.
    pub factor: usize,
    /// Instances per run, at distinct seed-drawn offsets.
    pub instances: usize,
    pub machines: usize,
}

/// The paper's heavy regime: ~16,000 jobs on 5 machines (~3,200 per
/// machine), where CADP `solve` dominates MRIS and PQ walks a long queue.
pub const HEAVY: BatchSpec = BatchSpec {
    factor: 16,
    instances: 8,
    machines: 5,
};

/// ~32,000 jobs on 512 machines (`PARALLEL_SCAN_THRESHOLD`), where the
/// sharded timeline scan dominates MRIS and PQ is cheap.
pub const WIDE: BatchSpec = BatchSpec {
    factor: 8,
    instances: 4,
    machines: 512,
};

const POLICIES: [&str; 2] = ["mris", "pq-wsjf"];

fn setup(spec: &BatchSpec, seed: u64) -> (Vec<String>, f64) {
    let mut times = Vec::with_capacity(inputs::SETUPS);
    let mut csvs = Vec::new();
    for _ in 0..inputs::SETUPS {
        let started = Instant::now();
        let base = inputs::base_trace();
        csvs = inputs::batch_csvs(&base, spec.factor, spec.instances, seed);
        times.push(started.elapsed().as_secs_f64());
    }
    (csvs, median(&times))
}

/// The product path: CSV text → validated schedule.
fn schedule_csv(
    csv: &str,
    algo: &dyn Scheduler,
    machines: usize,
) -> Result<(Schedule, Instance), String> {
    let instance = parse_instance_csv(csv).map_err(|e| format!("parse: {e}"))?;
    let schedule = algo
        .try_schedule(&instance, machines)
        .map_err(|e| format!("{}: {e}", algo.name()))?;
    schedule
        .validate(&instance)
        .map_err(|e| format!("{}: invalid schedule: {e}", algo.name()))?;
    Ok((schedule, instance))
}

fn algorithms() -> Vec<Box<dyn Scheduler>> {
    POLICIES
        .iter()
        .map(|name| algorithm_by_name(name).expect("registered algorithm"))
        .collect()
}

pub fn run(spec: &BatchSpec, run: &Run, out: &mut Outcome) {
    let (csvs, setup_s) = setup(spec, run.seed);
    if run.trace {
        return traced(spec, run, out, &csvs);
    }
    out.set("setup_s", setup_s);
    let algos = algorithms();
    let k = csvs.len();
    let mut times = vec![[Vec::new(), Vec::new()]; k];
    let mut awct: Vec<[Option<f64>; 2]> = vec![[None; 2]; k];
    let mut lower_bound = vec![0.0; k];
    let mut jobs = vec![0usize; k];
    let started = Instant::now();
    // Whole passes over every (instance, policy) while another one fits.
    loop {
        let pass_started = Instant::now();
        for (i, csv) in csvs.iter().enumerate() {
            for (p, algo) in algos.iter().enumerate() {
                let t0 = Instant::now();
                let result = schedule_csv(csv, algo.as_ref(), spec.machines);
                let secs = t0.elapsed().as_secs_f64();
                out.op(result.and_then(|(schedule, instance)| {
                    let a = schedule.awct(&instance);
                    jobs[i] = instance.len();
                    lower_bound[i] = awct_lower_bound(&instance, spec.machines);
                    times[i][p].push(secs);
                    match awct[i][p].replace(a) {
                        Some(prev) if prev.to_bits() != a.to_bits() => Err(format!(
                            "instance {i} {}: AWCT {a} differs from an earlier pass ({prev})",
                            POLICIES[p]
                        )),
                        _ => Ok(()),
                    }
                }));
            }
        }
        if !run.another_pass(started, pass_started) {
            break;
        }
    }
    // Medians over instances: a few seconds of host contention slow some
    // instances, not the middle one.
    let per_instance: Vec<f64> = times
        .iter()
        .map(|t| median(&t[0]) + median(&t[1]))
        .collect();
    let rates: Vec<f64> = per_instance
        .iter()
        .zip(&jobs)
        .map(|(secs, &n)| ratio(2.0 * n as f64, *secs))
        .collect();
    out.set("jobs_per_s", median(&rates));
    out.set("latency_ms", median(&per_instance) * 1e3);
    let ratios: Vec<f64> = awct
        .iter()
        .zip(&lower_bound)
        .flat_map(|(a, lb)| a.iter().flatten().map(move |a| a / lb))
        .collect();
    out.set(
        "awct_over_lb",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    );
}

/// AWCT per instance and policy, plus what only the traced pass records.
#[derive(Default)]
struct Pass {
    awct: Vec<[u64; 2]>,
    mris_awct: f64,
    pq_awct: f64,
    iterations: usize,
    eligible: usize,
    events: usize,
    bytes: usize,
}

/// Untraced: the product path. Traced: the same calls, split into spans —
/// MRIS through `schedule_with_log`, PQ-WSJF through `run_online` with the
/// timing wrapper.
fn pass(
    spec: &BatchSpec,
    csvs: &[String],
    traced: bool,
    count: &Arc<DispatchCount>,
    failures: &mut Vec<String>,
) -> Pass {
    let mut result = Pass::default();
    if !traced {
        let algos = algorithms();
        for csv in csvs {
            let mut bits = [0u64; 2];
            for (p, algo) in algos.iter().enumerate() {
                match schedule_csv(csv, algo.as_ref(), spec.machines) {
                    Ok((schedule, instance)) => bits[p] = schedule.awct(&instance).to_bits(),
                    Err(e) => failures.push(e),
                }
            }
            result.awct.push(bits);
        }
        return result;
    }
    let m = spec.machines;
    for csv in csvs {
        let mut bits = [0u64; 2];
        let parse = || {
            span::span(span::TRACE, "parse_instance_csv", || {
                parse_instance_csv(csv)
            })
            .expect("the CSV parsed in the untraced pass")
        };
        let instance = parse();
        let (schedule, log) = span::span(span::CORE, "Mris::schedule_with_log", || {
            Mris::default().schedule_with_log(&instance, m)
        });
        let validated = span::span(span::TYPES, "Schedule::validate", || {
            schedule.validate(&instance)
        });
        if let Err(e) = validated {
            failures.push(format!("traced MRIS: invalid schedule: {e}"));
        }
        bits[0] = schedule.awct(&instance).to_bits();
        result.mris_awct += schedule.awct(&instance);
        result.iterations += log.len();
        result.eligible += log.iter().map(|it| it.eligible).sum::<usize>();

        let instance = parse();
        let inner = online_policy_by_name(POLICIES[1], &instance, m).expect("registered policy");
        let mut policy = Timed::new(inner, span::SCHEDULERS, Arc::clone(count));
        let events = &mut result.events;
        let schedule = span::span(span::SIM, "run_online_observed", || {
            run_online_observed(&instance, m, &mut policy, |_| *events += 1)
        });
        match schedule {
            Ok(schedule) => {
                let validated = span::span(span::TYPES, "Schedule::validate", || {
                    schedule.validate(&instance)
                });
                if let Err(e) = validated {
                    failures.push(format!("traced PQ: invalid schedule: {e}"));
                }
                bits[1] = schedule.awct(&instance).to_bits();
                result.pq_awct += schedule.awct(&instance);
            }
            Err(e) => failures.push(format!("traced PQ: {e}")),
        }
        result.bytes += 2 * csv.len();
        result.awct.push(bits);
    }
    result
}

fn traced(spec: &BatchSpec, run: &Run, out: &mut Outcome, csvs: &[String]) {
    let count = Arc::new(DispatchCount::default());
    let mut failures = Vec::new();
    let t = traced_pass(|traced| pass(spec, csvs, traced, &count, &mut failures));
    for failure in failures {
        out.op(Err(failure));
    }
    for (i, (u, tr)) in t.untraced.awct.iter().zip(&t.traced.awct).enumerate() {
        for p in 0..2 {
            out.op(if u[p] == tr[p] {
                Ok(())
            } else {
                Err(format!(
                    "instance {i} {}: traced AWCT {} != untraced {}",
                    POLICIES[p],
                    f64::from_bits(tr[p]),
                    f64::from_bits(u[p])
                ))
            });
        }
    }
    let spans = &t.spans;
    out.set("trace.parse_s", total(spans, span::TRACE, None));
    out.set("trace.bytes", t.traced.bytes as f64);
    out.set("types.validate_s", total(spans, span::TYPES, None));

    let dispatch = durations(spans, span::SCHEDULERS, "dispatch");
    out.set("schedulers.dispatch_s", dispatch.iter().sum());
    out.set("schedulers.dispatch_calls", dispatch.len() as f64);
    out.set("schedulers.useful_dispatch_frac", count.useful_frac());
    out.set(
        "schedulers.dispatch_p999_us",
        quantile(&dispatch, 0.999) * 1e6,
    );
    out.set("schedulers.dispatch_max_us", max(&dispatch) * 1e6);
    out.set("sim.events", t.traced.events as f64);
    out.set(
        "sim.driver_self_s",
        total(spans, span::SIM, None) - total(spans, span::SCHEDULERS, None),
    );

    let mris_s = total(spans, span::CORE, Some("Mris::schedule_with_log"));
    program_metrics(out, &t.obs, mris_s);
    out.set("mris.iterations", t.traced.iterations as f64);
    out.set("mris.eligible_total", t.traced.eligible as f64);
    out.set(
        "quality.mris_over_pq_awct",
        ratio(t.traced.mris_awct, t.traced.pq_awct),
    );
    finish(out, run, &t, &mris_carves(&t.obs, span::CORE));
}
