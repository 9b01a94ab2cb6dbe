//! Differential tests of the first-fit queue behind PQ, CA-PQ and BF-EXEC.
//!
//! Each shipped policy is run against a reference that walks its whole
//! pending `BTreeSet` at every dispatch: [`NaivePqPolicy`] for PQ, and plain
//! set walks local to this file for CA-PQ and BF-EXEC. Instances hold
//! hundreds to ~1,500 jobs, so pending queues grow long enough to span many
//! blocks and force splits and merges; keys are drawn from small discrete
//! sets so `(key, id)` ties are common. The chaos variant replays fault
//! plans, which re-releases killed jobs, lists recovered machines as freed,
//! and (under weight aging) changes a re-released job's key.

use std::collections::BTreeSet;

use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, Rng};
use mris_schedulers::{BfExecPolicy, CaPqPolicy, NaivePqPolicy, PqPolicy, SortHeuristic};
use mris_sim::{
    run_driver, suggested_horizon, ChaosOutcome, Dispatcher, FaultPlan, OnlinePolicy, OrdTime,
    PoissonFaultConfig, RunOptions,
};
use mris_types::{fraction, Amount, Instance, Job, JobId, RestartSemantics, SchedulingError, Time};

/// One generated job: release slot, processing time, weight, and demand
/// percentages (one per resource).
type JobSpec = (u32, u32, u32, Vec<u32>);

/// A generated case: machines, resources, fault-plan seed, jobs.
type Case = (usize, usize, u64, Vec<JobSpec>);

fn gen_case(rng: &mut Rng, min_jobs: usize, max_jobs: usize) -> Case {
    let machines = rng.gen_range(1..9usize);
    let resources = rng.gen_range(1..5usize);
    let n = rng.gen_range(min_jobs..max_jobs + 1);
    // Few release slots per job keeps the cluster overloaded, so the queue
    // grows long; small value sets make equal keys common.
    let slots = (n / (2 * machines)).max(1) as u64;
    let jobs = (0..n)
        .map(|_| {
            let release = rng.next_u64_below(slots) as u32;
            let proc = [1, 2, 3, 4, 8][rng.next_u64_below(5) as usize];
            let weight = 1 + rng.next_u64_below(3) as u32;
            let demands = (0..resources)
                .map(|_| [5, 10, 20, 25, 40, 50, 60, 75, 100][rng.next_u64_below(9) as usize])
                .collect();
            (release, proc, weight, demands)
        })
        .collect();
    (machines, resources, rng.next_u64(), jobs)
}

fn instance(case: &Case) -> Instance {
    let (_, resources, _, specs) = case;
    let jobs = specs
        .iter()
        .map(|(release, proc, weight, demands)| {
            let d: Vec<f64> = demands.iter().map(|&p| p as f64 / 100.0).collect();
            Job::from_fractions(
                JobId(0),
                *release as f64 * 0.5,
                *proc as f64,
                *weight as f64,
                &d,
            )
        })
        .collect();
    Instance::from_unnumbered(jobs, *resources).unwrap()
}

/// CA-PQ reference: every dispatch after the gate walks the whole pending
/// set; the first walks every machine, later ones only the freed machines.
struct RefCaPq {
    heuristic: SortHeuristic,
    gate: Time,
    started: bool,
    pending: BTreeSet<(OrdTime, JobId)>,
}

impl OnlinePolicy for RefCaPq {
    fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], instance: &Instance) {
        for &j in arrived {
            self.pending
                .insert((OrdTime(self.heuristic.key(instance.job(j))), j));
        }
    }

    fn dispatch(&mut self, d: &mut Dispatcher<'_>, freed: &[usize]) -> Result<(), SchedulingError> {
        if d.now() < self.gate {
            return Ok(());
        }
        let instance = d.instance();
        let mut placed = Vec::new();
        for &(key, j) in &self.pending {
            let demands = &instance.job(j).demands;
            let machine = if self.started {
                freed
                    .iter()
                    .copied()
                    .find(|&m| d.cluster().fits(m, demands))
            } else {
                d.cluster().first_fit(demands)
            };
            if let Some(m) = machine {
                d.place(m, j)?;
                placed.push((key, j));
            }
        }
        self.started = true;
        for entry in placed {
            self.pending.remove(&entry);
        }
        Ok(())
    }
}

/// BF-EXEC reference: for each freed machine, repeatedly rescan the whole
/// SJF queue from the front for the first job that fits; then best-fit
/// each fresh arrival or queue it.
#[derive(Default)]
struct RefBfExec {
    pending: BTreeSet<(OrdTime, JobId)>,
    fresh: Vec<JobId>,
}

fn residual_norm2(avail: &[Amount], demands: &[Amount]) -> f64 {
    avail
        .iter()
        .zip(demands)
        .map(|(&a, &d)| {
            let rem = fraction(a) - fraction(d);
            rem * rem
        })
        .sum()
}

impl OnlinePolicy for RefBfExec {
    fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], _instance: &Instance) {
        self.fresh.extend_from_slice(arrived);
    }

    fn dispatch(&mut self, d: &mut Dispatcher<'_>, freed: &[usize]) -> Result<(), SchedulingError> {
        let instance = d.instance();
        for &m in freed {
            while let Some(entry) = self
                .pending
                .iter()
                .find(|&&(_, j)| d.cluster().fits(m, &instance.job(j).demands))
                .copied()
            {
                d.place(m, entry.1)?;
                self.pending.remove(&entry);
            }
        }
        for j in std::mem::take(&mut self.fresh) {
            let job = instance.job(j);
            let best = (0..d.cluster().num_machines())
                .filter(|&m| d.cluster().fits(m, &job.demands))
                .min_by(|&a, &b| {
                    let na = residual_norm2(d.cluster().avail(a), &job.demands);
                    let nb = residual_norm2(d.cluster().avail(b), &job.demands);
                    na.total_cmp(&nb).then(a.cmp(&b))
                });
            match best {
                Some(m) => d.place(m, j)?,
                None => {
                    self.pending.insert((OrdTime(job.proc_time), j));
                }
            }
        }
        Ok(())
    }
}

type Outcome = Result<ChaosOutcome, SchedulingError>;

/// Equal outcomes, and equal AWCT bits for completed runs.
fn same(label: &str, fast: &Outcome, slow: &Outcome, instance: &Instance) -> Result<(), String> {
    prop_assert!(fast == slow, "{label}: schedules differ");
    if let (Ok(f), Ok(s)) = (fast, slow) {
        f.schedule
            .validate(instance)
            .map_err(|e| format!("{label}: {e}"))?;
        let (a, b) = (f.schedule.awct(instance), s.schedule.awct(instance));
        prop_assert!(a.to_bits() == b.to_bits(), "{label}: AWCT {a} vs {b}");
    }
    Ok(())
}

/// Runs every shipped policy and its reference under `options` and
/// compares them.
fn compare_all(
    instance: &Instance,
    machines: usize,
    options: RunOptions<'_>,
) -> Result<(), String> {
    let run = |p: &mut dyn OnlinePolicy| run_driver(instance, machines, p, options);
    for h in SortHeuristic::ALL_EXTENDED {
        let fast = run(&mut PqPolicy::new(h));
        let slow = run(&mut NaivePqPolicy::new(h));
        same(&format!("PQ-{h}"), &fast, &slow, instance)?;
    }
    let gate = instance.stats().max_release;
    let fast = run(&mut CaPqPolicy::new(SortHeuristic::Wsjf, gate));
    let slow = run(&mut RefCaPq {
        heuristic: SortHeuristic::Wsjf,
        gate,
        started: false,
        pending: BTreeSet::new(),
    });
    same("CA-PQ", &fast, &slow, instance)?;
    let fast = run(&mut BfExecPolicy::new());
    let slow = run(&mut RefBfExec::default());
    same("BF-EXEC", &fast, &slow, instance)
}

#[test]
fn first_fit_queue_matches_full_rescan_references() {
    check(
        "PQ, CA-PQ and BF-EXEC equal their full-rescan references",
        &Config::with_cases(6),
        |rng| gen_case(rng, 200, 1500),
        |case| {
            let instance = instance(case);
            compare_all(&instance, case.0, RunOptions::new())
        },
    );
}

#[test]
fn first_fit_queue_matches_references_under_faults() {
    check(
        "PQ, CA-PQ and BF-EXEC equal their references under a fault plan",
        &Config::with_cases(4),
        |rng| gen_case(rng, 200, 800),
        |case| {
            let instance = instance(case);
            let machines = case.0;
            let horizon = suggested_horizon(&instance, machines);
            let plan = FaultPlan::poisson(&PoissonFaultConfig {
                seed: case.2,
                num_machines: machines,
                horizon,
                mtbf: horizon / 4.0,
                mttr: 3.0,
            });
            for restart in [
                RestartSemantics::FullRestart,
                RestartSemantics::WeightAging { factor: 2.0 },
            ] {
                let options = RunOptions::new().with_faults(&plan).with_restart(restart);
                compare_all(&instance, machines, options)
                    .map_err(|e| format!("{}: {e}", restart.label()))?;
            }
            Ok(())
        },
    );
}
