//! The one event engine behind the batch driver and the service.
//!
//! The paper's online model is a single event sequence: jobs are released,
//! running jobs complete, and the scheduler starts jobs non-preemptively.
//! [`Engine::step`] is that sequence, written once. Both callers —
//! [`run_driver_observed`](crate::run_driver_observed) and the
//! `mris-service` event loop — own an engine and differ only in where
//! released jobs come from and what they record per job, which they supply
//! through [`EngineHooks`] (statically dispatched).

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mris_types::{
    ClusterSpec, FaultEvent, Instance, JobId, RestartSemantics, Schedule, SchedulingError, Time,
};

use crate::fault::{resolve_fault_target, CompletionRecord, FailureRecord, FaultLog};
use crate::precedence::PrecedenceGate;
use crate::{ClusterState, Dispatcher, OnlinePolicy, OrdTime};

/// A pending fault-queue entry. Variant order matters: `Recover < Fail`,
/// so at a shared instant recoveries fire before failures. Within a kind,
/// the payload (machine index / plan index) breaks ties deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The machine with this index comes back up.
    Recover(usize),
    /// The fault-plan event with this index strikes.
    Fail(usize),
}

/// What differs between the engine's callers. Every method but
/// [`deliver`](EngineHooks::deliver) defaults to a no-op.
pub trait EngineHooks {
    /// Appends the jobs due for delivery at `now` to `out`, in
    /// [`OnlinePolicy::on_arrivals`] order. A released job whose
    /// predecessors are still outstanding must be withheld with
    /// [`PrecedenceGate::hold`] instead.
    fn deliver(
        &mut self,
        now: Time,
        gate: &mut PrecedenceGate,
        instance: &Instance,
        out: &mut Vec<JobId>,
    );

    /// Held jobs whose gates this event's completions opened (ascending id
    /// per completion); called once per event, after every completion.
    fn gate_opened(&mut self, _now: Time, _opened: &[JobId]) {}

    /// `job` completed on `machine`.
    fn completed(&mut self, _job: JobId, _machine: usize) {}

    /// `machine` came back up at `now`.
    fn recovered(&mut self, _now: Time, _machine: usize) {}

    /// `machine` failed at `now` until `recover_at`; its killed jobs follow
    /// through [`EngineHooks::re_released`].
    fn failed(&mut self, _now: Time, _machine: usize, _recover_at: Time) {}

    /// `job` was killed by a failure and will be re-released this event.
    fn re_released(&mut self, _job: JobId) {}

    /// `job` started on `machine` at `start`, in placement order.
    fn placed(&mut self, _job: JobId, _machine: u32, _start: Time) {}
}

/// Per-event counts returned by [`Engine::step`].
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// Jobs that completed.
    pub completions: usize,
    /// Jobs delivered through [`EngineHooks::deliver`].
    pub arrivals: usize,
    /// Fault-killed jobs re-released.
    pub re_releases: usize,
    /// Jobs the dispatch started.
    pub placements: usize,
}

/// The cluster, schedule, fault log, precedence gate and fault queue of one
/// run, advanced one event at a time by [`Engine::step`].
pub struct Engine<'a> {
    /// Weight aging rewrites weights in a working copy made on first kill.
    instance: Cow<'a, Instance>,
    faults: Cow<'a, [FaultEvent]>,
    restart: RestartSemantics,
    cluster: ClusterState,
    schedule: Schedule,
    log: FaultLog,
    gate: PrecedenceGate,
    fault_q: BinaryHeap<Reverse<(OrdTime, FaultKind)>>,
    re_released: Vec<JobId>,
    last_event: Time,
    // Scratch buffers reused across events.
    freed: Vec<usize>,
    completed: Vec<(JobId, usize)>,
    opened: Vec<JobId>,
    delivered: Vec<JobId>,
    placed: Vec<(JobId, u32)>,
}

impl<'a> Engine<'a> {
    /// An idle engine over `instance` on `spec`'s machines, replaying
    /// `faults` with `restart` semantics for killed jobs.
    pub fn new(
        instance: Cow<'a, Instance>,
        spec: &ClusterSpec,
        faults: Cow<'a, [FaultEvent]>,
        restart: RestartSemantics,
    ) -> Self {
        let n = instance.len();
        Engine {
            cluster: ClusterState::with_spec(spec, instance.num_resources()),
            schedule: Schedule::new(n, spec.len()),
            log: FaultLog::new(n),
            gate: PrecedenceGate::new(&instance),
            fault_q: faults
                .iter()
                .enumerate()
                .map(|(i, e)| Reverse((OrdTime(e.at), FaultKind::Fail(i))))
                .collect(),
            re_released: Vec::new(),
            last_event: f64::NEG_INFINITY,
            freed: Vec::new(),
            completed: Vec::new(),
            opened: Vec::new(),
            delivered: Vec::new(),
            placed: Vec::new(),
            instance,
            faults,
            restart,
        }
    }

    /// The earliest of `delivery` (the caller's next release), the next
    /// completion, the next fault event, and the policy's
    /// [`next_wakeup`](OnlinePolicy::next_wakeup) after the last event;
    /// `None` when nothing is pending.
    pub fn next_event_time<P: OnlinePolicy + ?Sized>(
        &self,
        delivery: Option<Time>,
        policy: &P,
    ) -> Option<Time> {
        let completion = self.cluster.next_completion();
        let fault = self.fault_q.peek().map(|&Reverse((t, _))| t.0);
        let wake = policy.next_wakeup().filter(|&t| t > self.last_event);
        [delivery, completion, fault, wake]
            .into_iter()
            .flatten()
            .reduce(f64::min)
            .filter(|t| t.is_finite())
    }

    /// Processes one event at `now`: everything due at or before it.
    ///
    /// # Event ordering at one instant
    ///
    /// In order: completions (a job finishing exactly at `now` survives a
    /// failure at `now`), then recoveries, then failures (a machine
    /// recovering at `now` can be re-failed by a strike at `now`), then
    /// deliveries of released jobs, then this instant's re-releases, then
    /// one dispatch (timed by the `mris_policy_dispatch_seconds` span), then
    /// the debug invariant audit. A failure targeting a
    /// machine that is down (or out of range) at fire time is absorbed
    /// without effect.
    ///
    /// Per-job hooks fire in that order too, so a caller that journals them
    /// writes, within one event: completions, gate openings, then each
    /// fault (a recovery, or a failure followed by its re-releases), then
    /// placements.
    ///
    /// # Errors
    ///
    /// Placement-rule violations from the policy's dispatch, and
    /// [`SchedulingError::UnassignedCompletion`] if a completing job has no
    /// assignment.
    pub fn step<P: OnlinePolicy + ?Sized, H: EngineHooks>(
        &mut self,
        now: Time,
        policy: &mut P,
        hooks: &mut H,
    ) -> Result<StepStats, SchedulingError> {
        self.last_event = now;

        // 1. Completions due at `now` — before faults, so a job finishing
        //    exactly at the strike instant survives.
        self.freed.clear();
        self.completed.clear();
        self.cluster
            .complete_due_recorded(now, &self.instance, &mut self.completed);
        let first_new_completion = self.log.completions.len();
        for &(job, machine) in &self.completed {
            // Completions are ordered before the fault events that unassign
            // jobs at the same tick, so a missing assignment means that
            // ordering regressed; surface it instead of aborting the run.
            let Some(a) = self.schedule.get(job) else {
                return Err(SchedulingError::UnassignedCompletion { job, machine });
            };
            self.log.completions.push(CompletionRecord {
                job,
                machine,
                start: a.start,
                // Effective time: exact `p / 1.0 == p` on uniform clusters.
                end: a.start
                    + self
                        .cluster
                        .effective_time(machine, self.instance.job(job).proc_time),
            });
            self.gate.complete(job, &self.instance, &mut self.opened);
            self.freed.push(machine);
            hooks.completed(job, machine);
        }
        if !self.opened.is_empty() {
            hooks.gate_opened(now, &self.opened);
            self.opened.clear();
        }

        // 2. Fault events due at `now` (recoveries before failures).
        while let Some(&Reverse((t, kind))) = self.fault_q.peek() {
            if t.0 > now {
                break;
            }
            self.fault_q.pop();
            match kind {
                FaultKind::Recover(machine) => {
                    self.cluster.recover_machine(machine);
                    // Listed as freed so incremental policies re-examine it.
                    self.freed.push(machine);
                    self.log.recoveries.push((now, machine));
                    mris_obs::counter_add("mris_chaos_recoveries_total", 1);
                    policy.on_machine_recovered(now, machine, &self.instance);
                    hooks.recovered(now, machine);
                }
                FaultKind::Fail(idx) => {
                    let event = self.faults[idx];
                    let Some(machine) = resolve_fault_target(event.target, &self.cluster) else {
                        mris_obs::counter_add("mris_chaos_absorbed_strikes_total", 1);
                        continue;
                    };
                    let killed = self.cluster.fail_machine(machine);
                    let recover_at = now + event.downtime;
                    for &job in &killed {
                        self.schedule.unassign(job);
                        self.log.re_releases[job.index()] += 1;
                        if let RestartSemantics::WeightAging { factor } = self.restart {
                            self.instance.to_mut().scale_weight(job, factor);
                        }
                        // Re-arm gates downstream of the killed job. Only
                        // running jobs can be killed and completions are
                        // processed first at a shared instant, so a killed
                        // job was never marked complete and this is a no-op
                        // today; it keeps the gate sound if the ordering
                        // ever changes. Started successors are never
                        // recalled (non-preemptive).
                        for s in self.gate.revoke(job, &self.instance) {
                            if self.schedule.get(s).is_none() {
                                self.gate.hold(s);
                            }
                        }
                        self.re_released.push(job);
                    }
                    self.fault_q
                        .push(Reverse((OrdTime(recover_at), FaultKind::Recover(machine))));
                    mris_obs::counter_add("mris_chaos_failures_total", 1);
                    mris_obs::counter_add("mris_chaos_re_releases_total", killed.len() as u64);
                    policy.on_machine_failed(now, machine, recover_at, &killed, &self.instance);
                    hooks.failed(now, machine, recover_at);
                    for &job in &killed {
                        hooks.re_released(job);
                    }
                    self.log.failures.push(FailureRecord {
                        at: now,
                        machine,
                        recover_at,
                        killed,
                    });
                }
            }
        }

        // 3. Deliveries, then this instant's re-releases.
        self.freed.sort_unstable();
        self.freed.dedup();
        self.delivered.clear();
        hooks.deliver(now, &mut self.gate, &self.instance, &mut self.delivered);
        if !self.delivered.is_empty() {
            policy.on_arrivals(now, &self.delivered, &self.instance);
        }
        let re_releases = self.re_released.len();
        if re_releases > 0 {
            self.re_released.sort_unstable();
            policy.on_arrivals(now, &self.re_released, &self.instance);
            self.re_released.clear();
        }

        // 4. One dispatch per event.
        self.placed.clear();
        {
            let mut dispatcher =
                Dispatcher::new(&mut self.cluster, &mut self.schedule, &self.instance, now);
            dispatcher.record_placements(&mut self.placed);
            if self.gate.is_active() {
                dispatcher.set_gate(&self.gate);
            }
            // Every policy's dispatch cost, in batch and service runs alike.
            let _span = mris_obs::span!("mris_policy_dispatch_seconds");
            policy.dispatch(&mut dispatcher, &self.freed)?;
        }
        for &(job, machine) in &self.placed {
            hooks.placed(job, machine, now);
        }

        // 5. Invariant audit, in debug builds.
        if cfg!(debug_assertions) {
            self.debug_audit(first_new_completion);
        }

        Ok(StepStats {
            completions: self.completed.len(),
            arrivals: self.delivered.len(),
            re_releases,
            placements: self.placed.len(),
        })
    }

    /// Completions recorded this event must not overlap any downtime so far
    /// (future failures cannot overlap them: a failure at `t >= now` starts
    /// at or after every end recorded by `now`), and no job may be running
    /// on a down machine.
    fn debug_audit(&self, first_new_completion: usize) {
        for rec in &self.log.completions[first_new_completion..] {
            for fail in &self.log.failures {
                assert!(
                    !(rec.machine == fail.machine
                        && rec.start < fail.recover_at
                        && fail.at < rec.end),
                    "chaos invariant violated: {} ran [{}, {}) across downtime [{}, {}) on machine {}",
                    rec.job,
                    rec.start,
                    rec.end,
                    fail.at,
                    fail.recover_at,
                    rec.machine
                );
            }
        }
        for (_, m, job) in self.cluster.running_jobs() {
            assert!(
                self.cluster.is_up(m),
                "chaos invariant violated: {job} is running on down machine {m}"
            );
        }
    }

    /// The instance as the run sees it (weights aged by kills, if any).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The instantaneous cluster state.
    pub fn cluster(&self) -> &ClusterState {
        &self.cluster
    }

    /// Placements of every started, not-killed job.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The failure/recovery/re-release/completion audit trail so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// The precedence gate (inert for edge-free instances).
    pub fn gate(&self) -> &PrecedenceGate {
        &self.gate
    }

    /// The time of the last processed event (`-inf` before the first).
    pub fn last_event(&self) -> Time {
        self.last_event
    }

    /// Pending fault-queue entries, in unspecified order.
    pub fn pending_faults(&self) -> impl Iterator<Item = (Time, FaultKind)> + '_ {
        self.fault_q.iter().map(|&Reverse((t, kind))| (t.0, kind))
    }

    /// Ends the run: the schedule and the fault log (verified in debug
    /// builds).
    pub fn finish(self) -> (Schedule, FaultLog) {
        #[cfg(debug_assertions)]
        self.log
            .verify()
            .expect("chaos invariant violated at end of run");
        (self.schedule, self.log)
    }
}
