//! `service-tcp` and `service-durable`: a client's job → verdict, placement
//! and journal record, through the `mris-net` front door or the in-process
//! `Service` with its journal.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use mris_core::online_policy_by_name;
use mris_metrics::awct_lower_bound;
use mris_net::{serve_net, NetClient};
use mris_service::{
    DurabilityConfig, NullSink, RestoreOptions, RestoreReport, Service, ServiceConfig,
    ServiceReport, SimClock,
};
use mris_sim::OnlinePolicy;
use mris_types::Instance;

use crate::durable::{Journal, LatestSnapshot};
use crate::policy::{DispatchCount, Timed};
use crate::span::{self, durations, total, Span};
use crate::stats::{max, median, quantile};
use crate::traced::{finish, mris_carves, program_metrics, traced_pass};
use crate::{inputs, Outcome, Run};

const MACHINES: usize = 8;
const UTILIZATION: f64 = 0.7;
/// Jobs per pass through the TCP front door: about a second per pass, so
/// the median over passes shrugs off a few seconds of host contention.
const TCP_JOBS: usize = 20_000;
/// Jobs per pass through the journaled service.
const DURABLE_JOBS: usize = 20_000;
/// Journal flushed after every event; a snapshot every 64 events (the CLI
/// default).
const DURABILITY: DurabilityConfig = DurabilityConfig {
    flush_every: 1,
    snapshot_every: 64,
};
fn generate(jobs: usize, seed: u64) -> (Instance, f64) {
    let mut times = Vec::with_capacity(inputs::SETUPS);
    let mut instance = None;
    for _ in 0..inputs::SETUPS {
        let started = Instant::now();
        let base = inputs::base_trace();
        instance = Some(inputs::service_instance(
            &base,
            jobs,
            MACHINES,
            UTILIZATION,
            seed,
        ));
        times.push(started.elapsed().as_secs_f64());
    }
    (instance.expect("at least one set-up"), median(&times))
}

/// The registry's policy, behind the timing wrapper when traced.
fn policy(
    name: &str,
    instance: &Instance,
    layer: &'static str,
    count: Option<&Arc<DispatchCount>>,
) -> Box<dyn OnlinePolicy> {
    let inner = online_policy_by_name(name, instance, MACHINES).expect("registered policy");
    match count {
        Some(count) => Box::new(Timed::new(inner, layer, Arc::clone(count))),
        None => inner,
    }
}

fn new_service(instance: &Instance, policy: Box<dyn OnlinePolicy>) -> Service<SimClock, NullSink> {
    Service::new(
        instance.clone(),
        policy,
        ServiceConfig::new(MACHINES),
        SimClock::new(),
        NullSink,
    )
    .expect("valid service config")
}

fn awct_over_lb(instance: &Instance, report: &ServiceReport) -> f64 {
    report.summary.awct / awct_lower_bound(instance, MACHINES)
}

/// Per-job and whole-run checks on a drained service.
fn check_report(
    what: &str,
    instance: &Instance,
    report: &ServiceReport,
    reference: Option<&ServiceReport>,
) -> Result<(), String> {
    if report.summary.completed != instance.len() {
        return Err(format!(
            "{what}: {} of {} jobs completed",
            report.summary.completed,
            instance.len()
        ));
    }
    report
        .schedule
        .validate(instance)
        .map_err(|e| format!("{what}: invalid schedule: {e}"))?;
    if let Some(reference) = reference {
        if report.schedule != reference.schedule
            || report.summary.awct.to_bits() != reference.summary.awct.to_bits()
        {
            return Err(format!(
                "{what}: schedule differs from the reference (AWCT {} vs {})",
                report.summary.awct, reference.summary.awct
            ));
        }
    }
    Ok(())
}

/// Offers every job at its release time, one `submit` after another.
/// Returns per-submit latencies in seconds; rejections and errors are
/// recorded as failures.
fn submit_all<E: std::fmt::Display>(
    instance: &Instance,
    failures: &mut Vec<String>,
    mut submit: impl FnMut(f64, mris_types::JobId) -> Result<Result<(), mris_types::AdmissionError>, E>,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(instance.len());
    for job in instance.jobs() {
        let started = Instant::now();
        let verdict = submit(job.release, job.id);
        latencies.push(started.elapsed().as_secs_f64());
        match verdict {
            Ok(Ok(())) => {}
            Ok(Err(e)) => failures.push(format!("job {}: rejected: {e}", job.id.0)),
            Err(e) => {
                failures.push(format!("job {}: {e}", job.id.0));
                break;
            }
        }
    }
    latencies
}

/// The in-process reference: `Service::submit_at` per job, then drain.
fn in_process(
    instance: &Instance,
    count: Option<&Arc<DispatchCount>>,
    failures: &mut Vec<String>,
) -> Option<ServiceReport> {
    let mut service = new_service(
        instance,
        policy("pq-wsjf", instance, span::SCHEDULERS, count),
    );
    submit_all(instance, failures, |at, job| {
        span::span(span::SERVICE, "Service::submit_at", || {
            service.submit_at(at, job)
        })
    });
    match span::span(span::SERVICE, "Service::drain", || service.drain()) {
        Ok((report, _)) => Some(report),
        Err(e) => {
            failures.push(format!("in-process drain: {e}"));
            None
        }
    }
}

/// One closed-loop pass through the front door.
struct TcpPass {
    setup_s: f64,
    rtts: Vec<f64>,
    wall_s: f64,
    report: ServiceReport,
}

fn tcp_pass(
    instance: &Instance,
    count: Option<&Arc<DispatchCount>>,
    failures: &mut Vec<String>,
) -> Option<TcpPass> {
    let started = Instant::now();
    let count = count.cloned();
    let make_policy = move |inst: &Instance, _machines: usize| {
        policy("pq-wsjf", inst, span::SCHEDULERS, count.as_ref())
    };
    let server = span::span(span::NET, "serve_net", || {
        serve_net(
            instance.clone(),
            ServiceConfig::new(MACHINES),
            SimClock::new(),
            NullSink,
            make_policy,
            "127.0.0.1:0",
        )
    });
    let server = match server {
        Ok(server) => server,
        Err(e) => {
            failures.push(format!("serve_net: {e}"));
            return None;
        }
    };
    let addr = server.addr().to_string();
    let client = span::span(span::NET, "NetClient::connect", || {
        NetClient::connect(&addr, "", 0)
    });
    let mut client = match client {
        Ok(client) => client,
        Err(e) => {
            failures.push(format!("connect: {e}"));
            return None;
        }
    };
    let setup_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let rtts = submit_all(instance, failures, |at, job| {
        span::shared(span::NET, "NetClient::submit_at", || {
            client.submit_at(at, job)
        })
    });
    let drained = span::shared(span::NET, "NetClient::drain", || client.drain());
    let wall_s = started.elapsed().as_secs_f64();
    if let Err(e) = span::span(span::NET, "NetServer::wait", || server.wait()) {
        failures.push(format!("server: {e}"));
    }
    match drained {
        Ok(report) => Some(TcpPass {
            setup_s,
            rtts,
            wall_s,
            report,
        }),
        Err(e) => {
            failures.push(format!("drain over tcp: {e}"));
            None
        }
    }
}

/// One line per pass on standard error, for reading a noisy run.
fn log_pass(rates: &[f64], latencies: &[f64]) {
    eprintln!(
        "pass {}: {:.0} jobs/s, latency p50 {:.2} us, p99 {:.2} us, max {:.0} us",
        rates.len(),
        rates.last().copied().unwrap_or(0.0),
        median(latencies) * 1e6,
        quantile(latencies, 0.99) * 1e6,
        max(latencies) * 1e6
    );
}

pub fn run_tcp(run: &Run, out: &mut Outcome) {
    let (instance, generate_s) = generate(TCP_JOBS, run.seed);
    if run.trace {
        return traced_tcp(run, out, &instance);
    }
    let mut failures = Vec::new();
    let reference = in_process(&instance, None, &mut failures);
    let mut attempted = instance.len() + 1;
    let (mut setups, mut p50s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        attempted += instance.len() + 1;
        if let Some(pass) = tcp_pass(&instance, None, &mut failures) {
            if let Err(e) = check_report("tcp", &instance, &pass.report, reference.as_ref()) {
                failures.push(e);
            }
            setups.push(pass.setup_s);
            p50s.push(median(&pass.rtts));
            rates.push(pass.report.summary.completed as f64 / pass.wall_s);
            log_pass(&rates, &pass.rtts);
        }
        if !run.another_pass(started, pass_started) || !failures.is_empty() {
            break;
        }
    }
    if let Some(reference) = &reference {
        if let Err(e) = check_report("in-process", &instance, reference, None) {
            failures.push(e);
        }
        out.set("awct_over_lb", awct_over_lb(&instance, reference));
    }
    out.set("setup_s", generate_s + median(&setups));
    out.set("jobs_per_s", median(&rates));
    out.set("latency_ms", median(&p50s) * 1e3);
    out.ops(attempted, failures);
}

/// Spans of `layer` whose parent span satisfies `parent`.
fn under<'a>(spans: &'a [Span], layer: &str, parent: impl Fn(&Span) -> bool) -> Vec<&'a Span> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .filter(|s| s.layer == layer && by_id.get(&s.parent).is_some_and(|p| parent(p)))
        .collect()
}

fn set_submit_metrics(out: &mut Outcome, spans: &[Span]) {
    let submits = durations(spans, span::SERVICE, "Service::submit_at");
    out.set("service.submit_s", submits.iter().sum());
    out.set("service.submit_p50_us", median(&submits) * 1e6);
    out.set("service.submit_p99_us", quantile(&submits, 0.99) * 1e6);
    out.set(
        "service.drain_s",
        total(spans, span::SERVICE, Some("Service::drain")),
    );
}

/// Policy time and dispatch tail of the in-process service.
fn set_policy_metrics(out: &mut Outcome, policy_spans: &[&Span]) {
    out.set(
        "service.policy_s",
        policy_spans.iter().map(|s| s.secs()).sum(),
    );
    let dispatch: Vec<f64> = policy_spans
        .iter()
        .filter(|s| s.name == "dispatch")
        .map(|s| s.secs())
        .collect();
    out.set("service.dispatch_p999_us", quantile(&dispatch, 0.999) * 1e6);
    out.set("service.dispatch_max_us", max(&dispatch) * 1e6);
}

fn set_report_metrics(out: &mut Outcome, report: &ServiceReport) {
    out.set("service.events", report.summary.epochs as f64);
    out.set(
        "service.max_queue_depth",
        report.summary.max_queue_depth as f64,
    );
}

fn traced_tcp(run: &Run, out: &mut Outcome, instance: &Instance) {
    let count = Arc::new(DispatchCount::default());
    let mut failures = Vec::new();
    let t = traced_pass(|traced| {
        let count = traced.then_some(&count);
        let reference = in_process(instance, count, &mut failures);
        let tcp = tcp_pass(instance, count, &mut failures);
        (reference, tcp)
    });
    let mut attempted = 0;
    for (what, (reference, tcp)) in [("untraced", &t.untraced), ("traced", &t.traced)] {
        attempted += 2 * instance.len() + 3;
        match (reference, tcp) {
            (Some(reference), Some(tcp)) => {
                let check = check_report(what, instance, reference, None)
                    .and_then(|()| check_report(what, instance, &tcp.report, Some(reference)));
                if let Err(e) = check {
                    failures.push(e);
                }
            }
            _ => failures.push(format!("{what}: a pass did not complete")),
        }
    }
    if let (Some(untraced), Some(traced)) = (&t.untraced.0, &t.traced.0) {
        if let Err(e) = check_report("traced vs untraced", instance, traced, Some(untraced)) {
            failures.push(e);
        }
        set_report_metrics(out, traced);
    }
    out.ops(attempted, failures);

    let spans = &t.spans;
    set_submit_metrics(out, spans);
    let in_process = under(spans, span::SCHEDULERS, |p| p.layer == span::SERVICE);
    set_policy_metrics(out, &in_process);
    out.set(
        "schedulers.dispatch_calls",
        count.calls.load(Ordering::Relaxed) as f64,
    );
    out.set("schedulers.useful_dispatch_frac", count.useful_frac());

    let rtts = durations(spans, span::NET, "NetClient::submit_at");
    let in_process_submits = durations(spans, span::SERVICE, "Service::submit_at");
    out.set("net.rtt_p50_us", median(&rtts) * 1e6);
    out.set("net.rtt_p99_us", quantile(&rtts, 0.99) * 1e6);
    out.set(
        "net.requests",
        (rtts.len() + durations(spans, span::NET, "NetClient::drain").len()) as f64,
    );
    out.set(
        "net.connect_s",
        total(spans, span::NET, Some("NetClient::connect")),
    );
    out.set("net.bytes_tx", t.obs.counter("mris_net_bytes_tx_total"));
    out.set("net.bytes_rx", t.obs.counter("mris_net_bytes_rx_total"));
    out.set(
        "net.overhead_us",
        (median(&rtts) - median(&in_process_submits)) * 1e6,
    );
    let worker = under(spans, span::SCHEDULERS, |p| p.layer == span::NET);
    out.set("net.worker_policy_s", worker.iter().map(|s| s.secs()).sum());
    finish(out, run, &t, &[]);
}

/// One pass through the journaled service, then a restore from its journal.
struct DurablePass {
    setup_s: f64,
    latencies: Vec<f64>,
    wall_s: f64,
    report: ServiceReport,
    restored: ServiceReport,
    restore: RestoreReport,
    restore_s: f64,
    journal_bytes: usize,
    snapshots: (u64, u64),
}

fn durable_pass(
    instance: &Instance,
    count: Option<&Arc<DispatchCount>>,
    failures: &mut Vec<String>,
) -> Option<DurablePass> {
    let started = Instant::now();
    let journal = Journal::default();
    let snapshots = LatestSnapshot::default();
    let mut service = span::span(span::SERVICE, "Service::new", || {
        new_service(instance, policy("mris", instance, span::CORE, count))
    });
    let attached = span::span(span::SERVICE, "Service::attach_journal", || {
        service.attach_journal(
            DURABILITY,
            Box::new(journal.clone()),
            Box::new(snapshots.clone()),
        )
    });
    if let Err(e) = attached {
        failures.push(format!("attach_journal: {e}"));
        return None;
    }
    let setup_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let latencies = submit_all(instance, failures, |at, job| {
        span::span(span::SERVICE, "Service::submit_at", || {
            service.submit_at(at, job)
        })
    });
    if let Some(e) = service.durability_error() {
        failures.push(format!("journal: {e}"));
    }
    let report = match span::span(span::SERVICE, "Service::drain", || service.drain()) {
        Ok((report, _)) => report,
        Err(e) => {
            failures.push(format!("drain: {e}"));
            return None;
        }
    };
    let wall_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let bytes = journal.bytes();
    let latest = snapshots.latest();
    let restored = span::span(span::SERVICE, "Service::restore", || {
        Service::restore(
            instance.clone(),
            policy("mris", instance, span::CORE, count),
            ServiceConfig::new(MACHINES),
            DURABILITY,
            SimClock::new(),
            NullSink,
            &bytes,
            latest.as_deref(),
            RestoreOptions::default(),
        )
    });
    let (service, restore) = match restored {
        Ok(restored) => restored,
        Err(e) => {
            failures.push(format!("restore: {e}"));
            return None;
        }
    };
    let restored = match span::span(span::SERVICE, "Service::drain (restored)", || {
        service.drain()
    }) {
        Ok((report, _)) => report,
        Err(e) => {
            failures.push(format!("drain after restore: {e}"));
            return None;
        }
    };
    let restore_s = started.elapsed().as_secs_f64();
    Some(DurablePass {
        setup_s,
        latencies,
        wall_s,
        report,
        restored,
        restore,
        restore_s,
        journal_bytes: bytes.len(),
        snapshots: snapshots.totals(),
    })
}

fn check_durable(instance: &Instance, pass: &DurablePass) -> Result<(), String> {
    check_report("durable", instance, &pass.report, None)?;
    check_report("restored", instance, &pass.restored, Some(&pass.report))?;
    if pass.restore.regenerated != 0 {
        return Err(format!(
            "restore regenerated {} records from a complete journal",
            pass.restore.regenerated
        ));
    }
    if pass.snapshots.0 > 0 && pass.restore.snapshot_verified.is_none() {
        return Err("restore did not verify the latest snapshot".into());
    }
    Ok(())
}

pub fn run_durable(run: &Run, out: &mut Outcome) {
    let (instance, generate_s) = generate(DURABLE_JOBS, run.seed);
    if run.trace {
        return traced_durable(run, out, &instance);
    }
    let mut failures = Vec::new();
    let mut attempted = 0;
    let (mut setups, mut p99s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<ServiceReport> = None;
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        attempted += instance.len() + 2;
        if let Some(pass) = durable_pass(&instance, None, &mut failures) {
            if let Err(e) = check_durable(&instance, &pass) {
                failures.push(e);
            }
            match &first {
                Some(first) => {
                    if let Err(e) = check_report("repeat", &instance, &pass.report, Some(first)) {
                        failures.push(e);
                    }
                }
                None => first = Some(pass.report.clone()),
            }
            setups.push(pass.setup_s);
            p99s.push(quantile(&pass.latencies, 0.99));
            rates.push(pass.report.summary.completed as f64 / pass.wall_s);
            log_pass(&rates, &pass.latencies);
        }
        if !run.another_pass(started, pass_started) || !failures.is_empty() {
            break;
        }
    }
    if let Some(first) = &first {
        out.set("awct_over_lb", awct_over_lb(&instance, first));
    }
    out.set("setup_s", generate_s + median(&setups));
    out.set("jobs_per_s", median(&rates));
    // The median submit is a sub-microsecond admission at the timer's
    // resolution; the p99 is the stall of the snapshot taken every 64 events.
    out.set("latency_ms", median(&p99s) * 1e3);
    out.ops(attempted, failures);
}

fn traced_durable(run: &Run, out: &mut Outcome, instance: &Instance) {
    let count = Arc::new(DispatchCount::default());
    let mut failures = Vec::new();
    let t = traced_pass(|traced| durable_pass(instance, traced.then_some(&count), &mut failures));
    let attempted = 2 * (instance.len() + 2) + 1;
    for pass in [&t.untraced, &t.traced].into_iter().flatten() {
        if let Err(e) = check_durable(instance, pass) {
            failures.push(e);
        }
    }
    let (Some(untraced), Some(traced)) = (&t.untraced, &t.traced) else {
        failures.push("a durable pass did not complete".into());
        return out.ops(attempted, failures);
    };
    if let Err(e) = check_report(
        "traced vs untraced",
        instance,
        &traced.report,
        Some(&untraced.report),
    ) {
        failures.push(e);
    }
    out.ops(attempted, failures);

    let spans = &t.spans;
    set_submit_metrics(out, spans);
    set_report_metrics(out, &traced.report);
    // The live service's policy calls; the restore replays them again.
    let live = under(spans, span::CORE, |p| {
        p.layer == span::SERVICE
            && p.name != "Service::restore"
            && p.name != "Service::drain (restored)"
    });
    set_policy_metrics(out, &live);

    out.set("journal.bytes", traced.journal_bytes as f64);
    out.set(
        "journal.appends",
        t.obs.counter("mris_journal_appends_total"),
    );
    out.set(
        "journal.write_s",
        total(spans, span::IO_SINK, Some("journal.write")),
    );
    out.set("snapshot.count", traced.snapshots.0 as f64);
    out.set("snapshot.bytes", traced.snapshots.1 as f64);
    out.set(
        "snapshot.encode_s",
        total(spans, span::SERVICE, Some("Snapshot::encode")),
    );
    out.set("restore.seconds", traced.restore_s);
    out.set("restore.records", traced.restore.records as f64);
    out.set("restore.regenerated", traced.restore.regenerated as f64);
    program_metrics(out, &t.obs, total(spans, span::CORE, None));
    finish(out, run, &t, &mris_carves(&t.obs, span::CORE));
}
