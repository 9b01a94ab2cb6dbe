//! End-to-end benchmark of the MRIS workspace.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>`, from the repository
//! root. Workloads and metrics are described in `perfbench/README.md`.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). Check failures are
//! printed to standard error and counted as failed operations.

mod batch;
mod durable;
mod inputs;
mod policy;
mod service;
mod span;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("awct_over_lb", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; a layer the workload
/// does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.parse_s", "s"),
    ("trace.bytes", "B"),
    ("types.validate_s", "s"),
    ("schedulers.dispatch_s", "s"),
    ("schedulers.dispatch_calls", "count"),
    ("schedulers.useful_dispatch_frac", "ratio"),
    ("schedulers.dispatch_p999_us", "us"),
    ("schedulers.dispatch_max_us", "us"),
    ("sim.events", "count"),
    ("sim.driver_self_s", "s"),
    ("timeline.probes", "count"),
    ("timeline.hint_hit_frac", "ratio"),
    ("timeline.block_jumps", "count"),
    ("timeline.commits", "count"),
    ("shard.wakeups", "count"),
    ("shard.steals", "count"),
    ("shard.steals_per_wakeup", "ratio"),
    ("shard.reduce_s", "s"),
    ("mris.schedule_s", "s"),
    ("mris.iterations", "count"),
    ("mris.eligible_total", "count"),
    ("mris.grid_s", "s"),
    ("mris.filter_s", "s"),
    ("mris.solve_s", "s"),
    ("mris.probe_s", "s"),
    ("mris.commit_s", "s"),
    ("mris.solve_frac", "ratio"),
    ("mris.probe_frac", "ratio"),
    ("knapsack.solves", "count"),
    ("knapsack.items_per_solve", "count"),
    ("knapsack.memo_hits", "count"),
    ("knapsack.memo_hit_frac", "ratio"),
    ("quality.mris_over_pq_awct", "ratio"),
    ("service.submit_s", "s"),
    ("service.submit_p50_us", "us"),
    ("service.submit_p99_us", "us"),
    ("service.drain_s", "s"),
    ("service.events", "count"),
    ("service.max_queue_depth", "count"),
    ("service.policy_s", "s"),
    ("service.dispatch_p999_us", "us"),
    ("service.dispatch_max_us", "us"),
    ("journal.bytes", "B"),
    ("journal.appends", "count"),
    ("journal.write_s", "s"),
    ("snapshot.count", "count"),
    ("snapshot.bytes", "B"),
    ("snapshot.encode_s", "s"),
    ("restore.seconds", "s"),
    ("restore.records", "count"),
    ("restore.regenerated", "count"),
    ("net.rtt_p50_us", "us"),
    ("net.rtt_p99_us", "us"),
    ("net.requests", "count"),
    ("net.connect_s", "s"),
    ("net.bytes_tx", "B"),
    ("net.bytes_rx", "B"),
    ("net.overhead_us", "us"),
    ("net.worker_policy_s", "s"),
    ("obs.overhead_frac", "ratio"),
    ("waterfall.coverage_frac", "ratio"),
    ("waterfall.traced_wall_s", "s"),
    ("self_s.bench", "s"),
    ("self_s.io-sink", "s"),
    ("self_s.mris-trace", "s"),
    ("self_s.mris-types", "s"),
    ("self_s.mris-sim", "s"),
    ("self_s.mris-schedulers", "s"),
    ("self_s.mris-core", "s"),
    ("self_s.mris-knapsack", "s"),
    ("self_s.mris-service", "s"),
    ("self_s.mris-net", "s"),
    ("self_s.mris-obs", "s"),
];

/// Settings of one invocation.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    /// Whether another pass as long as the one begun at `pass_started` ends
    /// within `--seconds` of `started`.
    pub fn another_pass(&self, started: Instant, pass_started: Instant) -> bool {
        started.elapsed().as_secs_f64() + pass_started.elapsed().as_secs_f64() <= self.seconds
    }

    /// Where the traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from("perfbench/out").join(format!("{}.spans.csv", self.workload))
    }
}

/// Operation counts and metric values of one run.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one operation; a failed check counts it as failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("check failed: {e}");
        }
    }

    /// Counts `attempted` operations, of which `failures` failed.
    pub fn ops(&mut self, attempted: usize, failures: Vec<String>) {
        self.attempted += attempted.max(failures.len()) as u64;
        self.failed += failures.len() as u64;
        for failure in failures {
            eprintln!("check failed: {failure}");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds the waterfall's coverage and per-layer self times.
    pub fn set_waterfall(&mut self, w: &span::Waterfall) {
        self.set("waterfall.coverage_frac", w.coverage());
        self.set("waterfall.traced_wall_s", w.wall_s);
        for (layer, secs) in &w.self_s {
            let name = PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n.strip_prefix("self_s.") == Some(layer))
                .unwrap_or_else(|| panic!("no self_s metric for layer {layer}"));
            self.set(name, *secs);
        }
        if w.orphans > 0 {
            self.op(Err(format!("{} spans have no recorded parent", w.orphans)));
        }
    }

    fn to_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut correct = self.failed == 0 && self.attempted > 0;
        for name in self.metrics.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not declared"
            );
        }
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) if v.is_finite() => *v,
                    // A layer this workload does not reach reads 0; an
                    // end-to-end metric must always be measured.
                    None if trace => 0.0,
                    _ => {
                        eprintln!("metric {name} was not measured");
                        correct = false;
                        0.0
                    }
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Run {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    match run.workload.as_str() {
        "batch-heavy" => batch::run(&batch::HEAVY, &run, &mut out),
        "batch-wide" => batch::run(&batch::WIDE, &run, &mut out),
        "service-tcp" => service::run_tcp(&run, &mut out),
        "service-durable" => service::run_durable(&run, &mut out),
        other => {
            eprintln!(
                "error: unknown workload {other} \
                 (batch-heavy, batch-wide, service-tcp, service-durable)"
            );
            std::process::exit(2);
        }
    }
    if !run.trace {
        out.set("peak_rss_mb", stats::peak_rss_mb());
    }
    println!("{}", out.to_json(run.trace));
}
