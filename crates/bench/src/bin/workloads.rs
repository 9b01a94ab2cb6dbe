//! Workload-structure benchmark (`BENCH_workloads.json`).
//!
//! Runs every registered scheduler over the cross product of four job
//! structures — independent, chains, fork-join stages, random DAGs — and
//! two cluster shapes — uniform and related-speed machines — reporting
//! spec-aware AWCT and makespan per cell. Cells a scheduler's capability
//! flags reject (today: CA-PQ on precedence workloads) are reported as
//! unsupported rather than silently skipped.
//!
//! Pinned guarantees, asserted on every run:
//!
//! * the independent × uniform column is **bit-identical** to the legacy
//!   [`Scheduler::try_schedule`] path (the API-redesign invariant);
//! * every schedule passes spec-aware validation, and every precedence
//!   edge holds under the target cluster's effective times;
//! * DAG cells actually exercised the gate: the `mris_prec_*` counters
//!   (captured via an installed obs subscriber) are nonzero.
//!
//! `cargo run --release -p mris-bench --bin workloads [--machines 6]
//!  [--jobs 600] [--seed 17] [--smoke] [--out BENCH_workloads.json]`
//!
//! `--smoke` shrinks the trace so CI can validate the pipeline and the
//! JSON schema in seconds; full runs are for tracked numbers.

use std::sync::Arc;

use mris_bench::Args;
use mris_core::registry::algorithm_for_workload;
use mris_obs::Obs;
use mris_rng::Rng;
use mris_schedulers::Scheduler;
use mris_trace::{AzureTrace, AzureTraceConfig};
use mris_types::{ClusterSpec, Instance, InstanceBuilder, JobId, RegistryError, Schedule};

/// The four job structures of the grid.
const FAMILIES: [&str; 4] = ["independent", "chain", "fork-join", "random-dag"];
/// The two cluster shapes of the grid.
const CLUSTERS: [&str; 2] = ["uniform", "related"];
/// Related-machine speed pattern, cycled over the cluster: a fast tier, a
/// baseline tier, and a slow tier.
const SPEEDS: [f64; 3] = [2.0, 1.0, 0.5];

/// One scheduler in one grid cell.
struct CellResult {
    name: String,
    supported: bool,
    awct: f64,
    makespan: f64,
}

impl CellResult {
    fn to_json(&self) -> String {
        if self.supported {
            format!(
                "{{\"name\": \"{}\", \"supported\": true, \"awct\": {:.6}, \"makespan\": {:.6}}}",
                self.name, self.awct, self.makespan
            )
        } else {
            format!(
                "{{\"name\": \"{}\", \"supported\": false, \"awct\": null, \"makespan\": null}}",
                self.name
            )
        }
    }
}

/// One (family, cluster) cell of the grid.
struct Cell {
    family: &'static str,
    cluster: &'static str,
    edges: usize,
    results: Vec<CellResult>,
}

impl Cell {
    fn to_json(&self) -> String {
        let results: Vec<String> = self.results.iter().map(|r| r.to_json()).collect();
        format!(
            "{{\"family\": \"{}\", \"cluster\": \"{}\", \"edges\": {}, \"results\": [{}]}}",
            self.family,
            self.cluster,
            self.edges,
            results.join(", ")
        )
    }
}

/// Rebuilds `base` with the precedence structure of `family`. Edges are
/// forward-only (pred id < succ id), so every family is acyclic by
/// construction.
fn with_family(base: &Instance, family: &str, seed: u64) -> Instance {
    let n = base.len();
    let mut b = InstanceBuilder::new(base.num_resources());
    for j in base.jobs() {
        b.push(j.clone());
    }
    match family {
        "independent" => {}
        // Disjoint chains of 4 consecutive ids: 0->1->2->3, 4->5->...
        "chain" => {
            for i in 0..n.saturating_sub(1) {
                if i % 4 != 3 {
                    b.edge(JobId(i as u32), JobId(i as u32 + 1));
                }
            }
        }
        // Stages of 6 consecutive ids: the first forks to four middles,
        // which all join into the last.
        "fork-join" => {
            for stage in 0..n / 6 {
                let first = stage * 6;
                let last = first + 5;
                for mid in (first + 1)..last {
                    b.edge(JobId(first as u32), JobId(mid as u32));
                    b.edge(JobId(mid as u32), JobId(last as u32));
                }
            }
        }
        // Each job draws up to two predecessors among earlier ids.
        "random-dag" => {
            let mut rng = Rng::new(seed).substream("workloads-dag");
            for succ in 1..n {
                for _ in 0..2 {
                    if rng.gen_range(0.0..1.0) < 0.5 {
                        let pred = rng.gen_range(0..succ);
                        b.edge(JobId(pred as u32), JobId(succ as u32));
                    }
                }
            }
        }
        other => panic!("unknown family {other}"),
    }
    b.build().unwrap_or_else(|e| panic!("{family}: {e}"))
}

/// Asserts every precedence edge holds under `spec`'s effective times.
fn assert_edges_respected(name: &str, instance: &Instance, spec: &ClusterSpec, sched: &Schedule) {
    for &(pred, succ) in instance.edges() {
        let p = sched.get(pred).expect("predecessor scheduled");
        let s = sched.get(succ).expect("successor scheduled");
        let end = p.start + spec.effective_time(p.machine, instance.job(pred).proc_time);
        assert!(
            s.start >= end,
            "{name}: {succ} starts at {} before {pred} completes at {end}",
            s.start
        );
    }
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("smoke");
    let machines = args.get("machines", if smoke { 4 } else { 6 });
    let jobs = args.get("jobs", if smoke { 96 } else { 600 });
    let seed = args.get("seed", 17u64);
    let out: String = args.get("out", "BENCH_workloads.json".to_string());

    eprintln!(
        "workloads bench: mode = {}, M = {machines}, N = {jobs}, seed = {seed}",
        if smoke { "smoke" } else { "full" }
    );

    let trace = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: jobs,
        seed,
        ..AzureTraceConfig::default()
    });
    let base = trace.sample_instance(2, 0);
    let speeds: Vec<f64> = (0..machines).map(|m| SPEEDS[m % SPEEDS.len()]).collect();
    // The comparison set of the paper's figures, by registry name.
    let names = ["mris", "pq-wsjf", "pq-wsvf", "tetris", "bf-exec", "ca-pq"];

    // Precedence counters captured across every DAG cell; CI asserts the
    // gate actually fired.
    let obs = Arc::new(Obs::new());
    let _guard = mris_obs::install_guard(obs.clone());

    let mut grid: Vec<Cell> = Vec::new();
    for family in FAMILIES {
        let instance = with_family(&base, family, seed);
        for cluster_kind in CLUSTERS {
            let spec = match cluster_kind {
                "uniform" => ClusterSpec::uniform(machines),
                _ => ClusterSpec::related(machines, &speeds),
            };
            eprintln!(
                "  {family} x {cluster_kind} ({} edges) ...",
                instance.edges().len()
            );
            let mut results = Vec::new();
            for &name in &names {
                let algo = match algorithm_for_workload(name, &instance, &spec) {
                    Ok(a) => a,
                    Err(RegistryError::Unsupported { .. }) => {
                        results.push(CellResult {
                            name: name.to_string(),
                            supported: false,
                            awct: 0.0,
                            makespan: 0.0,
                        });
                        continue;
                    }
                    Err(e) => panic!("{name}: {e}"),
                };
                let sched = algo
                    .try_schedule_on(&instance, &spec)
                    .unwrap_or_else(|e| panic!("{name} on {family} x {cluster_kind}: {e}"));
                sched
                    .validate_on(&instance, &spec)
                    .unwrap_or_else(|e| panic!("{name} on {family} x {cluster_kind}: {e}"));
                assert_edges_respected(name, &instance, &spec, &sched);
                if family == "independent" && cluster_kind == "uniform" {
                    // The API-redesign invariant: the spec-aware path on a
                    // uniform cluster is the legacy path, bit for bit.
                    let legacy = algo
                        .try_schedule(&instance, machines)
                        .expect("legacy path schedules the edge-free instance");
                    assert_eq!(
                        sched, legacy,
                        "{name}: uniform spec-aware schedule diverged from try_schedule"
                    );
                }
                let awct = sched.awct_on(&instance, &spec);
                let makespan: f64 = instance
                    .jobs()
                    .iter()
                    .map(|j| {
                        let a = sched.get(j.id).expect("scheduled");
                        a.start + spec.effective_time(a.machine, j.proc_time)
                    })
                    .fold(0.0, f64::max);
                results.push(CellResult {
                    name: name.to_string(),
                    supported: true,
                    awct,
                    makespan,
                });
            }
            grid.push(Cell {
                family,
                cluster: cluster_kind,
                edges: instance.edges().len(),
                results,
            });
        }
    }

    let reg = obs.registry();
    let gated = reg
        .counter_value("mris_prec_gated_total", None)
        .unwrap_or(0);
    let ready = reg
        .counter_value("mris_prec_ready_total", None)
        .unwrap_or(0);
    let revoked = reg
        .counter_value("mris_prec_revoked_total", None)
        .unwrap_or(0);
    assert!(
        ready > 0,
        "DAG cells ran but no precedence gate ever opened — gating is not wired"
    );
    eprintln!("  precedence counters: gated = {gated}, ready = {ready}, revoked = {revoked}");

    let families_json: Vec<String> = FAMILIES.iter().map(|f| format!("\"{f}\"")).collect();
    let clusters_json: Vec<String> = CLUSTERS.iter().map(|c| format!("\"{c}\"")).collect();
    let speeds_json: Vec<String> = speeds.iter().map(|s| s.to_string()).collect();
    let grid_json: Vec<String> = grid
        .iter()
        .map(|c| format!("    {}", c.to_json()))
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"workloads\",\n",
            "  \"version\": 1,\n",
            "  \"mode\": \"{}\",\n",
            "  \"machines\": {},\n",
            "  \"jobs\": {},\n",
            "  \"seed\": {},\n",
            "  \"families\": [{}],\n",
            "  \"clusters\": [{}],\n",
            "  \"speeds\": [{}],\n",
            "  \"precedence_counters\": {{\"mris_prec_gated_total\": {}, ",
            "\"mris_prec_ready_total\": {}, \"mris_prec_revoked_total\": {}}},\n",
            "  \"grid\": [\n{}\n  ]\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        machines,
        jobs,
        seed,
        families_json.join(", "),
        clusters_json.join(", "),
        speeds_json.join(", "),
        gated,
        ready,
        revoked,
        grid_json.join(",\n")
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("  wrote {out}");
    print!("{json}");
}
