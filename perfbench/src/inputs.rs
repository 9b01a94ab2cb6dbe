//! Seeded inputs, following the paper's Section 7.1 protocol.
//!
//! Every workload draws from one base trace: the Azure-like generator at
//! its default configuration (256k requests, one VM catalog, 12.5 days) —
//! the stand-in for the single real trace the paper samples from. The seed
//! picks *which* jobs: batch workloads take `count` downsamples at distinct
//! seed-drawn offsets, service workloads take one downsample and draw
//! Poisson arrivals from the seed. Drawing a fresh catalog per seed would
//! move AWCT by ±30% between seeds, which no bound could absorb.

use mris_rng::Rng;
use mris_service::poisson_rate_for_utilization;
use mris_trace::{instance_to_csv, AzureTrace, AzureTraceConfig};
use mris_types::{Instance, Job, JobId};

/// Set-ups per run; `setup_s` reports their median.
pub const SETUPS: usize = 7;

/// Requests in the base trace (the generator's default).
pub const BASE_JOBS: usize = 256_000;

pub fn base_trace() -> AzureTrace {
    AzureTrace::generate(&AzureTraceConfig {
        num_jobs: BASE_JOBS,
        ..Default::default()
    })
}

/// `count` instances of about `BASE_JOBS / factor` jobs each, at distinct
/// offsets drawn from `seed`, serialised as trace CSV text.
pub fn batch_csvs(base: &AzureTrace, factor: usize, count: usize, seed: u64) -> Vec<String> {
    base.sample_instances(factor, count, seed)
        .iter()
        .map(instance_to_csv)
        .collect()
}

/// `jobs` jobs shaped like one seed-chosen downsample of the base trace,
/// arriving as a Poisson stream that loads the bottleneck resource of
/// `machines` machines to `utilization`. Releases are non-decreasing in id.
pub fn service_instance(
    base: &AzureTrace,
    jobs: usize,
    machines: usize,
    utilization: f64,
    seed: u64,
) -> Instance {
    let factor = BASE_JOBS / jobs;
    let sample = base.sample_instance(factor, (seed % factor as u64) as usize);
    let shapes = &sample.jobs()[..jobs];
    let shape_instance = Instance::new(shapes.to_vec(), sample.num_resources())
        .expect("a prefix of a valid instance is valid");
    let rate = poisson_rate_for_utilization(&shape_instance, machines, utilization);
    let mut rng = Rng::new(seed).substream("perfbench-arrivals");
    let mut t = 0.0_f64;
    let jobs: Vec<Job> = shapes
        .iter()
        .enumerate()
        .map(|(i, shape)| {
            t += -(1.0 - rng.gen_f64()).ln() / rate;
            Job {
                id: JobId(i as u32),
                release: t,
                ..shape.clone()
            }
        })
        .collect();
    Instance::new(jobs, sample.num_resources()).expect("re-timed jobs stay valid")
}
