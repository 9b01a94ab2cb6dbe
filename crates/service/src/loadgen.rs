//! Open-loop load generation for the service.
//!
//! Job *shapes* (processing times, weights, demand vectors) come from the
//! Azure-derived trace generator; this module rewrites their release times
//! with a synthetic arrival process — Poisson (exponential interarrivals)
//! or periodic bursts — so service experiments control offered load
//! independently of the shape distribution. Everything is seeded through
//! `mris-rng`: the same [`LoadGenConfig`] always yields the same
//! [`Workload`].

use mris_rng::Rng;
use mris_trace::{AzureTrace, AzureTraceConfig};
use mris_types::{fraction, Instance, Job, JobId, OfferError, Time};

use crate::clock::Clock;
use crate::core::{Service, ServiceReport};
use crate::telemetry::TelemetrySink;

/// The synthetic arrival process for [`generate_workload`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Exponential interarrival times with the given mean rate
    /// (jobs per normalized time unit).
    Poisson {
        /// Mean arrival rate, must be finite and positive.
        rate: f64,
    },
    /// `size` jobs arrive together every `period` time units, starting at 0.
    Bursts {
        /// Spacing between bursts, must be finite and positive.
        period: Time,
        /// Jobs per burst, must be positive.
        size: usize,
    },
}

/// Configuration of one generated workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadGenConfig {
    /// Number of jobs to generate.
    pub num_jobs: usize,
    /// Seed for both the shape sampler and the arrival process. The shape
    /// stream is independent of [`LoadGenConfig::arrivals`], so two configs
    /// differing only in the process produce identical job shapes.
    pub seed: u64,
    /// The arrival process writing release times.
    pub arrivals: ArrivalProcess,
}

/// A generated open-loop workload: an instance whose jobs are submitted to
/// the service at their release times, in id order.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The jobs, with releases non-decreasing in id.
    pub instance: Instance,
}

/// Generates a workload: Azure-derived shapes, synthetic arrivals.
///
/// # Panics
///
/// If the arrival process has a non-positive rate, period, or burst size.
pub fn generate_workload(cfg: &LoadGenConfig) -> Workload {
    match cfg.arrivals {
        ArrivalProcess::Poisson { rate } => {
            assert!(
                rate.is_finite() && rate > 0.0,
                "poisson rate must be finite and positive, got {rate}"
            );
        }
        ArrivalProcess::Bursts { period, size } => {
            assert!(
                period.is_finite() && period > 0.0,
                "burst period must be finite and positive, got {period}"
            );
            assert!(size > 0, "burst size must be positive");
        }
    }
    if cfg.num_jobs == 0 {
        return Workload {
            instance: Instance::new(Vec::new(), 1).expect("empty instance is valid"),
        };
    }
    let shapes = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: cfg.num_jobs,
        seed: cfg.seed,
        ..Default::default()
    })
    .sample_instance(1, 0);
    let mut arrival_rng = Rng::new(cfg.seed).substream("loadgen-arrivals");
    let mut t = 0.0_f64;
    let jobs: Vec<Job> = shapes
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, shape)| {
            let release = match cfg.arrivals {
                ArrivalProcess::Poisson { rate } => {
                    // Exponential interarrival, same draw idiom as the
                    // fault-plan generators.
                    t += -(1.0 - arrival_rng.gen_f64()).ln() / rate;
                    t
                }
                ArrivalProcess::Bursts { period, size } => (i / size) as f64 * period,
            };
            Job {
                id: JobId(i as u32),
                release,
                proc_time: shape.proc_time,
                weight: shape.weight,
                demands: shape.demands.clone(),
            }
        })
        .collect();
    let num_resources = shapes.num_resources();
    Workload {
        instance: Instance::new(jobs, num_resources).expect("rewritten jobs stay valid"),
    }
}

/// A Poisson rate putting the cluster's bottleneck resource at `utilization`
/// under the shape distribution of `instance`: offered volume per time unit
/// equals `utilization * num_machines` times one machine's capacity of the
/// most-demanded resource. Returns at least `f64::MIN_POSITIVE` so the
/// result is always a valid [`ArrivalProcess::Poisson`] rate.
pub fn poisson_rate_for_utilization(
    instance: &Instance,
    num_machines: usize,
    utilization: f64,
) -> f64 {
    assert!(
        utilization.is_finite() && utilization > 0.0,
        "utilization must be finite and positive, got {utilization}"
    );
    if instance.is_empty() {
        return 1.0;
    }
    // Mean per-job load on the bottleneck resource: p_j * max_l d_jl.
    let mean_load: f64 = instance
        .jobs()
        .iter()
        .map(|j| {
            let peak = j.demands.iter().copied().max().unwrap_or(0);
            j.proc_time * fraction(peak)
        })
        .sum::<f64>()
        / instance.len() as f64;
    if mean_load <= 0.0 {
        return 1.0;
    }
    (utilization * num_machines as f64 / mean_load).max(f64::MIN_POSITIVE)
}

/// Submits every job of `workload` at its release time, then drains.
/// Admission rejections are normal operation and end up in the report's
/// outcome ledger; the error is a fatal policy violation (or a workload
/// whose instance is not the service's).
pub fn run_workload<C: Clock, S: TelemetrySink>(
    mut service: Service<C, S>,
    workload: &Workload,
) -> Result<(ServiceReport, S), OfferError> {
    for job in workload.instance.jobs() {
        let _admission = service.submit_at(job.release, job.id)?;
    }
    Ok(service.drain()?)
}
