//! Golden regression test for MRIS in the heavy regime: a seeded
//! Azure-like instance at the paper's heavy per-machine load, where most
//! CADP items scale to size 0 and the integer DP's tie-breaking decides the
//! selected batches. The AWCT bits and a fingerprint of every placement are
//! pinned, so any change to the knapsack that alters a selection — or to
//! anything downstream of it — fails here.

use mris::prelude::*;
use mris::trace::{AzureTrace, AzureTraceConfig};

/// 2,000 jobs over 1.25 days on 5 machines, downsampled by 16 like the
/// paper's heavy runs: 1,600 jobs per day, slightly above the 1,280 of the
/// 16k-job heavy instances over 12.5 days. About 47% of CADP's items scale
/// to size 0 and 82% to a size below 8, as in the heavy regime.
fn heavy_instance() -> Instance {
    let trace = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: 32_000,
        window_days: 1.25,
        seed: 7,
        ..Default::default()
    });
    trace.sample_instance(16, 3)
}

/// FNV-1a over `(job, machine, start bits)` of every assignment, in job-id
/// order.
fn placement_fingerprint(instance: &Instance, schedule: &Schedule) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for job in instance.jobs() {
        let a = schedule.get(job.id).expect("every job is placed");
        eat(job.id.0 as u64);
        eat(a.machine as u64);
        eat(a.start.to_bits());
    }
    h
}

#[test]
fn golden_mris_cadp_heavy_instance() {
    const MACHINES: usize = 5;
    let instance = heavy_instance();
    let mris = Mris::with_config(MrisConfig {
        epsilon: 0.5,
        knapsack: KnapsackChoice::Cadp,
        ..Default::default()
    });
    let schedule = mris.schedule(&instance, MACHINES);
    schedule.validate(&instance).unwrap();
    let awct = schedule.awct(&instance);
    let fingerprint = placement_fingerprint(&instance, &schedule);
    assert_eq!(instance.len(), 2000);
    // AWCT 45851.568855257414.
    assert_eq!(awct.to_bits(), 0x40e6_6372_340f_f0d8);
    assert_eq!(fingerprint, 0xee3b_37c4_936c_cd19);
}
