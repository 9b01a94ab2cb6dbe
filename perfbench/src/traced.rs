//! The traced run shared by every workload: the same pass once untraced and
//! once with spans and an obs subscriber, then the program-recorded `mris_*`
//! families read back and turned into per-layer metrics.

use std::sync::Arc;
use std::time::Instant;

use crate::span::{self, Carve, Span, Waterfall};
use crate::stats::{ratio, ObsRead};
use crate::{Outcome, Run};

/// Outputs of [`traced_pass`].
pub struct Traced<T> {
    pub untraced: T,
    pub traced: T,
    pub spans: Vec<Span>,
    pub obs: ObsRead,
    untraced_s: f64,
}

/// Runs `pass(false)` untraced, then `pass(true)` inside one root span with
/// span recording on and a fresh obs subscriber installed.
pub fn traced_pass<T>(mut pass: impl FnMut(bool) -> T) -> Traced<T> {
    let started = Instant::now();
    let untraced = pass(false);
    let untraced_s = started.elapsed().as_secs_f64();

    let obs = Arc::new(mris_obs::Obs::new());
    let guard = mris_obs::install_guard(Arc::clone(&obs));
    span::enable();
    let (traced, read) = span::span(span::BENCH, "traced pass", || {
        let traced = pass(true);
        let read = span::span(span::OBS, "MetricsRegistry::snapshot", || {
            ObsRead::take(&obs)
        });
        (traced, read)
    });
    let spans = span::disable();
    drop(guard);

    Traced {
        untraced,
        traced,
        spans,
        obs: read,
        untraced_s,
    }
}

/// Moves the MRIS stage times the program records itself out of `from`,
/// the layer whose spans enclose MRIS: `solve` is the knapsack, `probe` and
/// `commit` are timeline queries and updates in `mris-sim`.
pub fn mris_carves(obs: &ObsRead, from: &'static str) -> Vec<Carve> {
    [
        ("mris_epoch_solve_seconds", span::KNAPSACK),
        ("mris_epoch_probe_seconds", span::SIM),
        ("mris_epoch_commit_seconds", span::SIM),
    ]
    .into_iter()
    .map(|(family, to)| Carve {
        family,
        from,
        to,
        secs: obs.hist_sum(family),
    })
    .collect()
}

/// Per-layer metrics read from the program's own obs families: MRIS epoch
/// stages, knapsack, timelines and shards. `mris_s` is the wall time spent
/// in MRIS (the denominator of the stage shares).
pub fn program_metrics(out: &mut Outcome, obs: &ObsRead, mris_s: f64) {
    let stage = |name| obs.hist_sum(name);
    let solve = stage("mris_epoch_solve_seconds");
    let probe = stage("mris_epoch_probe_seconds");
    out.set("mris.schedule_s", mris_s);
    out.set("mris.grid_s", stage("mris_epoch_grid_seconds"));
    out.set("mris.filter_s", stage("mris_epoch_filter_seconds"));
    out.set("mris.solve_s", solve);
    out.set("mris.probe_s", probe);
    out.set("mris.commit_s", stage("mris_epoch_commit_seconds"));
    out.set("mris.solve_frac", ratio(solve, mris_s));
    out.set("mris.probe_frac", ratio(probe, mris_s));

    let solves = obs.counter("mris_knapsack_solves_total");
    let hits = obs.counter("mris_epoch_memo_hits_total");
    let misses = obs.counter("mris_epoch_memo_misses_total");
    out.set("knapsack.solves", solves);
    out.set(
        "knapsack.items_per_solve",
        ratio(obs.counter("mris_knapsack_items_total"), solves),
    );
    out.set("knapsack.memo_hits", hits);
    out.set("knapsack.memo_hit_frac", ratio(hits, hits + misses));

    let hint_hits = obs.counter("mris_timeline_hint_hits_total");
    let hint_misses = obs.counter("mris_timeline_hint_misses_total");
    out.set("timeline.probes", obs.counter("mris_timeline_probes_total"));
    out.set(
        "timeline.hint_hit_frac",
        ratio(hint_hits, hint_hits + hint_misses),
    );
    out.set(
        "timeline.block_jumps",
        obs.counter("mris_timeline_block_jumps_total"),
    );
    out.set(
        "timeline.commits",
        obs.counter("mris_timeline_commits_total"),
    );

    let wakeups = obs.counter("mris_shard_wakeups_total");
    let steals = obs.counter("mris_shard_steals_total");
    out.set("shard.wakeups", wakeups);
    out.set("shard.steals", steals);
    out.set("shard.steals_per_wakeup", ratio(steals, wakeups));
    out.set("shard.reduce_s", stage("mris_shard_reduce_seconds"));
}

/// Reports the waterfall and `obs.overhead_frac` (traced wall ÷ untraced
/// wall − 1), and writes the spans next to the benchmark.
pub fn finish<T>(out: &mut Outcome, run: &Run, traced: &Traced<T>, carves: &[Carve]) {
    let waterfall = Waterfall::build(&traced.spans, carves);
    out.set_waterfall(&waterfall);
    out.set(
        "obs.overhead_frac",
        waterfall.wall_s / traced.untraced_s.max(1e-12) - 1.0,
    );
    let path = run.spans_path();
    if let Err(e) = span::write(&path, &traced.spans, carves) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
