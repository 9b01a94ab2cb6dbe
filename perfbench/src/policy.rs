//! An [`OnlinePolicy`] wrapper that puts a span around every call into the
//! policy, so each MRIS iteration and each PQ dispatch is timed — the
//! service's own `decision_ns` samples only every fourth event.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mris_sim::{Dispatcher, OnlinePolicy};
use mris_types::{Instance, JobId, SchedulingError, Time};

use crate::span;

/// Dispatch calls seen and how many of them placed at least one job.
/// Shared with the wrapper, which may run on the TCP server's worker.
#[derive(Debug, Default)]
pub struct DispatchCount {
    pub calls: AtomicU64,
    pub useful: AtomicU64,
}

impl DispatchCount {
    pub fn useful_frac(&self) -> f64 {
        let calls = self.calls.load(Ordering::Relaxed);
        self.useful.load(Ordering::Relaxed) as f64 / calls.max(1) as f64
    }
}

/// Times every call into `inner`; spans carry `layer` (the crate that
/// implements the policy).
pub struct Timed {
    inner: Box<dyn OnlinePolicy>,
    layer: &'static str,
    count: Arc<DispatchCount>,
}

impl Timed {
    pub fn new(
        inner: Box<dyn OnlinePolicy>,
        layer: &'static str,
        count: Arc<DispatchCount>,
    ) -> Self {
        Timed {
            inner,
            layer,
            count,
        }
    }
}

impl OnlinePolicy for Timed {
    fn on_arrivals(&mut self, now: Time, arrived: &[JobId], instance: &Instance) {
        span::span(self.layer, "on_arrivals", || {
            self.inner.on_arrivals(now, arrived, instance)
        })
    }

    fn dispatch(
        &mut self,
        dispatcher: &mut Dispatcher<'_>,
        freed_machines: &[usize],
    ) -> Result<(), SchedulingError> {
        let before = dispatcher.cluster().num_running();
        let out = span::span(self.layer, "dispatch", || {
            self.inner.dispatch(dispatcher, freed_machines)
        });
        self.count.calls.fetch_add(1, Ordering::Relaxed);
        if dispatcher.cluster().num_running() > before {
            self.count.useful.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn on_machine_failed(
        &mut self,
        now: Time,
        machine: usize,
        recover_at: Time,
        killed: &[JobId],
        instance: &Instance,
    ) {
        span::span(self.layer, "on_machine_failed", || {
            self.inner
                .on_machine_failed(now, machine, recover_at, killed, instance)
        })
    }

    fn on_machine_recovered(&mut self, now: Time, machine: usize, instance: &Instance) {
        span::span(self.layer, "on_machine_recovered", || {
            self.inner.on_machine_recovered(now, machine, instance)
        })
    }

    // A stored-value read on every event; a span would cost more than the
    // call, so it is left to the caller's span.
    fn next_wakeup(&self) -> Option<Time> {
        self.inner.next_wakeup()
    }

    fn encode_durable_state(&self, out: &mut Vec<u8>) -> bool {
        span::span(self.layer, "encode_durable_state", || {
            self.inner.encode_durable_state(out)
        })
    }
}
