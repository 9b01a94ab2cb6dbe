//! The TCP front door: an acceptor, per-connection handler threads, and a
//! worker thread that owns the [`Service`] event loop.
//!
//! # Threading model
//!
//! No async runtime (the workspace is hermetic). The acceptor blocks on
//! `TcpListener::accept` and spawns one handler thread per connection;
//! handlers perform the handshake (version, token → tenant, optional
//! fingerprint check) and then relay decoded [`Request`]s to the worker
//! over an `mpsc` channel, each carrying its own bounded reply channel.
//! The worker is the *only* thread touching the service, so the admission
//! sequence is exactly the order requests leave the channel — a single
//! client connection therefore replays the same deterministic admission
//! sequence as the in-process driver (`tests/net_conservativity.rs` pins
//! TCP ≡ in-process on bits).
//!
//! `make_policy` runs inside the worker, as in
//! [`mris_service::spawn_service`]: boxed policies are not `Send`.
//!
//! # Shutdown
//!
//! [`Request::Drain`] drains the service on the worker, answers the full
//! [`ServiceReport`] to the requester, raises the shutdown flag, and
//! unblocks the acceptor with a loopback self-connect. Handler requests
//! after drain answer [`Response::Error`].

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use mris_service::{
    service_fingerprint, Clock, EpochRecord, JobOutcome, Service, ServiceConfig, ServiceReport,
    ServiceSummary, TelemetrySink,
};
use mris_sim::OnlinePolicy;
use mris_types::{Instance, JobId, NetError, OfferError, TenantId, Time};

use crate::proto::{
    read_frame, write_frame, HandshakeStatus, Hello, HelloReply, NetStats, Request, Response,
    NET_VERSION,
};

/// Shared list of subscribed telemetry connections.
type Subscribers = Arc<Mutex<Vec<TcpStream>>>;

/// Closes every subscriber socket (both halves — the handler threads
/// holding the read halves see EOF and exit) and empties the list.
fn close_subscribers(subs: &Subscribers) {
    let mut subs = subs.lock().expect("subscriber lock");
    for s in subs.drain(..) {
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
}

/// A [`TelemetrySink`] that forwards every epoch record (and the final
/// summary) to subscribed connections as [`Response::Telemetry`] frames,
/// then delegates to an inner sink. Dead subscribers are dropped silently;
/// telemetry is best-effort by design and never affects scheduling.
struct NetSink<S> {
    inner: S,
    subs: Subscribers,
}

impl<S> NetSink<S> {
    fn push_line(&self, line: String) {
        let frame = Response::Telemetry { line }.encode();
        let mut subs = self.subs.lock().expect("subscriber lock");
        subs.retain_mut(|stream| write_frame(stream, &frame).is_ok());
    }
}

impl<S: TelemetrySink> TelemetrySink for NetSink<S> {
    fn epoch(&mut self, record: &EpochRecord) {
        if !self.subs.lock().expect("subscriber lock").is_empty() {
            self.push_line(record.to_json());
        }
        self.inner.epoch(record);
    }

    fn summary(&mut self, summary: &ServiceSummary) {
        if !self.subs.lock().expect("subscriber lock").is_empty() {
            self.push_line(summary.to_json());
        }
        self.inner.summary(summary);
    }
}

/// One relayed request plus its reply channel.
enum Op {
    Submit {
        job: u32,
        at: Option<Time>,
        tenant: TenantId,
        reply: mpsc::SyncSender<Response>,
    },
    Batch {
        jobs: Vec<(u32, Option<Time>)>,
        tenant: TenantId,
        reply: mpsc::SyncSender<Response>,
    },
    Query {
        job: u32,
        reply: mpsc::SyncSender<Response>,
    },
    Stats {
        reply: mpsc::SyncSender<Response>,
    },
    Drain {
        reply: mpsc::SyncSender<Response>,
    },
}

/// Why a network serve run failed (beyond per-connection errors, which
/// are answered in-band as [`Response::Error`] frames).
#[derive(Debug)]
pub enum NetServeError {
    /// The service configuration was rejected at construction.
    Config(mris_types::ConfigError),
    /// The policy violated a placement rule while the worker drove it.
    Scheduling(mris_types::SchedulingError),
    /// The worker thread panicked.
    WorkerPanicked {
        /// Downcast panic payload.
        payload: String,
    },
}

impl std::fmt::Display for NetServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetServeError::Config(e) => write!(f, "net serve configuration rejected: {e}"),
            NetServeError::Scheduling(e) => write!(f, "net serve scheduling failed: {e}"),
            NetServeError::WorkerPanicked { payload } => {
                write!(f, "net serve worker panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for NetServeError {}

/// A running TCP service front door.
pub struct NetServer<S> {
    addr: SocketAddr,
    worker: std::thread::JoinHandle<Result<(ServiceReport, S), NetServeError>>,
    acceptor: std::thread::JoinHandle<()>,
    shutdown: Arc<AtomicBool>,
}

impl<S> NetServer<S> {
    /// The bound listen address (resolves the ephemeral port when the
    /// caller listened on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for a client's [`Request::Drain`] to end the serve loop and
    /// returns the drained report and telemetry sink. The same report was
    /// answered over the wire to the draining client.
    ///
    /// # Errors
    ///
    /// A typed [`NetServeError`]; a worker panic is captured, not
    /// propagated.
    pub fn wait(self) -> Result<(ServiceReport, S), NetServeError> {
        let result = match self.worker.join() {
            Ok(r) => r,
            Err(payload) => {
                let payload = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                Err(NetServeError::WorkerPanicked { payload })
            }
        };
        // The worker raised the flag (or died); unblock and join the
        // acceptor so no thread outlives the server handle.
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        result
    }
}

/// Serves `instance` under `cfg` over TCP at `listen` (e.g.
/// `"127.0.0.1:0"` for an ephemeral loopback port).
///
/// The worker admits requests in channel order against the given clock;
/// `make_policy` runs inside the worker. Returns once the listener is
/// bound — connections are accepted in the background until a client
/// drains the service.
///
/// # Errors
///
/// [`NetError::Io`] when the listen address cannot be bound.
pub fn serve_net<C, S, F>(
    instance: Instance,
    cfg: ServiceConfig,
    clock: C,
    sink: S,
    make_policy: F,
    listen: &str,
) -> Result<NetServer<S>, NetError>
where
    C: Clock + Send + 'static,
    S: TelemetrySink + Send + 'static,
    F: FnOnce(&Instance, usize) -> Box<dyn OnlinePolicy> + Send + 'static,
{
    let listener = TcpListener::bind(listen).map_err(|e| NetError::Io {
        detail: format!("bind {listen}: {e}"),
    })?;
    let addr = listener.local_addr().map_err(|e| NetError::Io {
        detail: format!("local_addr: {e}"),
    })?;
    let fingerprint = service_fingerprint(&instance, &cfg);
    // Token table: multi-tenant maps exact tokens to tenant ids; the
    // single-tenant door accepts any token as tenant 0.
    let tokens: Arc<HashMap<String, u32>> = Arc::new(
        cfg.tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (t.token.clone(), i as u32))
            .collect(),
    );
    let multi_tenant = !cfg.tenants.is_empty();
    let subs: Subscribers = Arc::new(Mutex::new(Vec::new()));
    let shutdown = Arc::new(AtomicBool::new(false));
    let (op_tx, op_rx) = mpsc::channel::<Op>();

    let worker = {
        let subs = Arc::clone(&subs);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let result = run_worker(instance, cfg, clock, sink, make_policy, subs, op_rx);
            // Whatever ended the worker ends the serve loop.
            shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr);
            result.map(|(report, sink)| (report, sink.inner))
        })
    };

    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let subs = Arc::clone(&subs);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Request/response framing with small frames: Nagle's
                // algorithm against delayed ACKs costs ~40ms per round
                // trip on loopback, so turn it off.
                let _ = stream.set_nodelay(true);
                mris_obs::counter_add("mris_net_connections_total", 1);
                let op_tx = op_tx.clone();
                let tokens = Arc::clone(&tokens);
                let subs = Arc::clone(&subs);
                std::thread::spawn(move || {
                    let _ =
                        handle_connection(stream, fingerprint, multi_tenant, tokens, op_tx, subs);
                });
            }
        })
    };

    Ok(NetServer {
        addr,
        worker,
        acceptor,
        shutdown,
    })
}

/// The worker loop: the single owner of the service, admitting relayed
/// requests in channel order until a drain (or channel death).
fn run_worker<C, S, F>(
    instance: Instance,
    cfg: ServiceConfig,
    clock: C,
    sink: S,
    make_policy: F,
    subs: Subscribers,
    op_rx: mpsc::Receiver<Op>,
) -> Result<(ServiceReport, NetSink<S>), NetServeError>
where
    C: Clock,
    S: TelemetrySink,
    F: FnOnce(&Instance, usize) -> Box<dyn OnlinePolicy>,
{
    let policy = make_policy(&instance, cfg.num_machines);
    let num_jobs = instance.len();
    let sink = NetSink {
        inner: sink,
        subs: Arc::clone(&subs),
    };
    let mut svc =
        Service::new(instance, policy, cfg, clock, sink).map_err(NetServeError::Config)?;
    while let Ok(op) = op_rx.recv() {
        match op {
            Op::Submit {
                job,
                at,
                tenant,
                reply,
            } => match submit_one(&mut svc, job, at, tenant) {
                SubmitOutcome::Decision(result) => {
                    let _ = reply.send(Response::Submitted { result });
                }
                SubmitOutcome::BadRequest(detail) => {
                    let _ = reply.send(Response::Error { detail });
                }
                SubmitOutcome::Fatal(e) => {
                    let _ = reply.send(Response::Error {
                        detail: format!("scheduling failed: {e}"),
                    });
                    return Err(NetServeError::Scheduling(e));
                }
            },
            Op::Batch {
                jobs,
                tenant,
                reply,
            } => {
                let mut results = Vec::with_capacity(jobs.len());
                let mut verdict = None;
                for (job, at) in jobs {
                    match submit_one(&mut svc, job, at, tenant) {
                        SubmitOutcome::Decision(result) => results.push(result),
                        SubmitOutcome::BadRequest(detail) => {
                            verdict = Some(Response::Error { detail });
                            break;
                        }
                        SubmitOutcome::Fatal(e) => {
                            let _ = reply.send(Response::Error {
                                detail: format!("scheduling failed: {e}"),
                            });
                            return Err(NetServeError::Scheduling(e));
                        }
                    }
                }
                let _ = reply.send(verdict.unwrap_or(Response::BatchSubmitted { results }));
            }
            Op::Query { job, reply } => {
                let resp = if (job as usize) < num_jobs {
                    Response::JobStatus {
                        outcome: svc.outcome(JobId(job)),
                    }
                } else {
                    Response::Error {
                        detail: format!("job {job} is out of range for the served instance"),
                    }
                };
                let _ = reply.send(resp);
            }
            Op::Stats { reply } => {
                let _ = reply.send(Response::StatsReply(stats_of(&svc, num_jobs)));
            }
            Op::Drain { reply } => {
                match svc.drain() {
                    Ok((report, sink)) => {
                        let _ = reply.send(Response::Drained(Box::new(report.clone())));
                        // Summary already went to subscribers via the sink;
                        // close their sockets so both halves see EOF.
                        close_subscribers(&subs);
                        return Ok((report, sink));
                    }
                    Err(e) => {
                        let _ = reply.send(Response::Error {
                            detail: format!("drain failed: {e}"),
                        });
                        return Err(NetServeError::Scheduling(e));
                    }
                }
            }
        }
    }
    // Every handler hung up without a drain; drain so accepted jobs are
    // never stranded and the report is still recoverable via `wait`.
    svc.drain()
        .map(|(report, sink)| {
            close_subscribers(&subs);
            (report, sink)
        })
        .map_err(NetServeError::Scheduling)
}

/// The worker-side result of one admission offer.
enum SubmitOutcome {
    /// The admission decision (rejections are normal operation).
    Decision(Result<(), mris_types::AdmissionError>),
    /// The request itself was invalid; answered in-band.
    BadRequest(String),
    /// The policy violated a placement rule; ends the serve loop.
    Fatal(mris_types::SchedulingError),
}

fn submit_one<C: Clock, S: TelemetrySink>(
    svc: &mut Service<C, S>,
    job: u32,
    at: Option<Time>,
    tenant: TenantId,
) -> SubmitOutcome {
    let verdict = match at {
        Some(t) => svc.submit_at_as(t, JobId(job), tenant),
        None => svc.submit_as(JobId(job), tenant),
    };
    match verdict {
        Ok(result) => SubmitOutcome::Decision(result),
        Err(OfferError::Scheduling(e)) => SubmitOutcome::Fatal(e),
        Err(invalid) => SubmitOutcome::BadRequest(invalid.to_string()),
    }
}

fn stats_of<C: Clock, S: TelemetrySink>(svc: &Service<C, S>, num_jobs: usize) -> NetStats {
    let mut submitted = 0u64;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut completed = 0u64;
    for i in 0..num_jobs {
        match svc.outcome(JobId(i as u32)) {
            JobOutcome::NotSubmitted => {}
            JobOutcome::Rejected(_) => {
                submitted += 1;
                rejected += 1;
            }
            JobOutcome::Accepted => {
                submitted += 1;
                accepted += 1;
            }
            JobOutcome::Completed => {
                submitted += 1;
                accepted += 1;
                completed += 1;
            }
        }
    }
    NetStats {
        now: svc.now(),
        queue_depth: svc.queue_depth() as u64,
        submitted,
        accepted,
        rejected,
        completed,
        tenants: svc.tenant_stats(),
    }
}

/// Per-connection protocol loop: handshake, then request/response frames
/// until the peer hangs up (or the service drains).
fn handle_connection(
    mut stream: TcpStream,
    fingerprint: u64,
    multi_tenant: bool,
    tokens: Arc<HashMap<String, u32>>,
    op_tx: mpsc::Sender<Op>,
    subs: Subscribers,
) -> Result<(), NetError> {
    let hello = match Hello::read_from(&mut stream) {
        Ok(h) => h,
        Err(e) => {
            mris_obs::counter_add("mris_net_handshake_failures_total", 1);
            return Err(e);
        }
    };
    let refuse = |status: HandshakeStatus, detail: String, stream: &mut TcpStream| {
        mris_obs::counter_add("mris_net_handshake_failures_total", 1);
        let _ = HelloReply {
            status,
            tenant: 0,
            fingerprint,
            detail,
        }
        .write_to(stream);
    };
    if hello.version != NET_VERSION {
        refuse(
            HandshakeStatus::VersionMismatch,
            format!(
                "client speaks MRNP v{}, server speaks v{NET_VERSION}",
                hello.version
            ),
            &mut stream,
        );
        return Ok(());
    }
    if hello.expected_fingerprint != 0 && hello.expected_fingerprint != fingerprint {
        refuse(
            HandshakeStatus::FingerprintMismatch,
            format!(
                "client expects world {:016x}, server serves {fingerprint:016x}",
                hello.expected_fingerprint
            ),
            &mut stream,
        );
        return Ok(());
    }
    let tenant = if multi_tenant {
        match tokens.get(&hello.token) {
            Some(&t) => TenantId(t),
            None => {
                refuse(
                    HandshakeStatus::AuthFailed,
                    "token matches no configured tenant".to_string(),
                    &mut stream,
                );
                return Ok(());
            }
        }
    } else {
        TenantId::DEFAULT
    };
    HelloReply {
        status: HandshakeStatus::Ok,
        tenant: tenant.0,
        fingerprint,
        detail: String::new(),
    }
    .write_to(&mut stream)?;

    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(NetError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // A malformed frame is answered, not fatal: the framing
                // layer already resynchronized on the length prefix.
                let resp = Response::Error {
                    detail: format!("malformed request: {e}"),
                };
                write_frame(&mut stream, &resp.encode())?;
                continue;
            }
        };
        if let Request::Subscribe = request {
            let clone = stream.try_clone().map_err(|e| NetError::Io {
                detail: format!("clone subscriber stream: {e}"),
            })?;
            subs.lock().expect("subscriber lock").push(clone);
            write_frame(&mut stream, &Response::Subscribed.encode())?;
            continue;
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel::<Response>(1);
        let op = match request {
            Request::Submit { job, at } => Op::Submit {
                job,
                at,
                tenant,
                reply: reply_tx,
            },
            Request::SubmitBatch { jobs } => Op::Batch {
                jobs,
                tenant,
                reply: reply_tx,
            },
            Request::Query { job } => Op::Query {
                job,
                reply: reply_tx,
            },
            Request::Stats => Op::Stats { reply: reply_tx },
            Request::Drain => Op::Drain { reply: reply_tx },
            Request::Subscribe => unreachable!("handled above"),
        };
        let response = if op_tx.send(op).is_err() {
            Response::Error {
                detail: "service drained".to_string(),
            }
        } else {
            reply_rx.recv().unwrap_or(Response::Error {
                detail: "service drained".to_string(),
            })
        };
        let done = matches!(response, Response::Drained(_));
        write_frame(&mut stream, &response.encode())?;
        if done {
            return Ok(());
        }
    }
}
