//! TCP front-end for the ID service.
//!
//! [`TcpServer`] speaks **protocol v2**, the `uuidp_client` binary
//! framed protocol, and serves it without any per-connection thread:
//!
//! ```text
//!   accept ──► reactor thread (readiness-driven; owns every conn)
//!                 │  complete frames, dispatched by kind:
//!                 ├── lease/reset ──► the tenant's shard worker,
//!                 │                   which queues the lease reply
//!                 ├── metrics/timeline ──► rendered inline
//!                 └── drain/summary/shutdown/halt ──► control thread
//!                        reply frames are *queued* back to the reactor
//!                        and flushed with vectored writes on write
//!                        readiness, correlation ids intact
//! ```
//!
//! A peer whose first bytes are not a v2 frame (a text client typing
//! `lease 1 10`, say) is cut off by the frame decoder as a framing
//! violation: it gets a fatal error frame, then EOF. The line grammar
//! of [`crate::protocol`] lives on only as the stdin REPL of
//! `uuidp serve`.
//!
//! However many connections are open, the front-end adds two threads
//! to the service's own: the reactor and the control thread. The
//! reactor ([`crate::reactor`]) takes readiness from epoll on Linux
//! (raw syscalls, see [`crate::sys`]) or from a portable poll rotation
//! elsewhere — [`ServerOptions::backend`] picks, and an idle epoll
//! server costs ~zero CPU regardless of connection count. A lease goes
//! from the reactor straight into its tenant's shard queue with a reply
//! continuation, which the shard worker runs once the lease is served:
//! it encodes the reply frame and queues it on the connection. Shard
//! queues are FIFO and tenants are pinned to shards, so each tenant's
//! requests stay ordered end to end (the determinism the differential
//! tests pin), while tenants on different shards are served
//! concurrently even from one multiplexed connection. Drain/summary/
//! shutdown run on a dedicated control thread, behind the service's own
//! shard barrier, so "everything submitted before me" holds. Nothing on
//! the lease path waits on a slow peer: replies queue on the owning
//! connection inside the reactor, and a peer that stops reading is
//! eventually severed (backpressure by disconnect, not by stalling a
//! shared thread). The reactor blocks only while a shard queue is full,
//! and a shard worker never waits on the reactor, so that wait always
//! ends.
//!
//! Shutdown is graceful and client-initiated; its summary frame is
//! projected from the [`ServiceReport`] by [`wire_summary`].
//! [`TcpServer::halt`] remains the in-process crash lever, and the v2
//! `halt` frame is its remote twin; both discard the report and sever
//! every connection mid-command. The durability layer's
//! `halt_after_persists` hook arrives here too: a lease reply flagged
//! `halted` makes the server die *instead of replying* — a crash
//! dropped exactly between the write-ahead persist and the reply, which
//! no external kill can aim that precisely. The shard worker hands that
//! crash through the reactor to the control thread: the crash shuts the
//! service down, which joins the shard worker.
//!
//! The client half is [`uuidp_client::Client`].

use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use uuidp_client::frame::{self, FrameBody};
use uuidp_core::clock;
use uuidp_core::id::IdSpace;
use uuidp_core::lockorder;
use uuidp_obs::{Registry, Stage, TraceRecorder};

use crate::protocol::wire_summary;
use crate::reactor::{NetBackend, Poller, Reactor, ReactorCmd, ReactorHandle, ReactorSeed};
use crate::service::{IdService, LeaseReply, ServiceConfig, ServiceReport};

/// Front-end options, beyond the service's own configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Serve metric scrapes (the metrics and timeline frames). Off, a scrape gets a typed error reply and the
    /// connection stays up — the registry still records either way,
    /// this only gates the *export* surface.
    pub metrics: bool,
    /// Readiness backend for the reactor ([`NetBackend::Auto`] resolves
    /// to epoll where compiled in, the poll rotation elsewhere).
    pub backend: NetBackend,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            metrics: true,
            backend: NetBackend::Auto,
        }
    }
}

/// Shared state of a running [`TcpServer`].
pub(crate) struct ServerState {
    /// The service; taken (→ `None`) by whichever connection shuts down.
    pub(crate) service: RwLock<Option<IdService>>,
    /// Set before the accept loop is woken for the last time.
    pub(crate) stopping: AtomicBool,
    /// The ids of every *live* connection, so a departed connection
    /// can deregister its own entry (otherwise churning clients would
    /// leak an entry each until shutdown). Only ids: the reactor owns
    /// and severs the sockets themselves.
    pub(crate) conns: Mutex<HashSet<u64>>,
    /// Connection id source.
    pub(crate) next_conn: AtomicU64,
    /// The service's universe — validated against every v2 hello.
    pub(crate) space: IdSpace,
    /// The service's metric registry, kept alongside the `RwLock`ed
    /// service so scrapes never contend with the lease path (reading
    /// counters is lock-free; only snapshot assembly walks the map).
    pub(crate) registry: Arc<Registry>,
    /// The service's trace recorder, for the front-end's own lifecycle
    /// stamps (server-demux, reply-queued, reply-sent).
    pub(crate) trace: Arc<TraceRecorder>,
    /// Whether scrapes are served (see [`ServerOptions::metrics`]).
    pub(crate) metrics: bool,
    /// Command surface into the reactor thread (stop paths use it to
    /// bring the reactor down with the sockets).
    pub(crate) reactor: ReactorHandle,
    /// The resolved readiness backend ("epoll" or "poll").
    pub(crate) backend: &'static str,
}

impl ServerState {
    /// Stops the reactor, which severs every connection it owns, and
    /// forgets the registered ids. Every stop path funnels through
    /// here.
    pub(crate) fn sever_all(&self) {
        self.reactor.stop();
        let _order = lockorder::track("server.conns");
        self.conns.lock().expect("conns lock").clear();
    }

    /// Registers a reactor-owned connection, returning its id — and
    /// closes the register/sever race: a shutdown that cleared `conns`
    /// *before* this insert set `stopping` *before* clearing, so the
    /// check below catches exactly the registrations the clear missed.
    /// Returns `None` (connection severed) when the server is stopping.
    pub(crate) fn register(&self, stream: &TcpStream) -> Option<u64> {
        let conn_id = self.next_conn.fetch_add(1, Ordering::SeqCst);
        {
            let _order = lockorder::track("server.conns");
            self.conns.lock().expect("conns lock").insert(conn_id);
        }
        if self.stopping.load(Ordering::SeqCst) {
            self.deregister(conn_id);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return None;
        }
        Some(conn_id)
    }

    pub(crate) fn deregister(&self, conn_id: u64) {
        let _order = lockorder::track("server.conns");
        self.conns.lock().expect("conns lock").remove(&conn_id);
    }

    /// Runs `f` on the service under its read guard; `None` once a stop
    /// path has taken the service.
    fn with_service<T>(&self, f: impl FnOnce(&IdService) -> T) -> Option<T> {
        let _order = lockorder::track("server.service");
        self.service.read().expect("service lock").as_ref().map(f)
    }
}

/// Kills the server from inside: stop accepting, tear the service down
/// **discarding its report**, sever every live connection mid-command,
/// and wake the accept loop. This is the shared crash fiction behind
/// [`TcpServer::halt`], the v2 `halt` frame, and the
/// `halt_after_persists` hook — clients see an abrupt EOF, and what
/// survives is only what the durability layer persisted write-ahead.
///
/// When the service has a durable state dir, the flight recorder dumps
/// its last events + a registry snapshot there first (`reason` names
/// the crash path, `focus_corr` the in-flight request if known), so a
/// post-mortem can see the causal timeline that led into the crash.
fn crash_server(
    state: &ServerState,
    local_addr: SocketAddr,
    reason: &str,
    focus_corr: Option<u64>,
) {
    state.stopping.store(true, Ordering::SeqCst);
    let service = {
        let _order = lockorder::track("server.service");
        state.service.write().expect("service lock").take()
    };
    if let Some(service) = service {
        service.dump_flight(reason, focus_corr);
        drop(service.shutdown());
    }
    state.sever_all();
    let _ = TcpStream::connect(local_addr);
}

/// A running TCP front-end over one [`IdService`].
pub struct TcpServer {
    local_addr: SocketAddr,
    accept: JoinHandle<()>,
    reactor: JoinHandle<()>,
    control: JoinHandle<()>,
    report_rx: Receiver<ServiceReport>,
    state: Arc<ServerState>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), boots
    /// the service, and starts accepting connections with default
    /// [`ServerOptions`] (metrics on, the compiled readiness backend).
    pub fn bind(addr: &str, config: ServiceConfig) -> io::Result<TcpServer> {
        TcpServer::bind_with(addr, config, ServerOptions::default())
    }

    /// [`bind`](TcpServer::bind) with explicit front-end options.
    pub fn bind_with(
        addr: &str,
        config: ServiceConfig,
        options: ServerOptions,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // The readiness backend resolves here so an explicit `Epoll`
        // request fails the bind (typed) where it is not compiled in.
        let poller = Poller::new(options.backend)?;
        let backend = poller.name();
        let (cmd_tx, cmd_rx) = channel::<ReactorCmd>();
        let reactor_handle = ReactorHandle::new(cmd_tx, poller.waker());
        let space = config.space;
        let service = IdService::start(config);
        let registry = service.registry();
        let trace = service.trace();
        let state = Arc::new(ServerState {
            service: RwLock::new(Some(service)),
            stopping: AtomicBool::new(false),
            conns: Mutex::new(HashSet::new()),
            next_conn: AtomicU64::new(0),
            space,
            registry,
            trace,
            metrics: options.metrics,
            reactor: reactor_handle.clone(),
            backend,
        });
        let (report_tx, report_rx) = sync_channel::<ServiceReport>(1);

        // The control lane (drain / summary / shutdown / halt).
        let (ctrl_tx, ctrl_rx) = sync_channel::<CtrlJob>(64);
        let control = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || control_worker(state, ctrl_rx, report_tx, local_addr))
        };
        // The reactor: owns every connection's I/O.
        let reactor = {
            let seed = ReactorSeed {
                state: Arc::clone(&state),
                poller,
                cmd_rx,
                handle: reactor_handle.clone(),
                ctrl_tx,
            };
            // Built on this thread so its metric families are registered
            // before `bind_with` returns — a scraper that races the
            // reactor's first pass still sees `uuidp_net_wakeups_total`.
            let reactor = Reactor::new(seed);
            std::thread::spawn(move || reactor.run())
        };
        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_state.stopping.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match stream {
                    Ok(stream) => stream,
                    Err(_) => {
                        // EMFILE/ENFILE or a transient accept failure:
                        // retrying instantly pegs a core without
                        // freeing the fds the retry needs.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        continue;
                    }
                };
                // Replies are small and latency-bound: Nagle + delayed
                // ACK would add ~40ms to every round trip on loopback.
                let _ = stream.set_nodelay(true);
                // The reactor reads and writes every socket nonblocking.
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                if !reactor_handle.adopt(stream) {
                    break; // reactor is gone; the server is coming down
                }
            }
        });
        Ok(TcpServer {
            local_addr,
            accept,
            reactor,
            control,
            report_rx,
            state,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently registered (live) connections — the reactor
    /// deregisters departed clients, so this does not grow with
    /// connection churn.
    pub fn live_connections(&self) -> usize {
        self.state.conns.lock().expect("conns lock").len()
    }

    /// The service's metric registry — in-process drivers (stress,
    /// fleet, tests) read counters here without a wire scrape.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.state.registry)
    }

    /// The service's trace recorder — in-process drivers stamp
    /// client-side lifecycle stages (client-send, client-recv) into the
    /// same ring the server stamps, so assembled timelines span both
    /// halves of the exchange.
    pub fn trace(&self) -> Arc<TraceRecorder> {
        Arc::clone(&self.state.trace)
    }

    /// The readiness backend the reactor resolved to: `"epoll"` or
    /// `"poll"` (tests and benches gate wakeup assertions on this).
    pub fn net_backend(&self) -> &'static str {
        self.state.backend
    }

    fn join_threads(self) -> Receiver<ServiceReport> {
        let _ = self.accept.join();
        let _ = self.reactor.join();
        let _ = self.control.join();
        self.report_rx
    }

    /// Blocks until a client issues `shutdown`, then returns the
    /// server-side [`ServiceReport`] (`None` only if the accept loop
    /// died without a shutdown, which a well-formed run never does).
    pub fn join(self) -> Option<ServiceReport> {
        self.join_threads().try_recv().ok()
    }

    /// Server-side stop, no client involved: severs every live
    /// connection mid-command, stops the accept loop, and tears the
    /// service down. Clients see an abrupt EOF, exactly as if the
    /// process died.
    ///
    /// This is the crash lever the fleet chaos harness pulls: callers
    /// that *discard* the returned report (and never checkpointed)
    /// keep only what the durability layer's write-ahead records
    /// captured — the fiction of a power cut, at the persistence
    /// boundary where it matters. Returns `None` if a client shutdown
    /// raced this call and won.
    pub fn halt(self) -> Option<ServiceReport> {
        self.state.stopping.store(true, Ordering::SeqCst);
        let service = {
            let _order = lockorder::track("server.service");
            self.state.service.write().expect("service lock").take()
        };
        let report = service.map(|service| {
            // A halt is a staged crash: leave the post-mortem (last
            // trace events + registry snapshot) in the state dir, the
            // same evidence a real power cut would be diagnosed from.
            service.dump_flight("halt", None);
            service.shutdown()
        });
        self.state.sever_all();
        // Unblock the accept loop, then wait out every server thread.
        let _ = TcpStream::connect(self.local_addr);
        let report_rx = self.join_threads();
        report.or_else(|| report_rx.try_recv().ok())
    }
}

// ---------------------------------------------------------------------
// The serving machinery: reactor dispatch, shard replies, control.
// ---------------------------------------------------------------------

/// The shared half of one v2 connection: its registry id, a handle to
/// the reactor that owns the socket, and the trace ring its lease
/// replies are stamped into. A send *queues* the encoded frame on the
/// connection's reply queue — it never touches the socket and never
/// blocks, so a slow peer backpressures only its own queue (severed at
/// the reactor's cap), not the shard worker that served it.
pub(crate) struct V2Conn {
    conn_id: u64,
    reactor: ReactorHandle,
    trace: Arc<TraceRecorder>,
}

impl V2Conn {
    pub(crate) fn new(conn_id: u64, reactor: ReactorHandle, trace: Arc<TraceRecorder>) -> V2Conn {
        V2Conn {
            conn_id,
            reactor,
            trace,
        }
    }

    /// Queues one whole reply frame (flushed by the reactor on write
    /// readiness). Frames are queued whole, so replies from different
    /// threads never interleave mid-frame. Errs only when the reactor
    /// is already gone.
    pub(crate) fn send(&self, corr: u64, body: &FrameBody) -> io::Result<()> {
        self.reactor
            .reply(self.conn_id, frame::encode_frame(corr, body), None, None)
    }

    /// Delivers a lease on the shard worker that served it: queues the
    /// reply frame, stamping `reply-queued` before the enqueue (the
    /// reactor stamps `reply-sent` once the write carrying the frame
    /// completes, so both land before the client can read the reply).
    ///
    /// A lease that tripped the `halt_after_persists` hook gets no
    /// reply: the reactor forwards a crash to the control lane instead.
    /// The crash cannot run here, because it shuts the service down,
    /// which joins this very worker; nor may the worker wait on the
    /// bounded control lane, whose thread may be waiting on this
    /// shard's barrier.
    fn deliver_lease(&self, corr: u64, reply: &LeaseReply) {
        if reply.halted {
            self.reactor.halt(corr);
            return;
        }
        let bytes = frame::encode_frame(corr, &lease_resp(reply));
        self.trace.record(
            corr,
            reply.tenant,
            Stage::ReplyQueued,
            "lease-resp",
            clock::monotonic_ns(),
        );
        let _ = self
            .reactor
            .reply(self.conn_id, bytes, Some((corr, reply.tenant)), None);
    }

    /// Like [`send`](V2Conn::send), but blocks (bounded by `timeout`)
    /// until the frame has fully reached the socket. The shutdown path
    /// uses this for its final summary: sockets are severed right
    /// after, and an unflushed summary would turn the graceful protocol
    /// exit into a broken pipe.
    pub(crate) fn send_flushed(
        &self,
        corr: u64,
        body: &FrameBody,
        timeout: Duration,
    ) -> io::Result<()> {
        let (done, rx) = sync_channel::<io::Result<()>>(1);
        let bytes = frame::encode_frame(corr, body);
        self.reactor.reply(self.conn_id, bytes, None, Some(done))?;
        match rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(_) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "reply flush timed out",
            )),
        }
    }

    pub(crate) fn send_error(&self, corr: u64, message: impl Into<String>) {
        let _ = self.send(
            corr,
            &FrameBody::Error {
                message: message.into(),
            },
        );
    }
}

/// Work routed to the control lane. `Halt` crashes the node: its
/// `focus_corr` is the lease whose reply the `halt_after_persists` hook
/// cut off, or `None` for a remote halt frame.
pub(crate) enum CtrlJob {
    Drain { conn: Arc<V2Conn>, corr: u64 },
    Summary { conn: Arc<V2Conn>, corr: u64 },
    Shutdown { conn: Arc<V2Conn>, corr: u64 },
    Halt { focus_corr: Option<u64> },
}

/// Arcs that fit one v2 lease-reply frame: the fixed fields plus 32
/// bytes per arc must stay under [`frame::MAX_PAYLOAD`], or the encoder
/// would emit a frame the peer must reject as corrupt.
const MAX_REPLY_ARCS: usize = (frame::MAX_PAYLOAD as usize - 64) / 32;

fn lease_resp(reply: &LeaseReply) -> FrameBody {
    // A grant fragmented into more arcs than one frame can carry (only
    // the Random algorithm's point-per-ID leases get near this) must
    // become a *typed* error the client can read — never an over-cap
    // frame that kills the connection as a framing violation.
    if reply.arcs.len() > MAX_REPLY_ARCS {
        return FrameBody::Error {
            message: format!(
                "lease fragmented into {} arcs, more than one v2 frame carries \
                 (max {MAX_REPLY_ARCS}); request fewer IDs per lease",
                reply.arcs.len()
            ),
        };
    }
    FrameBody::LeaseResp {
        tenant: reply.tenant,
        granted: reply.granted,
        arcs: reply
            .arcs
            .iter()
            .map(|a| (a.start.value(), a.len))
            .collect(),
        error: reply.error.as_ref().map(|e| e.to_string()),
    }
}

/// The control lane: shard-barriered drain/summary, graceful shutdown,
/// and the crash lever. One thread, so these serializing operations
/// never run concurrently with each other.
fn control_worker(
    state: Arc<ServerState>,
    rx: Receiver<CtrlJob>,
    report_tx: SyncSender<ServiceReport>,
    local_addr: SocketAddr,
) {
    while let Ok(job) = rx.recv() {
        match job {
            CtrlJob::Drain { conn, corr } => {
                // "Everything submitted before me": every lease and
                // reset dispatched earlier sits in a shard queue ahead
                // of the service's shard barrier.
                if state.with_service(IdService::drain).is_some() {
                    let _ = conn.send(corr, &FrameBody::DrainResp);
                } else {
                    conn.send_error(corr, "shutting down");
                }
            }
            CtrlJob::Summary { conn, corr } => match state.with_service(IdService::summary) {
                Some(report) => {
                    let _ = conn.send(corr, &FrameBody::SummaryResp(wire_summary(&report)));
                }
                None => conn.send_error(corr, "shutting down"),
            },
            CtrlJob::Shutdown { conn, corr } => {
                state.stopping.store(true, Ordering::SeqCst);
                // Take the service (the write lock waits out a reactor
                // mid-dispatch); its shutdown serves every queued lease
                // first, so those replies are queued ahead of the
                // summary.
                let service = {
                    let _order = lockorder::track("server.service");
                    state.service.write().expect("service lock").take()
                };
                match service {
                    Some(service) => {
                        let report = service.shutdown();
                        // Wait for the summary to actually reach the
                        // socket: sever_all is about to cut every
                        // connection, and the requester must read its
                        // final summary before the FIN.
                        let _ = conn.send_flushed(
                            corr,
                            &FrameBody::SummaryResp(wire_summary(&report)),
                            Duration::from_secs(5),
                        );
                        let _ = report_tx.send(report);
                        // Unblock sibling connections and the accept loop.
                        state.sever_all();
                        let _ = TcpStream::connect(local_addr);
                        return;
                    }
                    None => conn.send_error(corr, "shutting down"),
                }
            }
            CtrlJob::Halt { focus_corr } => {
                // The halt hook leaves the flight dump focused on the
                // lease that was cut off mid-exchange.
                let reason = match focus_corr {
                    Some(_) => "halt-after-persists",
                    None => "halt",
                };
                crash_server(&state, local_addr, reason, focus_corr);
                return;
            }
        }
    }
}

/// What [`dispatch_frame`] decided about the connection that sent the
/// frame.
pub(crate) enum Disposition {
    /// Keep serving the connection.
    Keep,
    /// Sever it — after best-effort delivery of `farewell` (correlation
    /// id + message, encoded into a fatal error frame by the reactor),
    /// so protocol violations still get their diagnostic before EOF.
    /// Queued replies are forfeit.
    Sever {
        /// The farewell error to write, if any.
        farewell: Option<(u64, String)>,
    },
}

fn sever_with(corr: u64, message: String) -> Disposition {
    Disposition::Sever {
        farewell: Some((corr, message)),
    }
}

/// Routes one decoded frame (called from the reactor's pump).
pub(crate) fn dispatch_frame(
    shared: &Arc<V2Conn>,
    hello_done: &mut bool,
    f: frame::Frame,
    state: &ServerState,
    ctrl_tx: &SyncSender<CtrlJob>,
) -> Disposition {
    if !*hello_done {
        // Version negotiation: the first frame must be a hello naming a
        // version and universe this server serves.
        return match f.body {
            FrameBody::Hello { version, space } => {
                if version != frame::VERSION {
                    sever_with(
                        0,
                        format!(
                            "unsupported protocol version {version} (this server speaks {})",
                            frame::VERSION
                        ),
                    )
                } else if space != state.space.size() {
                    sever_with(
                        0,
                        format!(
                            "universe mismatch: server is {}, client asked for {space}",
                            state.space.size()
                        ),
                    )
                } else {
                    *hello_done = true;
                    match shared.send(
                        0,
                        &FrameBody::HelloOk {
                            version: frame::VERSION,
                            space: state.space.size(),
                        },
                    ) {
                        Ok(()) => Disposition::Keep,
                        Err(_) => Disposition::Sever { farewell: None },
                    }
                }
            }
            other => sever_with(0, format!("expected hello, got {} frame", other.name())),
        };
    }
    let corr = f.corr;
    match f.body {
        FrameBody::LeaseReq { tenant, count } => {
            state.trace.record(
                corr,
                tenant,
                Stage::ServerDemux,
                "lease-req",
                clock::monotonic_ns(),
            );
            // Built before the service guard is taken: the guard covers
            // only the enqueue, never the continuation's sends.
            let conn = Arc::clone(shared);
            let then = Box::new(move |reply: LeaseReply| conn.deliver_lease(corr, &reply));
            match state.with_service(|s| s.lease_then(tenant, count, corr, then)) {
                Some(true) => {}
                Some(false) => shared.send_error(corr, "shard worker is down"),
                None => shared.send_error(corr, "shutting down"),
            }
            Disposition::Keep
        }
        FrameBody::MetricsReq => {
            // Rendered inline on the reactor thread: a scrape reads the
            // registry lock-free and must never queue behind leases.
            if state.metrics {
                let text = state.registry.snapshot().render_prometheus();
                let _ = shared.send(corr, &FrameBody::MetricsResp { text });
            } else {
                shared.send_error(corr, "metrics are disabled on this listener");
            }
            Disposition::Keep
        }
        FrameBody::TimelineReq { corr: wanted } => {
            // Same inline discipline as a metrics scrape: assembling a
            // span reads the trace ring, never the service, so it must
            // not queue behind leases. An evicted/unsampled span is an
            // empty timeline, not an error — the tail sampler treats
            // it as "story lost to the ring".
            if state.metrics {
                let text = state.trace.timeline(wanted);
                let _ = shared.send(corr, &FrameBody::TimelineResp { text });
            } else {
                shared.send_error(corr, "metrics are disabled on this listener");
            }
            Disposition::Keep
        }
        FrameBody::ResetReq { tenant } => {
            // The reset joins the tenant's shard queue behind its
            // earlier leases; the ack only confirms it is queued.
            match state.with_service(|s| s.reset_tenant(tenant)) {
                Some(true) => {
                    let _ = shared.send(corr, &FrameBody::ResetResp { tenant });
                }
                Some(false) => shared.send_error(corr, "shard worker is down"),
                None => shared.send_error(corr, "shutting down"),
            }
            Disposition::Keep
        }
        FrameBody::DrainReq => {
            let _ = ctrl_tx.send(CtrlJob::Drain {
                conn: Arc::clone(shared),
                corr,
            });
            Disposition::Keep
        }
        FrameBody::SummaryReq => {
            let _ = ctrl_tx.send(CtrlJob::Summary {
                conn: Arc::clone(shared),
                corr,
            });
            Disposition::Keep
        }
        FrameBody::ShutdownReq => {
            let _ = ctrl_tx.send(CtrlJob::Shutdown {
                conn: Arc::clone(shared),
                corr,
            });
            Disposition::Keep
        }
        FrameBody::HaltReq => {
            let _ = ctrl_tx.send(CtrlJob::Halt { focus_corr: None });
            Disposition::Keep
        }
        other => sever_with(
            0,
            format!("unexpected {} frame from a client", other.name()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::io::{Read, Write};
    use uuidp_client::{Client, ClientOptions};
    use uuidp_core::algorithms::AlgorithmKind;
    use uuidp_core::rng::{SeedDomain, SeedTree};

    fn server(bits: u32) -> (TcpServer, IdSpace) {
        let space = IdSpace::with_bits(bits).unwrap();
        let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
        (
            TcpServer::bind("127.0.0.1:0", config).expect("bind loopback"),
            space,
        )
    }

    #[test]
    fn lease_reset_drain_shutdown_over_loopback() {
        let (server, space) = server(40);
        let client = Client::connect(server.local_addr(), space).unwrap();
        let lease = client.lease(3, 100).unwrap();
        assert_eq!(lease.tenant, 3);
        assert_eq!(lease.granted, 100);
        assert_eq!(lease.arcs.iter().map(|a| a.len).sum::<u128>(), 100);
        assert!(lease.error.is_none());
        client.reset(3).unwrap();
        let again = client.lease(3, 50).unwrap();
        assert_eq!(again.granted, 50);
        client.drain().unwrap();
        let summary = client.shutdown().unwrap();
        assert_eq!(summary.issued_ids, 150);
        assert_eq!(summary.leases, 2);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.audit_threads, 1);
        // The server-side report agrees with what crossed the wire.
        let report = server.join().expect("server report");
        assert_eq!(report.issued_ids, 150);
        assert_eq!(report.leases, 2);
        assert_eq!(
            report.audit.counts.duplicate_ids, summary.duplicate_ids,
            "wire summary diverged from the server report"
        );
    }

    #[test]
    fn v2_client_speaks_the_whole_surface() {
        let (server, space) = server(40);
        let client = Client::connect(server.local_addr(), space).unwrap();
        let lease = client.lease(3, 100).unwrap();
        assert_eq!(lease.tenant, 3);
        assert_eq!(lease.granted, 100);
        assert_eq!(lease.arcs.iter().map(|a| a.len).sum::<u128>(), 100);
        client.reset(3).unwrap();
        assert_eq!(client.lease(3, 50).unwrap().granted, 50);
        client.drain().unwrap();
        // The live summary sees everything served so far…
        let live = client.summary().unwrap();
        assert_eq!(live.issued_ids, 150);
        assert_eq!(live.leases, 2);
        assert_eq!(
            live.recorded_ids, 150,
            "drained service must have a caught-up audit"
        );
        // …and the shutdown summary is the same story, finalized.
        let summary = client.shutdown().unwrap();
        assert_eq!(summary.issued_ids, 150);
        assert_eq!(summary.errors, 0);
        let report = server.join().expect("server report");
        assert_eq!(report.issued_ids, 150);
    }

    #[test]
    fn v2_multiplexes_interleaved_tenants_over_one_connection() {
        let (server, space) = server(44);
        let addr = server.local_addr();
        let client = Client::connect(addr, space).unwrap();
        assert_eq!(server.live_connections(), 1);
        let workers: Vec<_> = (0..6u64)
            .map(|tenant| {
                let client = client.clone();
                std::thread::spawn(move || {
                    let mut total = 0u128;
                    for round in 0..20u128 {
                        total += client.lease(tenant, 16 + round).unwrap().granted;
                    }
                    total
                })
            })
            .collect();
        let issued: u128 = workers.into_iter().map(|h| h.join().unwrap()).sum();
        // Still exactly one connection carried all six tenants.
        assert_eq!(server.live_connections(), 1, "multiplexing leaked conns");
        client.drain().unwrap();
        let summary = client.shutdown().unwrap();
        assert_eq!(summary.issued_ids, issued);
        assert_eq!(summary.leases, 120);
        assert_eq!(summary.duplicate_ids, 0, "independent tenants collided");
        assert!(server.join().is_some());
    }

    #[test]
    fn text_clients_are_cut_off_and_v2_keeps_serving() {
        // v2 is the only wire protocol: a text line is a framing
        // violation, answered with a fatal error frame (or bare EOF),
        // never with a lease line.
        let (server, space) = server(44);
        let addr = server.local_addr();
        let mut text = TcpStream::connect(addr).unwrap();
        text.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        text.write_all(b"lease 1 10\n").unwrap();
        let mut reply = Vec::new();
        text.read_to_end(&mut reply)
            .expect("the server closes a text client's connection");
        assert!(
            !String::from_utf8_lossy(&reply).contains("lease tenant="),
            "a text client was served a lease line"
        );
        if !reply.is_empty() {
            let (farewell, _) = frame::decode_frame(&reply)
                .expect("the farewell is one v2 frame")
                .expect("a whole frame");
            assert!(
                matches!(farewell.body, FrameBody::Error { .. }),
                "{farewell:?}"
            );
        }
        // The server is unharmed, and the text line issued nothing.
        let v2 = Client::connect(addr, space).unwrap();
        assert_eq!(v2.lease(0, 20).unwrap().granted, 20);
        v2.drain().unwrap();
        let live = v2.summary().unwrap();
        assert_eq!((live.leases, live.issued_ids), (1, 20));
        v2.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn v2_handshake_rejects_universe_mismatch_with_a_typed_error() {
        let (server, _space) = server(40);
        let wrong = IdSpace::with_bits(20).unwrap();
        let err = Client::connect(server.local_addr(), wrong).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("universe mismatch"), "got: {err}");
        assert!(server.halt().is_some());
    }

    #[test]
    fn concurrent_connections_share_the_service() {
        let (server, space) = server(44);
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4u64)
            .map(|tenant| {
                std::thread::spawn(move || {
                    let client = Client::connect(addr, space).unwrap();
                    let mut total = 0u128;
                    for round in 0..10u128 {
                        total += client.lease(tenant, 32 + round).unwrap().granted;
                    }
                    total
                })
            })
            .collect();
        let issued: u128 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let closer = Client::connect(addr, space).unwrap();
        closer.drain().unwrap();
        let summary = closer.shutdown().unwrap();
        assert_eq!(summary.issued_ids, issued);
        assert_eq!(summary.leases, 40);
        assert_eq!(summary.duplicate_ids, 0, "independent tenants collided");
        assert!(server.join().is_some());
    }

    #[test]
    fn corrupt_v2_frames_sever_the_connection_not_the_server() {
        let (server, space) = server(32);
        let addr = server.local_addr();
        // A raw socket that leads with the v2 magic then turns to soup.
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut garbage = frame::MAGIC.to_vec();
        garbage.extend_from_slice(&[0xFF; 64]);
        raw.write_all(&garbage).unwrap();
        let mut reply = Vec::new();
        let _ = raw.read_to_end(&mut reply); // server severs after the error frame
                                             // The server is still healthy for well-formed clients.
        let client = Client::connect(addr, space).unwrap();
        assert_eq!(client.lease(0, 5).unwrap().granted, 5);
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn departed_connections_are_deregistered() {
        // Churning clients must not accumulate registry entries: after
        // every client leaves, the live-connection registry drains back
        // to zero (the reactor deregisters on EOF).
        let (server, space) = server(32);
        let addr = server.local_addr();
        for tenant in 0..10u64 {
            let client = Client::connect(addr, space).unwrap();
            assert_eq!(client.lease(tenant, 8).unwrap().granted, 8);
            drop(client); // EOF: the demux reaps it
        }
        // The reactor deregisters asynchronously after the EOF.
        for _ in 0..200 {
            if server.live_connections() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(server.live_connections(), 0, "fd registry leaked");
        let closer = Client::connect(addr, space).unwrap();
        assert_eq!(closer.shutdown().unwrap().issued_ids, 80);
        server.join().unwrap();
    }

    #[test]
    fn halt_stops_the_server_without_a_client() {
        let (server, space) = server(36);
        let addr = server.local_addr();
        let client = Client::connect(addr, space).unwrap();
        client.lease(0, 25).unwrap();
        // The crash lever: connected clients see EOF, not a summary.
        let report = server.halt().expect("halt yields the report");
        assert_eq!(report.issued_ids, 25);
        let err = client.lease(0, 1).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
            ),
            "halted server should sever the client, got {err:?}"
        );
        // The port is free again: a new server can bind-and-halt cleanly.
        let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
        let again = TcpServer::bind(&addr.to_string(), config).expect("rebind after halt");
        assert!(again.halt().is_some());
    }

    #[test]
    fn remote_halt_is_the_crash_lever_over_the_wire() {
        let (server, space) = server(36);
        let addr = server.local_addr();
        let client = Client::connect(addr, space).unwrap();
        assert_eq!(client.lease(0, 25).unwrap().granted, 25);
        let watcher = Client::connect(addr, space).unwrap();
        client.halt().unwrap();
        // Siblings are severed, no summary anywhere, and join() has no
        // report to hand back — exactly like an in-process halt.
        let err = watcher.lease(0, 1).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
            ),
            "remote halt should sever siblings, got {err:?}"
        );
        assert!(server.join().is_none(), "halt must not produce a report");
    }

    #[test]
    fn sibling_connections_are_unblocked_by_shutdown() {
        let (server, space) = server(36);
        let addr = server.local_addr();
        let idle = Client::connect(addr, space).unwrap();
        let idle_too = Client::connect(addr, space).unwrap();
        let active = Client::connect(addr, space).unwrap();
        active.lease(0, 10).unwrap();
        active.shutdown().unwrap();
        // The idle connections were severed server-side; the server
        // joins without waiting on them.
        let report = server.join().expect("report despite idle siblings");
        assert_eq!(report.issued_ids, 10);
        drop(idle);
        drop(idle_too);
    }

    #[test]
    fn oversized_lease_replies_become_typed_errors_not_corrupt_frames() {
        let space = IdSpace::with_bits(64).unwrap();
        let arc = uuidp_core::interval::Arc::new(space, uuidp_core::id::Id(0), 1);
        let huge = LeaseReply {
            tenant: 1,
            arcs: vec![arc; MAX_REPLY_ARCS + 1],
            granted: (MAX_REPLY_ARCS + 1) as u128,
            error: None,
            halted: false,
        };
        match lease_resp(&huge) {
            FrameBody::Error { message } => assert!(message.contains("arcs"), "{message}"),
            other => panic!("expected an error frame, got {}", other.name()),
        }
        // A heavily fragmented but frame-sized reply still encodes to a
        // decodable frame.
        let ok = LeaseReply {
            tenant: 1,
            arcs: vec![arc; 10_000],
            granted: 10_000,
            error: None,
            halted: false,
        };
        let bytes = frame::encode_frame(3, &lease_resp(&ok));
        assert!(frame::decode_frame(&bytes).unwrap().is_some());
    }

    #[test]
    fn point_fragmented_random_leases_cross_the_v2_wire() {
        // The Random algorithm leases one arc per ID — the worst-case
        // reply shape for the framed protocol.
        let space = IdSpace::with_bits(24).unwrap();
        let config = ServiceConfig::new(AlgorithmKind::Random, space);
        let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
        let client = Client::connect(server.local_addr(), space).unwrap();
        let lease = client.lease(0, 3000).unwrap();
        assert_eq!(lease.granted, 3000);
        assert!(
            lease.arcs.len() >= 2900,
            "random leases should fragment per ID, got {} arcs",
            lease.arcs.len()
        );
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn metrics_scrape_works_over_both_protocols() {
        let (server, space) = server(40);
        let client = Client::connect(server.local_addr(), space).unwrap();
        assert_eq!(client.lease(2, 64).unwrap().granted, 64);
        let text = client.metrics().unwrap();
        let families = uuidp_obs::parse_exposition(&text);
        assert_eq!(
            families.get("uuidp_ids_issued_total"),
            Some(&64.0),
            "{text}"
        );
        assert_eq!(families.get("uuidp_leases_total"), Some(&1.0));
        assert!(
            families.contains_key("uuidp_lease_latency_ns_count"),
            "histogram family missing from scrape:\n{text}"
        );
        // Scrapes are monotone: more work, bigger counters.
        assert_eq!(client.lease(2, 36).unwrap().granted, 36);
        let again = uuidp_obs::parse_exposition(&client.metrics().unwrap());
        assert_eq!(again.get("uuidp_ids_issued_total"), Some(&100.0));
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn timeline_fetch_assembles_a_lease_span_over_v2() {
        let (server, space) = server(40);
        let client = Client::connect(server.local_addr(), space).unwrap();
        let (lease, corr) = client.lease_with_corr(5, 16).unwrap();
        assert_eq!(lease.granted, 16);
        assert_ne!(corr, 0, "v2 leases travel under a real corr id");
        let span = client.timeline(corr).unwrap();
        assert!(span.contains(&format!("span corr={corr}")), "{span}");
        assert!(span.contains("server-demux"), "{span}");
        assert!(span.contains("worker-emit"), "{span}");
        assert!(span.contains("reply-sent"), "{span}");
        // An id nothing ever traced comes back as an empty story.
        assert_eq!(client.timeline(u64::MAX).unwrap(), "");
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    /// The offset of `stage`'s first stamp in a rendered span timeline.
    fn stage_offset_ns(span: &str, stage: &str) -> u64 {
        span.lines()
            .find_map(|line| {
                let (at, rest) = line.trim_start().strip_prefix('+')?.split_once("ns")?;
                (rest.split_whitespace().next() == Some(stage))
                    .then(|| at.trim().parse().expect("span offset"))
            })
            .unwrap_or_else(|| panic!("no {stage} stamp in\n{span}"))
    }

    #[test]
    fn lease_spans_stamp_reply_queued_no_later_than_reply_sent() {
        // The shard worker stamps reply-queued before it enqueues the
        // reply; the reactor stamps reply-sent after the write carrying
        // the frame returns. Both precede the client's read.
        let (server, space) = server(40);
        let client = Client::connect(server.local_addr(), space).unwrap();
        for tenant in 0..4u64 {
            let (lease, corr) = client.lease_with_corr(tenant, 16).unwrap();
            assert_eq!(lease.granted, 16);
            let span = client.timeline(corr).unwrap();
            let queued = stage_offset_ns(&span, "reply-queued");
            let sent = stage_offset_ns(&span, "reply-sent");
            assert!(queued <= sent, "reply sent before it was queued:\n{span}");
            assert!(stage_offset_ns(&span, "worker-emit") <= queued, "{span}");
        }
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn pipelined_frames_on_one_connection_keep_per_tenant_order() {
        // Every request is written before any reply is read, so the
        // reactor dispatches all five back to back. Only the tenant's
        // FIFO shard queue orders lease → reset → lease, and only the
        // shard barrier behind drain and summary makes them wait for
        // both leases.
        let space = IdSpace::with_bits(40).unwrap();
        let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
        let master_seed = config.master_seed;
        let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        frame::write_frame(
            &mut conn,
            0,
            &FrameBody::Hello {
                version: frame::VERSION,
                space: space.size(),
            },
        )
        .unwrap();
        let hello = frame::read_frame(&mut conn).unwrap();
        assert!(matches!(hello.body, FrameBody::HelloOk { .. }), "{hello:?}");
        let tenant = 3;
        let requests = [
            FrameBody::LeaseReq { tenant, count: 64 },
            FrameBody::ResetReq { tenant },
            FrameBody::LeaseReq { tenant, count: 64 },
            FrameBody::DrainReq,
            FrameBody::SummaryReq,
        ];
        for (corr, body) in (1u64..).zip(&requests) {
            frame::write_frame(&mut conn, corr, body).unwrap();
        }
        let mut replies = HashMap::new();
        for _ in 0..requests.len() {
            let reply = frame::read_frame(&mut conn).unwrap();
            replies.insert(reply.corr, reply.body);
        }
        assert!(
            matches!(replies[&2], FrameBody::ResetResp { tenant: 3 }),
            "{:?}",
            replies[&2]
        );
        assert!(
            matches!(replies[&4], FrameBody::DrainResp),
            "{:?}",
            replies[&4]
        );
        // The second lease is the first 64 IDs of the tenant's epoch-1
        // stream: the reset was served between the two leases.
        let FrameBody::LeaseResp {
            granted,
            arcs,
            error,
            ..
        } = &replies[&3]
        else {
            panic!("expected a lease reply, got {:?}", replies[&3]);
        };
        assert_eq!((*granted, error), (64, &None));
        let ids: Vec<u128> = arcs
            .iter()
            .flat_map(|&(start, len)| (0..len).map(move |i| (start + i) % space.size()))
            .collect();
        let mut reference = AlgorithmKind::Cluster.build(space).spawn(
            SeedTree::new(master_seed)
                .trial(1)
                .seed(SeedDomain::Instance(tenant)),
        );
        let expected: Vec<u128> = (0..64).map(|_| reference.next_id().unwrap().0).collect();
        assert_eq!(ids, expected, "the second lease is not epoch 1's start");
        let FrameBody::SummaryResp(summary) = &replies[&5] else {
            panic!("expected a summary, got {:?}", replies[&5]);
        };
        assert_eq!((summary.leases, summary.issued_ids), (2, 128));
        drop(conn);
        assert!(server.halt().is_some());
    }

    #[test]
    fn shutdown_mid_burst_on_a_one_slot_shard_queue_finishes() {
        // One shard with a one-slot queue: the reactor blocks on the
        // full queue while holding the service read guard, and the shard
        // worker's continuations queue replies back to that reactor. A
        // shutdown landing mid-burst needs the write guard. Every party
        // must still finish.
        let (done_tx, done_rx) = channel();
        std::thread::spawn(move || {
            let space = IdSpace::with_bits(40).unwrap();
            let mut config = ServiceConfig::new(AlgorithmKind::Cluster, space);
            config.shards = 1;
            config.queue_depth = 1;
            let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
            let client = Client::connect(server.local_addr(), space).unwrap();
            let (acked_tx, acked_rx) = channel();
            let burst: Vec<_> = (0..8u64)
                .map(|tenant| {
                    let client = client.clone();
                    let acked_tx = acked_tx.clone();
                    std::thread::spawn(move || {
                        let mut granted = 0u128;
                        while let Ok(lease) = client.lease(tenant, 16) {
                            granted += lease.granted;
                            let _ = acked_tx.send(());
                        }
                        granted
                    })
                })
                .collect();
            // Mid-burst: 64 leases are answered, and the rest keep coming.
            for _ in 0..64 {
                acked_rx.recv().unwrap();
            }
            let summary = client.shutdown().expect("shutdown summary");
            let acked_ids: u128 = burst.into_iter().map(|h| h.join().unwrap()).sum();
            let report = server.join().expect("server report");
            let _ = done_tx.send((summary.issued_ids, acked_ids, report.issued_ids));
        });
        let (summary_ids, acked_ids, report_ids) = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("shutdown mid-burst deadlocked");
        assert_eq!(summary_ids, report_ids);
        assert!(
            acked_ids <= report_ids,
            "clients hold {acked_ids} IDs, the report counts {report_ids}"
        );
        assert!(acked_ids >= 64 * 16);
    }

    #[test]
    fn disabled_metrics_surface_reports_typed_errors_on_both_protocols() {
        let space = IdSpace::with_bits(40).unwrap();
        let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
        let options = ServerOptions {
            metrics: false,
            ..ServerOptions::default()
        };
        let server = TcpServer::bind_with("127.0.0.1:0", config, options).unwrap();
        let addr = server.local_addr();
        let v2 = Client::connect(addr, space).unwrap();
        let err = v2.metrics().unwrap_err();
        assert!(err.to_string().contains("disabled"), "got: {err}");
        let err = v2.timeline(1).unwrap_err();
        assert!(err.to_string().contains("disabled"), "got: {err}");
        // The connection survived both refusals.
        assert_eq!(v2.lease(1, 5).unwrap().granted, 5);
        v2.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn flooding_v2_peer_does_not_starve_its_siblings() {
        // Regression: the old pump read one connection until
        // WouldBlock, so a firehosing peer monopolized the demux
        // thread. The reactor caps bytes and frames per connection per
        // pass; a latency probe sharing the reactor with a flooder
        // must still see bounded round trips.
        let (server, space) = server(40);
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        // The flooder: a raw v2 socket blasting pipelined single-ID
        // leases, replies discarded by a second thread so the server
        // never has to apply backpressure.
        let mut flood = TcpStream::connect(addr).unwrap();
        flood.set_nodelay(true).unwrap();
        frame::write_frame(
            &mut flood,
            0,
            &FrameBody::Hello {
                version: frame::VERSION,
                space: space.size(),
            },
        )
        .unwrap();
        let hello = frame::read_frame(&mut flood).unwrap();
        assert!(matches!(hello.body, FrameBody::HelloOk { .. }));
        let flood_ctl = flood.try_clone().unwrap();
        let mut sink = flood.try_clone().unwrap();
        let drain_stop = Arc::clone(&stop);
        let drain = std::thread::spawn(move || {
            while !drain_stop.load(Ordering::SeqCst) && frame::read_frame(&mut sink).is_ok() {}
        });
        let write_stop = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let mut corr = 1u64;
            while !write_stop.load(Ordering::SeqCst) {
                let mut batch = Vec::new();
                for _ in 0..64 {
                    batch.extend_from_slice(&frame::encode_frame(
                        corr,
                        &FrameBody::LeaseReq {
                            tenant: 0,
                            count: 1,
                        },
                    ));
                    corr += 1;
                }
                if flood.write_all(&batch).is_err() {
                    break;
                }
            }
        });
        // The probe: an ordinary v2 client on another tenant (another
        // pool worker too), timing full round trips under the flood.
        let probe = Client::connect(addr, space).unwrap();
        let mut worst = Duration::ZERO;
        for _ in 0..100 {
            let start = std::time::Instant::now();
            assert_eq!(probe.lease(97, 1).unwrap().granted, 1);
            worst = worst.max(start.elapsed());
        }
        stop.store(true, Ordering::SeqCst);
        let _ = flood_ctl.shutdown(std::net::Shutdown::Both);
        writer.join().unwrap();
        drain.join().unwrap();
        assert!(
            worst < Duration::from_millis(500),
            "probe starved behind the flooder: worst lease took {worst:?}"
        );
        let ctl = Client::connect(addr, space).unwrap();
        ctl.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn rotation_backend_serves_both_protocols() {
        // The portable fallback (and the `poll-fallback` build's only
        // backend) must carry real traffic, not just compile.
        let space = IdSpace::with_bits(40).unwrap();
        let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
        let options = ServerOptions {
            backend: NetBackend::Poll,
            ..ServerOptions::default()
        };
        let server = TcpServer::bind_with("127.0.0.1:0", config, options).unwrap();
        assert_eq!(server.net_backend(), "poll");
        let first = Client::connect(server.local_addr(), space).unwrap();
        assert_eq!(first.lease(3, 100).unwrap().granted, 100);
        let second = Client::connect(server.local_addr(), space).unwrap();
        assert_eq!(second.lease(4, 50).unwrap().granted, 50);
        drop(first);
        let summary = second.shutdown().unwrap();
        assert_eq!(summary.issued_ids, 150);
        server.join().unwrap();
    }

    #[test]
    fn auto_backend_resolves_to_the_compiled_poller() {
        let (server, space) = server(40);
        let expected = if NetBackend::epoll_compiled() {
            "epoll"
        } else {
            "poll"
        };
        assert_eq!(server.net_backend(), expected);
        let client = Client::connect(server.local_addr(), space).unwrap();
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn timeout_bounded_clients_work_against_the_reactor() {
        // Bounded dial, handshake and reply reads: the reactor's
        // queued replies must land well inside the bound.
        let (server, space) = server(40);
        let options = ClientOptions::bounded(Duration::from_secs(5));
        let client = Client::connect_with(server.local_addr(), space, options).unwrap();
        assert_eq!(client.lease(7, 32).unwrap().granted, 32);
        let summary = client.shutdown().unwrap();
        assert_eq!(summary.issued_ids, 32);
        server.join().unwrap();
    }

    #[test]
    fn reset_on_a_dead_shard_gets_a_typed_error() {
        // A directory where tenant 1's snapshot temp file belongs makes
        // its first write-ahead persist panic shard 1's worker. A reset
        // routed there must come back as an error frame, and shard 0
        // must keep serving: one dead shard never takes the reactor
        // (and with it every connection) down.
        let dir =
            std::env::temp_dir().join(format!("uuidp-net-test-{}-dead-shard", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let space = IdSpace::with_bits(40).unwrap();
        let mut config = ServiceConfig::new(AlgorithmKind::Cluster, space);
        config.shards = 2;
        config.durability = Some(crate::service::DurabilityConfig::new(&dir));
        let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
        std::fs::create_dir_all(dir.join("tenant-1.snap.tmp")).unwrap();
        let options = ClientOptions {
            request_timeout: Some(Duration::from_secs(2)),
            ..ClientOptions::default()
        };
        let doomed = Client::connect_with(server.local_addr(), space, options).unwrap();
        // The lease that kills the shard gets no reply at all.
        assert!(doomed.lease(1, 8).is_err());
        let client = Client::connect(server.local_addr(), space).unwrap();
        let err = client.reset(1).unwrap_err();
        assert!(err.to_string().contains("shard worker is down"), "{err}");
        assert_eq!(client.lease(0, 8).unwrap().granted, 8);
        // Shutting down would join the panicked worker, which typed
        // fail-stop does not cover yet; the server is left to the
        // process exit.
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
