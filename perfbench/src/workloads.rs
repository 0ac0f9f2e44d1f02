//! The three workloads: boot, closed-loop drive, audit catch-up, checks.
//!
//! Every workload runs in rounds. A round boots a fresh deployment,
//! drives one seeded operation sequence through it, waits for the
//! audit to catch up, checks the outputs and tears everything down.
//! Rounds repeat until the run's time is spent, so every round issues
//! the same number of IDs: the audit's cost per lease grows with the
//! IDs it already holds, and a run that issued more would be slower
//! per lease for that reason alone.

use std::path::{Path, PathBuf};

use uuidp_client::{Client, ProtoVersion};
use uuidp_core::algorithms::AlgorithmKind;
use uuidp_core::clock::monotonic_ns;
use uuidp_core::id::IdSpace;
use uuidp_core::interval::Arc;
use uuidp_fleet::prelude::{Fleet, Router};
use uuidp_obs::{MetricValue, Registry};
use uuidp_service::net::TcpServer;
use uuidp_service::service::{IdService, ServiceConfig};

use crate::gen::{self, Op};
use crate::{record, stats};

/// Bits of the ID universe every workload leases from.
pub const SPACE_BITS: u32 = 64;
/// Stripes of every audit (service and router).
pub const AUDIT_STRIPES: usize = 16;
/// Write-ahead reservation of the durable fleet: the shipped default.
pub const RESERVATION: u128 = 4096;
/// Nodes of the durable fleet: two, so its router holds two connections.
pub const NODES: usize = 2;
/// Operations in one round of the wire workloads.
pub const ROUND_OPS: usize = 4096;
/// Leases in one in-process round: the service's default audit queue
/// depth, so the lease loop never waits on a full audit channel. With
/// 4096, three quarters of the leases waited on it, and the lease
/// median landed on the ramp between queued and back-pressured leases,
/// moving by a third from run to run.
pub const INPROC_ROUND_OPS: usize = 1024;
/// Scrapes of the quiesced deployment after each round of a workload
/// whose mix has none, so that `scrape_p50_us` exists on every workload
/// without touching its measured load.
pub const IDLE_SCRAPES: usize = 32;
/// A family every scrape must expose.
const SCRAPE_PROBE: &str = "uuidp_leases_total";

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `IdService`, Random, 64-ID leases, 2 load threads.
    InprocRandomAudit,
    /// One `TcpServer`, Cluster★, 1024-ID leases, 2 threads on one v2
    /// connection, every 50th operation a scrape.
    LoopbackMixed,
    /// A 2-node durable fleet, Cluster★, 1024-ID leases, 1 thread
    /// through a v2 router.
    FleetDurable,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::InprocRandomAudit,
        Workload::LoopbackMixed,
        Workload::FleetDurable,
    ];

    /// Looks a workload up by its name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InprocRandomAudit => "inproc_random_audit",
            Workload::LoopbackMixed => "loopback_mixed",
            Workload::FleetDurable => "fleet_durable",
        }
    }

    /// The algorithm every tenant runs.
    pub fn kind(self) -> AlgorithmKind {
        match self {
            Workload::InprocRandomAudit => AlgorithmKind::Random,
            _ => AlgorithmKind::ClusterStar,
        }
    }

    /// IDs per lease.
    pub fn lease_ids(self) -> u128 {
        match self {
            Workload::InprocRandomAudit => 64,
            _ => 1024,
        }
    }

    /// Closed-loop load threads.
    pub fn threads(self) -> usize {
        match self {
            Workload::FleetDurable => 1,
            _ => 2,
        }
    }

    /// Every how many operations one is a scrape.
    pub fn scrape_every(self) -> Option<usize> {
        match self {
            Workload::LoopbackMixed => Some(50),
            _ => None,
        }
    }

    /// Whether tenants persist write-ahead reservations.
    pub fn durable(self) -> bool {
        self == Workload::FleetDurable
    }

    /// The operation sequence of round `round`.
    pub fn ops(self, seed: u64, round: u64) -> Vec<Op> {
        let ops = match self {
            Workload::InprocRandomAudit => INPROC_ROUND_OPS,
            _ => ROUND_OPS,
        };
        gen::round_ops(seed, round, ops, self.scrape_every())
    }

    /// The service configuration of round `round` (durability, where
    /// the workload has it, is added by whoever owns the state dir).
    pub fn config(self, seed: u64, round: u64) -> ServiceConfig {
        let mut config = ServiceConfig::new(self.kind(), space());
        config.audit_stripes = AUDIT_STRIPES;
        config.master_seed = gen::master_seed(seed, round);
        config
    }
}

/// The universe every workload leases from.
pub fn space() -> IdSpace {
    IdSpace::with_bits(SPACE_BITS).expect("a 64-bit universe is valid")
}

/// Where durable state lives: inside the benchmark's own directory.
pub fn state_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("state")
        .join(format!("{}-{tag}", std::process::id()))
}

/// A lease as the benchmark checks it.
pub struct Granted {
    /// IDs the reply says it granted.
    pub granted: u128,
    /// IDs its arcs actually cover.
    pub arc_ids: u128,
    /// The generator's error, if any.
    pub error: Option<String>,
}

impl Granted {
    /// A lease from its arcs alone (its grant is their sum).
    pub fn of_arcs(arcs: &[Arc]) -> Granted {
        let ids = arcs.iter().map(|a| a.len).sum();
        Granted {
            granted: ids,
            arc_ids: ids,
            error: None,
        }
    }
}

/// What one load thread saw.
#[derive(Default)]
pub struct Drive {
    /// Per-lease latency, ns.
    pub lease_ns: Vec<u64>,
    /// Per-scrape latency, ns.
    pub scrape_ns: Vec<u64>,
    /// `(start, end)` stamps of every operation, in issue order; kept
    /// only by a traced run.
    pub spans: Vec<(u64, u64)>,
    /// IDs granted to this thread.
    pub granted: u128,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Start of the first operation.
    pub first_ns: u64,
    /// End of the last operation.
    pub last_ns: u64,
    /// Failed correctness checks.
    pub violations: Vec<String>,
}

/// Issues `ops` in a closed loop: each operation only after the
/// previous one's reply, timing each and checking each reply.
pub fn drive(
    ops: &[Op],
    count: u128,
    traced: bool,
    mut lease: impl FnMut(u64) -> Result<Granted, String>,
    mut scrape: impl FnMut() -> Result<String, String>,
) -> Drive {
    let mut d = Drive {
        lease_ns: Vec::with_capacity(ops.len()),
        spans: Vec::with_capacity(if traced { ops.len() } else { 0 }),
        first_ns: monotonic_ns(),
        ..Drive::default()
    };
    for &op in ops {
        d.attempted += 1;
        let t0 = monotonic_ns();
        match op {
            Op::Lease { tenant } => {
                let reply = lease(tenant);
                let t1 = monotonic_ns();
                match reply {
                    Ok(g) => {
                        d.lease_ns.push(t1 - t0);
                        d.granted += g.granted;
                        if g.granted != count || g.arc_ids != count || g.error.is_some() {
                            d.violations.push(format!(
                                "tenant {tenant}: asked {count}, granted {}, arcs cover {}, error {:?}",
                                g.granted, g.arc_ids, g.error
                            ));
                        }
                    }
                    Err(_) => d.failed += 1,
                }
                if traced {
                    d.spans.push((t0, t1));
                }
            }
            Op::Scrape => {
                let reply = scrape();
                let t1 = monotonic_ns();
                match reply {
                    Ok(text) => {
                        d.scrape_ns.push(t1 - t0);
                        if !text.contains(SCRAPE_PROBE) {
                            d.violations.push(format!("scrape lacks {SCRAPE_PROBE}"));
                        }
                    }
                    Err(_) => d.failed += 1,
                }
            }
        }
    }
    d.last_ns = monotonic_ns();
    d
}

/// Runs `per_thread` on one scoped thread per part and joins them all.
pub fn on_threads<T, R, F>(parts: &[Vec<T>], per_thread: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .iter()
            .map(|part| {
                let per_thread = &per_thread;
                s.spawn(move || per_thread(part))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// Layer counters read from a deployment's registries after its load.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// `uuidp_audit_records_total`.
    pub audit_records: f64,
    /// `uuidp_persists_total`.
    pub persists: f64,
    /// `uuidp_net_wakeups_total`.
    pub wakeups: f64,
    /// Sum of `uuidp_net_replies_per_syscall`.
    pub replies_sum: f64,
    /// Samples of `uuidp_net_replies_per_syscall`.
    pub replies_count: f64,
    /// Router retries (`fault_counters().retries`).
    pub retries: f64,
}

impl Counters {
    fn add_registry(&mut self, registry: &Registry) {
        let snap = registry.snapshot();
        let scalar = |name: &str| snap.scalar(name).unwrap_or(0.0);
        self.audit_records += scalar("uuidp_audit_records_total");
        self.persists += scalar("uuidp_persists_total");
        self.wakeups += scalar("uuidp_net_wakeups_total");
        if let Some(MetricValue::Histogram(h)) = snap.metrics.get("uuidp_net_replies_per_syscall") {
            // The histogram stores plain counts in its `_ns` fields.
            self.replies_sum += h.sum_ns() as f64;
            self.replies_count += h.count() as f64;
        }
    }
}

/// One round's measurements. The per-operation samples live only
/// until [`Round::finish`] reduces them to this round's percentiles, so
/// the benchmark's own memory does not grow with the rounds it runs.
#[derive(Default)]
pub struct Round {
    /// Boot to first request ready: service, server or fleet start,
    /// dial and handshake.
    pub setup_ns: u64,
    /// Leases completed.
    pub leases: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// First request to last reply, ns.
    pub load_ns: u64,
    /// First request to the audit holding every issued ID, ns.
    pub audited_ns: u64,
    /// IDs issued.
    pub issued_ids: u128,
    /// Duration of the summary call(s) after the last lease, ns.
    pub catchup_ns: u64,
    /// Layer counters.
    pub counters: Counters,
    /// Bytes of one scrape.
    pub scrape_bytes: usize,
    /// Median lease latency, ns.
    pub lease_p50_ns: u64,
    /// p99 lease latency, ns.
    pub lease_p99_ns: u64,
    /// Median scrape latency, ns.
    pub scrape_p50_ns: u64,
    /// Traced runs only: median lease span, ns.
    pub span_p50_ns: u64,
    /// Traced runs only: median in-process render of the loaded
    /// registry, ns.
    pub render_p50_ns: u64,
    /// Share of the machine's CPU time the hypervisor took (steal)
    /// while the round's load and catch-up ran.
    pub steal_share: f64,
    /// Failed correctness checks.
    pub violations: Vec<String>,
    lease_ns: Vec<u64>,
    scrape_ns: Vec<u64>,
    span_ns: Vec<u64>,
    render_ns: Vec<u64>,
}

impl Round {
    fn absorb(&mut self, drives: Vec<Drive>) -> (u64, u64, u128) {
        let first = drives.iter().map(|d| d.first_ns).min().unwrap_or(0);
        let last = drives.iter().map(|d| d.last_ns).max().unwrap_or(0);
        let mut granted = 0;
        for d in drives {
            self.lease_ns.extend(d.lease_ns);
            self.scrape_ns.extend(d.scrape_ns);
            self.attempted += d.attempted;
            self.failed += d.failed;
            self.violations.extend(d.violations);
            granted += d.granted;
            self.span_ns.extend(d.spans.iter().map(|(s, e)| e - s));
        }
        self.load_ns = last - first;
        (first, last, granted)
    }

    /// Reduces the round's samples to its percentiles.
    fn finish(mut self) -> Result<Round, String> {
        let p = |v: &mut Vec<u64>, q: f64| -> Result<u64, String> {
            v.sort_unstable();
            stats::percentile(v, q)
        };
        self.leases = self.lease_ns.len() as u64;
        self.lease_p50_ns = p(&mut self.lease_ns, 0.5)?;
        self.lease_p99_ns = p(&mut self.lease_ns, 0.99)?;
        self.scrape_p50_ns = p(&mut self.scrape_ns, 0.5)?;
        if !self.span_ns.is_empty() {
            self.span_p50_ns = p(&mut self.span_ns, 0.5)?;
            self.render_p50_ns = p(&mut self.render_ns, 0.5)?;
        }
        self.lease_ns = Vec::new();
        self.scrape_ns = Vec::new();
        self.span_ns = Vec::new();
        self.render_ns = Vec::new();
        Ok(self)
    }

    /// Notes the steal since `since`, a [`record::cpu_jiffies`] reading
    /// taken when the round's load began.
    fn note_steal(&mut self, since: Option<(u64, u64)>) {
        self.steal_share = record::steal_since(since).unwrap_or(0.0);
    }

    fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(format!("{what}: {}", detail()));
        }
    }

    /// Checks a summary barrier: no duplicates, and the audit holds
    /// every issued ID.
    fn check_audit(&mut self, who: &str, duplicates: u128, recorded: u128, issued: u128) {
        self.check(who, duplicates == 0, || {
            format!("{duplicates} duplicate IDs")
        });
        self.check(who, recorded == issued, || {
            format!("audit recorded {recorded} of {issued} issued IDs")
        });
    }

    fn render(&mut self, registries: &[std::sync::Arc<Registry>], traced: bool) {
        if !traced {
            return;
        }
        for i in 0..IDLE_SCRAPES {
            let t0 = monotonic_ns();
            let text = registries[i % registries.len()]
                .snapshot()
                .render_prometheus();
            self.render_ns.push(monotonic_ns() - t0);
            std::hint::black_box(text);
        }
    }
}

/// Runs round `round` of `w`.
pub fn run_round(w: Workload, seed: u64, round: u64, traced: bool) -> Result<Round, String> {
    let ops = w.ops(seed, round);
    match w {
        Workload::InprocRandomAudit => inproc_round(w, seed, round, &ops, traced),
        Workload::LoopbackMixed => loopback_round(w, seed, round, &ops, traced),
        Workload::FleetDurable => fleet_round(w, seed, round, &ops, traced),
    }?
    .finish()
}

fn inproc_round(
    w: Workload,
    seed: u64,
    round: u64,
    ops: &[Op],
    traced: bool,
) -> Result<Round, String> {
    let mut r = Round::default();
    let t0 = monotonic_ns();
    let svc = IdService::start(w.config(seed, round));
    r.setup_ns = monotonic_ns() - t0;
    let count = w.lease_ids();
    let jiffies = record::cpu_jiffies();
    let drives = on_threads(&gen::split(ops, w.threads()), |part| {
        drive(
            part,
            count,
            traced,
            |tenant| {
                let reply = svc.lease(tenant, count);
                Ok(Granted {
                    granted: reply.granted,
                    arc_ids: reply.arcs.iter().map(|a| a.len).sum(),
                    error: reply.error.map(|e| e.to_string()),
                })
            },
            || Err("no scrapes in this mix".into()),
        )
    });
    let (first, _, granted) = r.absorb(drives);
    let c0 = monotonic_ns();
    let summary = svc.summary();
    let c1 = monotonic_ns();
    r.note_steal(jiffies);
    r.catchup_ns = c1 - c0;
    r.audited_ns = c1 - first;
    r.issued_ids = summary.issued_ids;
    let counts = summary.audit.counts;
    r.check_audit(
        "IdService::summary",
        counts.duplicate_ids,
        counts.recorded_ids,
        summary.issued_ids,
    );
    r.check("IdService::summary", summary.issued_ids == granted, || {
        format!("issued {} but clients got {granted}", summary.issued_ids)
    });
    // No wire here: a scrape is the registry render itself.
    for _ in 0..IDLE_SCRAPES {
        let s0 = monotonic_ns();
        let text = svc.registry().snapshot().render_prometheus();
        r.scrape_ns.push(monotonic_ns() - s0);
        r.check("render", text.contains(SCRAPE_PROBE), || {
            format!("exposition lacks {SCRAPE_PROBE}")
        });
        r.scrape_bytes = text.len();
    }
    r.counters.add_registry(&svc.registry());
    r.render(&[svc.registry()], traced);
    let report = svc.shutdown();
    r.check(
        "IdService::shutdown",
        report.audit.counts.duplicate_ids == 0,
        || format!("{} duplicate IDs", report.audit.counts.duplicate_ids),
    );
    Ok(r)
}

fn loopback_round(
    w: Workload,
    seed: u64,
    round: u64,
    ops: &[Op],
    traced: bool,
) -> Result<Round, String> {
    let mut r = Round::default();
    let t0 = monotonic_ns();
    let server =
        TcpServer::bind("127.0.0.1:0", w.config(seed, round)).map_err(|e| format!("bind: {e}"))?;
    let client = Client::connect(server.local_addr(), space()).map_err(|e| format!("dial: {e}"))?;
    r.setup_ns = monotonic_ns() - t0;
    let count = w.lease_ids();
    let jiffies = record::cpu_jiffies();
    let drives = on_threads(&gen::split(ops, w.threads()), |part| {
        drive(
            part,
            count,
            traced,
            |tenant| {
                client
                    .lease(tenant, count)
                    .map(|l| Granted {
                        granted: l.granted,
                        arc_ids: l.arcs.iter().map(|a| a.len).sum(),
                        error: l.error,
                    })
                    .map_err(|e| e.to_string())
            },
            || client.metrics().map_err(|e| e.to_string()),
        )
    });
    let (first, _, granted) = r.absorb(drives);
    let c0 = monotonic_ns();
    let summary = client.summary().map_err(|e| format!("summary: {e}"))?;
    let c1 = monotonic_ns();
    r.note_steal(jiffies);
    r.catchup_ns = c1 - c0;
    r.audited_ns = c1 - first;
    r.issued_ids = summary.issued_ids;
    r.check_audit(
        "Client::summary",
        summary.duplicate_ids,
        summary.recorded_ids,
        summary.issued_ids,
    );
    if r.failed == 0 {
        r.check("Client::summary", summary.issued_ids == granted, || {
            format!("issued {} but clients got {granted}", summary.issued_ids)
        });
    }
    r.scrape_bytes = client.metrics().map_err(|e| format!("scrape: {e}"))?.len();
    r.counters.add_registry(&server.registry());
    r.render(&[server.registry()], traced);
    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    server.join();
    Ok(r)
}

fn fleet_round(
    w: Workload,
    seed: u64,
    round: u64,
    ops: &[Op],
    traced: bool,
) -> Result<Round, String> {
    let mut r = Round::default();
    let dir = state_dir(&format!("fleet-{round}"));
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = monotonic_ns();
    let mut fleet = Fleet::launch(w.config(seed, round), NODES, &dir, RESERVATION)
        .map_err(|e| format!("launch: {e}"))?;
    let mut router = Router::new(space(), NODES, AUDIT_STRIPES, ProtoVersion::V2);
    for i in 0..NODES {
        router
            .connect(i, fleet.addr(i))
            .map_err(|e| format!("dial node {i}: {e}"))?;
    }
    r.setup_ns = monotonic_ns() - t0;
    let count = w.lease_ids();
    let jiffies = record::cpu_jiffies();
    let d = drive(
        ops,
        count,
        traced,
        |tenant| {
            router
                .lease(tenant, count)
                .map(|arcs| Granted::of_arcs(&arcs))
                .map_err(|e| e.to_string())
        },
        || Err("no scrapes in this mix".into()),
    );
    let (first, last, granted) = r.absorb(vec![d]);
    let global = router.global_counts();
    r.check_audit(
        "Router::global_counts",
        global.duplicate_ids,
        global.recorded_ids,
        granted,
    );
    r.check("Router", router.errors() == 0, || {
        format!("{} short grants", router.errors())
    });
    r.counters.retries = router.fault_counters().retries as f64;
    // The router's two connections close before the summary dials, so
    // the fleet never holds more than two.
    drop(router);
    let mut clients = Vec::with_capacity(NODES);
    let mut issued = 0;
    for i in 0..NODES {
        let client =
            Client::connect(fleet.addr(i), space()).map_err(|e| format!("dial node {i}: {e}"))?;
        let c0 = monotonic_ns();
        let summary = client
            .summary()
            .map_err(|e| format!("summary node {i}: {e}"))?;
        r.catchup_ns += monotonic_ns() - c0;
        r.check_audit(
            "Client::summary",
            summary.duplicate_ids,
            summary.recorded_ids,
            summary.issued_ids,
        );
        issued += summary.issued_ids;
        clients.push(client);
    }
    r.note_steal(jiffies);
    r.audited_ns = last - first + r.catchup_ns;
    r.issued_ids = issued;
    if r.failed == 0 {
        r.check("fleet summaries", issued == granted, || {
            format!("nodes issued {issued} but the router got {granted}")
        });
    }
    for i in 0..IDLE_SCRAPES {
        let s0 = monotonic_ns();
        let text = clients[i % NODES]
            .metrics()
            .map_err(|e| format!("scrape: {e}"))?;
        r.scrape_ns.push(monotonic_ns() - s0);
        r.check("scrape", text.contains(SCRAPE_PROBE), || {
            format!("scrape lacks {SCRAPE_PROBE}")
        });
        r.scrape_bytes = text.len();
    }
    let registries: Vec<_> = fleet.nodes().iter().filter_map(|n| n.registry()).collect();
    for registry in &registries {
        r.counters.add_registry(registry);
    }
    r.render(&registries, traced);
    for (i, client) in clients.into_iter().enumerate() {
        client
            .shutdown()
            .map_err(|e| format!("shutdown node {i}: {e}"))?;
        fleet.join_node(i);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(r)
}
