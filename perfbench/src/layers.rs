//! The traced run: the per-layer table.
//!
//! The run measures the workload twice end to end, untraced and then
//! with a span per operation, and then replays round 0's operation
//! sequence against each layer's public entry point, one layer deeper
//! each time, with the workload's number of load threads:
//!
//! | layer     | entry point                                   |
//! |-----------|-----------------------------------------------|
//! | `fleet`   | `Router::lease` (the traced end-to-end run)   |
//! | `net`     | `Client::lease`                               |
//! | `service` | `IdService::lease`                            |
//! | `core`    | `IdGenerator::next_ids`                       |
//! | `persist` | `SnapshotStore::save`, at the service cadence |
//! | `audit`   | `LeaseAudit::record`, 16 stripes              |
//! | `client`  | `frame::encode_frame` / `decode_frame`        |
//! | `obs`     | `Registry::snapshot().render_prometheus()`    |
//!
//! A layer's self time is its median minus the median of the layer it
//! calls (see [`stats::self_times`]). The last four are off that chain:
//! persist runs on one lease in several, the audit on its own thread,
//! the codec inside `net`, and the render inside a scrape.

use std::sync::Mutex;

use uuidp_client::frame::{decode_frame, encode_frame, Frame, FrameBody};
use uuidp_client::Client;
use uuidp_core::clock::monotonic_ns;
use uuidp_core::interval::Arc;
use uuidp_core::persist::{SnapshotRecord, SnapshotStore};
use uuidp_core::rng::{SeedDomain, SeedTree};
use uuidp_core::traits::IdGenerator;
use uuidp_fleet::prelude::Fleet;
use uuidp_service::service::{DurabilityConfig, IdService};
use uuidp_sim::audit::LeaseAudit;

use crate::gen::{self, Op, TENANTS};
use crate::record::Outcome;
use crate::stats::{self, Span};
use crate::workloads::{
    drive, on_threads, space, state_dir, Granted, Round, Workload, AUDIT_STRIPES, NODES,
    RESERVATION,
};
use crate::{calm, per_round, Metric};

/// One lease of a replay, in operation order.
struct Leased {
    tenant: u64,
    arcs: Vec<Arc>,
}

/// What the core replay produced.
struct CoreReplay {
    next_ids_ns: Vec<u64>,
    save_ns: Vec<u64>,
    leases: Vec<Leased>,
}

/// A tenant's generator with the service's write-ahead bookkeeping.
struct Slot {
    generator: Box<dyn IdGenerator>,
    frontier: u128,
    seq: u64,
}

fn sorted_p50_us(ns: &[u64]) -> Result<f64, String> {
    let mut v = ns.to_vec();
    v.sort_unstable();
    Ok(stats::percentile(&v, 0.5)? as f64 / 1e3)
}

/// Replays the leases of `ops` on bare generators, one per tenant,
/// persisting each tenant's snapshot whenever a lease would pass its
/// reservation frontier, as the service's shard worker does.
fn core_replay(w: Workload, seed: u64, ops: &[Op]) -> Result<CoreReplay, String> {
    let algorithm = w.kind().build(space());
    let roots = SeedTree::new(gen::master_seed(seed, 0));
    let slots: Vec<Mutex<Slot>> = (0..TENANTS)
        .map(|t| {
            Mutex::new(Slot {
                generator: algorithm.spawn(roots.seed(SeedDomain::Instance(t))),
                frontier: 0,
                seq: 0,
            })
        })
        .collect();
    let dir = state_dir("persist");
    let store = match w.durable() {
        true => Some(SnapshotStore::with_sync(&dir, false).map_err(|e| format!("store: {e}"))?),
        false => None,
    };
    let count = w.lease_ids();
    let indexed: Vec<(usize, u64)> = ops
        .iter()
        .enumerate()
        .filter_map(|(j, op)| match op {
            Op::Lease { tenant } => Some((j, *tenant)),
            Op::Scrape => None,
        })
        .collect();
    type Part = (Vec<u64>, Vec<u64>, Vec<(usize, Leased)>);
    let parts = on_threads(
        &gen::split(&indexed, w.threads()),
        |part| -> Result<Part, String> {
            let (mut next_ns, mut save_ns, mut leased) = (Vec::new(), Vec::new(), Vec::new());
            for &(j, tenant) in part {
                let mut slot = slots[tenant as usize].lock().expect("slot lock poisoned");
                if let Some(store) = &store {
                    let generated = slot.generator.generated();
                    if generated + count > slot.frontier {
                        let reservation = count.max(RESERVATION);
                        slot.seq += 1;
                        let record = SnapshotRecord {
                            seq: slot.seq,
                            epoch: 0,
                            reservation,
                            space: space(),
                            state: slot
                                .generator
                                .snapshot()
                                .ok_or("durable workloads run snapshot-capable algorithms")?,
                        };
                        let t0 = monotonic_ns();
                        store
                            .save(tenant, &record)
                            .map_err(|e| format!("save: {e}"))?;
                        save_ns.push(monotonic_ns() - t0);
                        slot.frontier = generated + reservation;
                    }
                }
                let mut arcs = Vec::new();
                let t0 = monotonic_ns();
                let result = slot.generator.next_ids(count, &mut |a| arcs.push(a));
                next_ns.push(monotonic_ns() - t0);
                result.map_err(|e| format!("next_ids: {e}"))?;
                leased.push((j, Leased { tenant, arcs }));
            }
            Ok((next_ns, save_ns, leased))
        },
    );
    if store.is_some() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let mut out = CoreReplay {
        next_ids_ns: Vec::new(),
        save_ns: Vec::new(),
        leases: Vec::new(),
    };
    let mut leased = Vec::new();
    for part in parts {
        let (next_ns, save_ns, l) = part?;
        out.next_ids_ns.extend(next_ns);
        out.save_ns.extend(save_ns);
        leased.extend(l);
    }
    leased.sort_by_key(|(j, _)| *j);
    out.leases = leased.into_iter().map(|(_, l)| l).collect();
    Ok(out)
}

/// Records every lease in one striped audit, in operation order, as the
/// service's single audit thread does; returns per-lease record time.
fn audit_replay(leases: &[Leased], violations: &mut Vec<String>) -> Vec<u64> {
    let mut audit = LeaseAudit::new(space(), AUDIT_STRIPES);
    let ns = leases
        .iter()
        .map(|l| {
            let t0 = monotonic_ns();
            for &arc in &l.arcs {
                audit.record(l.tenant, arc);
            }
            monotonic_ns() - t0
        })
        .collect();
    let counts = audit.counts();
    if counts.duplicate_ids != 0 {
        violations.push(format!(
            "audit replay: {} duplicate IDs",
            counts.duplicate_ids
        ));
    }
    ns
}

/// Encodes and decodes each lease's request and reply frames.
fn codec_replay(
    w: Workload,
    leases: &[Leased],
    violations: &mut Vec<String>,
) -> (Vec<u64>, Vec<u64>, f64) {
    let count = w.lease_ids();
    let parts: Vec<Vec<(u64, &Leased)>> = gen::split(
        &leases
            .iter()
            .enumerate()
            .map(|(j, l)| (j as u64 + 1, l))
            .collect::<Vec<_>>(),
        w.threads(),
    );
    let results = on_threads(&parts, |part| {
        let (mut enc, mut dec, mut bytes, mut bad) = (Vec::new(), Vec::new(), 0usize, 0u64);
        for &(corr, l) in part {
            let req = FrameBody::LeaseReq {
                tenant: l.tenant,
                count,
            };
            let resp = FrameBody::LeaseResp {
                tenant: l.tenant,
                granted: count,
                arcs: l.arcs.iter().map(|a| (a.start.0, a.len)).collect(),
                error: None,
            };
            let t0 = monotonic_ns();
            let req_bytes = encode_frame(corr, &req);
            let resp_bytes = encode_frame(corr, &resp);
            let t1 = monotonic_ns();
            let req_back = decode_frame(&req_bytes);
            let resp_back = decode_frame(&resp_bytes);
            let t2 = monotonic_ns();
            enc.push(t1 - t0);
            dec.push(t2 - t1);
            bytes += req_bytes.len() + resp_bytes.len();
            let same = |back: Result<Option<(Frame, usize)>, _>, body: &FrameBody, len: usize| matches!(back, Ok(Some((f, n))) if f.corr == corr && &f.body == body && n == len);
            if !same(req_back, &req, req_bytes.len()) || !same(resp_back, &resp, resp_bytes.len()) {
                bad += 1;
            }
        }
        (enc, dec, bytes, bad)
    });
    let (mut enc, mut dec, mut bytes, mut bad) = (Vec::new(), Vec::new(), 0, 0);
    for (e, d, b, x) in results {
        enc.extend(e);
        dec.extend(d);
        bytes += b;
        bad += x;
    }
    if bad > 0 {
        violations.push(format!("codec replay: {bad} frames did not round-trip"));
    }
    (enc, dec, bytes as f64 / leases.len().max(1) as f64)
}

/// Lease-only operations of `ops`, dealt to the workload's threads.
fn lease_parts(w: Workload, ops: &[Op]) -> Vec<Vec<Op>> {
    let leases: Vec<Op> = ops
        .iter()
        .copied()
        .filter(|op| matches!(op, Op::Lease { .. }))
        .collect();
    gen::split(&leases, w.threads())
}

/// Replays the leases of `ops` through `IdService::lease` on a service
/// configured as the workload's (durable where the workload is).
fn service_replay(
    w: Workload,
    seed: u64,
    ops: &[Op],
    violations: &mut Vec<String>,
) -> Result<Vec<u64>, String> {
    let mut config = w.config(seed, 0);
    let dir = state_dir("service");
    if w.durable() {
        config.durability = Some(DurabilityConfig::new(&dir));
    }
    let svc = IdService::start(config);
    let count = w.lease_ids();
    let drives = on_threads(&lease_parts(w, ops), |part| {
        drive(
            part,
            count,
            false,
            |tenant| {
                let reply = svc.lease(tenant, count);
                Ok(Granted {
                    granted: reply.granted,
                    arc_ids: reply.arcs.iter().map(|a| a.len).sum(),
                    error: reply.error.map(|e| e.to_string()),
                })
            },
            || Err("no scrapes".into()),
        )
    });
    let report = svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    if report.audit.counts.duplicate_ids != 0 {
        violations.push(format!(
            "service replay: {} duplicate IDs",
            report.audit.counts.duplicate_ids
        ));
    }
    let mut ns = Vec::new();
    for d in drives {
        if d.failed > 0 {
            return Err(format!("service replay: {} failed leases", d.failed));
        }
        violations.extend(d.violations);
        ns.extend(d.lease_ns);
    }
    Ok(ns)
}

/// Replays the fleet workload's leases through one `Client` per node,
/// each lease sent to the node the router would pick.
fn net_replay_fleet(
    w: Workload,
    seed: u64,
    ops: &[Op],
    violations: &mut Vec<String>,
) -> Result<Vec<u64>, String> {
    let dir = state_dir("net");
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = Fleet::launch(w.config(seed, 0), NODES, &dir, RESERVATION)
        .map_err(|e| format!("launch: {e}"))?;
    let clients = (0..NODES)
        .map(|i| Client::connect(fleet.addr(i), space()).map_err(|e| format!("dial: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let count = w.lease_ids();
    let d = drive(
        &lease_parts(w, ops)[0],
        count,
        false,
        |tenant| {
            clients[tenant as usize % NODES]
                .lease(tenant, count)
                .map(|l| Granted {
                    granted: l.granted,
                    arc_ids: l.arcs.iter().map(|a| a.len).sum(),
                    error: l.error,
                })
                .map_err(|e| e.to_string())
        },
        || Err("no scrapes".into()),
    );
    for (i, client) in clients.into_iter().enumerate() {
        let summary = client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        if summary.duplicate_ids != 0 {
            violations.push(format!(
                "net replay: {} duplicate IDs",
                summary.duplicate_ids
            ));
        }
        fleet.join_node(i);
    }
    let _ = std::fs::remove_dir_all(&dir);
    if d.failed > 0 {
        return Err(format!("net replay: {} failed leases", d.failed));
    }
    violations.extend(d.violations);
    Ok(d.lease_ns)
}

/// Sums `f` over rounds, divided by the rounds' lease count.
fn per_lease(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    let leases: u64 = rounds.iter().map(|r| r.leases).sum();
    rounds.iter().map(f).sum::<f64>() / leases as f64
}

/// The traced run: end to end untraced and traced, then the layer
/// replays; `budget_ns` is split evenly between the three.
pub fn traced_run(w: Workload, seed: u64, budget_ns: u64) -> Result<Outcome, String> {
    let untraced_rounds = crate::measure(w, seed, budget_ns / 3, false)?;
    let traced_rounds = crate::measure(w, seed, budget_ns / 3, true)?;
    let (untraced, traced) = (calm(&untraced_rounds), calm(&traced_rounds));
    let mut violations: Vec<String> = Vec::new();
    let ops = w.ops(seed, 0);
    let wire = w != Workload::InprocRandomAudit;

    let e2e_us = per_round(&untraced, |r| r.lease_p50_ns as f64 / 1e3);
    let top_us = per_round(&traced, |r| r.span_p50_ns as f64 / 1e3);

    let core = core_replay(w, seed, &ops)?;
    let next_ids_us = sorted_p50_us(&core.next_ids_ns)?;
    let arcs_per_lease =
        core.leases.iter().map(|l| l.arcs.len()).sum::<usize>() as f64 / core.leases.len() as f64;
    let record_us = sorted_p50_us(&audit_replay(&core.leases, &mut violations))?;
    let service_us = match w {
        Workload::InprocRandomAudit => top_us,
        _ => sorted_p50_us(&service_replay(w, seed, &ops, &mut violations)?)?,
    };
    let save_us = match w.durable() {
        true => sorted_p50_us(&core.save_ns)?,
        false => 0.0,
    };
    let (encode_us, decode_us, frame_bytes) = match wire {
        true => {
            let (enc, dec, bytes) = codec_replay(w, &core.leases, &mut violations);
            (sorted_p50_us(&enc)?, sorted_p50_us(&dec)?, bytes)
        }
        false => (0.0, 0.0, 0.0),
    };
    let client_lease_us = match w {
        Workload::InprocRandomAudit => None,
        Workload::LoopbackMixed => Some(top_us),
        Workload::FleetDurable => Some(sorted_p50_us(&net_replay_fleet(
            w,
            seed,
            &ops,
            &mut violations,
        )?)?),
    };

    let mut spans = Vec::new();
    if w == Workload::FleetDurable {
        spans.push(Span {
            layer: "fleet",
            parent: None,
            p50_us: top_us,
        });
    }
    if let Some(us) = client_lease_us {
        spans.push(Span {
            layer: "net",
            parent: spans.len().checked_sub(1),
            p50_us: us,
        });
    }
    for (layer, p50_us) in [("service", service_us), ("core", next_ids_us)] {
        spans.push(Span {
            layer,
            parent: spans.len().checked_sub(1),
            p50_us,
        });
    }
    let selfs = stats::self_times(&spans);
    let self_of = |layer: &str| {
        spans
            .iter()
            .position(|s| s.layer == layer)
            .map_or(0.0, |i| selfs[i])
    };

    let render_us = per_round(&traced, |r| r.render_p50_ns as f64 / 1e3);
    let scrape_us = per_round(&traced, |r| r.scrape_p50_ns as f64 / 1e3);
    let catchup_ms = per_round(&traced, |r| r.catchup_ns as f64 / 1e6);
    let attempted: u64 = traced_rounds.iter().map(|r| r.attempted).sum();
    let on_wire = |v: f64| if wire { v } else { 0.0 };
    let replies_count: f64 = traced_rounds.iter().map(|r| r.counters.replies_count).sum();

    let metrics: Vec<Metric> = vec![
        ("core.next_ids_us", next_ids_us, "us"),
        ("core.arcs_per_lease", arcs_per_lease, "count"),
        ("audit.record_us", record_us, "us"),
        ("audit.catchup_ms", catchup_ms, "ms"),
        (
            "audit.records_per_lease",
            per_lease(&traced_rounds, |r| r.counters.audit_records),
            "count",
        ),
        ("service.lease_us", service_us, "us"),
        ("service.self_us", self_of("service"), "us"),
        ("persist.save_us", save_us, "us"),
        (
            "persist.saves_per_lease",
            per_lease(&traced_rounds, |r| r.counters.persists),
            "count",
        ),
        ("client.encode_us", encode_us, "us"),
        ("client.decode_us", decode_us, "us"),
        ("client.frame_bytes", frame_bytes, "B"),
        ("net.self_us", self_of("net"), "us"),
        (
            "net.replies_per_syscall",
            on_wire(
                traced_rounds
                    .iter()
                    .map(|r| r.counters.replies_sum)
                    .sum::<f64>()
                    / replies_count,
            ),
            "count",
        ),
        (
            "net.wakeups_per_op",
            on_wire(
                traced_rounds
                    .iter()
                    .map(|r| r.counters.wakeups)
                    .sum::<f64>()
                    / attempted as f64,
            ),
            "count",
        ),
        ("fleet.router_self_us", self_of("fleet"), "us"),
        (
            "fleet.retries_per_lease",
            per_lease(&traced_rounds, |r| r.counters.retries),
            "count",
        ),
        ("obs.render_us", render_us, "us"),
        ("obs.scrape_self_us", on_wire(scrape_us - render_us), "us"),
        (
            "obs.scrape_bytes",
            traced_rounds.last().map_or(0, |r| r.scrape_bytes) as f64,
            "B",
        ),
        (
            "trace.residual_pct",
            stats::residual_pct(e2e_us, &spans),
            "%",
        ),
        (
            "trace.overhead_pct",
            (top_us - e2e_us) / e2e_us * 100.0,
            "%",
        ),
    ];

    let mut notes = vec![format!(
        "per-layer table: {} seed {seed}: end-to-end lease p50 {e2e_us:.3} us untraced, \
         {top_us:.3} us traced",
        w.name()
    )];
    for (s, self_us) in spans.iter().zip(&selfs) {
        notes.push(format!(
            "  stack {:<8} p50 {:>10.3} us   self {:>10.3} us   {:>5.1}% of end-to-end",
            s.layer,
            s.p50_us,
            self_us,
            self_us / e2e_us * 100.0
        ));
    }
    for (layer, us) in [
        ("audit", record_us),
        ("persist", save_us),
        ("client", encode_us + decode_us),
        ("obs", render_us),
    ] {
        notes.push(format!(
            "  side  {layer:<8} p50 {us:>10.3} us   {:>5.1}% of end-to-end",
            us / e2e_us * 100.0
        ));
    }

    let mut outcome = Outcome::of(&traced_rounds, metrics);
    outcome.attempted += untraced_rounds.iter().map(|r| r.attempted).sum::<u64>();
    outcome.failed += untraced_rounds.iter().map(|r| r.failed).sum::<u64>();
    outcome.rounds += untraced_rounds.len();
    outcome
        .violations
        .extend(untraced_rounds.iter().flat_map(|r| r.violations.clone()));
    outcome.violations.extend(violations);
    outcome.notes = notes;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_replay_is_seed_deterministic_per_tenant() {
        // Two threads race for a tenant's generator, so which operation
        // gets which arcs varies; each tenant's emitted set does not.
        let w = Workload::LoopbackMixed;
        let ops = gen::round_ops(5, 0, 200, w.scrape_every());
        let per_tenant = |c: &CoreReplay| {
            let mut m = std::collections::BTreeMap::<u64, Vec<(u128, u128)>>::new();
            for l in &c.leases {
                assert_eq!(l.arcs.iter().map(|a| a.len).sum::<u128>(), w.lease_ids());
                let arcs = l.arcs.iter().map(|a| (a.start.0, a.len));
                m.entry(l.tenant).or_default().extend(arcs);
            }
            m.values_mut().for_each(|v| v.sort_unstable());
            m
        };
        let a = core_replay(w, 5, &ops).unwrap();
        let b = core_replay(w, 5, &ops).unwrap();
        let leases = ops.iter().filter(|o| matches!(o, Op::Lease { .. })).count();
        assert_eq!(a.leases.len(), leases);
        assert_eq!(per_tenant(&a), per_tenant(&b));
    }

    #[test]
    fn the_durable_core_replay_persists_at_the_reservation_cadence() {
        let w = Workload::FleetDurable;
        let ops = vec![Op::Lease { tenant: 3 }; 8];
        let core = core_replay(w, 1, &ops).unwrap();
        // 8 leases of 1024 under a 4096 reservation: persists before
        // leases 1 and 5.
        assert_eq!(core.save_ns.len(), 2);
        let mut v = Vec::new();
        assert!(audit_replay(&core.leases, &mut v).len() == 8 && v.is_empty());
    }
}
