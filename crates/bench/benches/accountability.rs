//! `accountability`: throughput of the forwarding-accountability hot
//! paths — attestation tagging on the switch side and attestation
//! replay (verification + chain tracking) on the detector side.
//!
//! Two workloads, both pure compute against production code:
//!
//! 1. **Tagging**: `packet_tag` + `attestation_tag` per forwarded
//!    frame — the per-hop cost a switch pays when sampling is on.
//! 2. **Replay**: an [`livesec::AccountabilityDetector`] loaded with
//!    path proofs for `FLOWS` flows verifies `PACKETS` packets × 3
//!    hops of honest attestations (every chain must complete), then a
//!    forged batch (every deviation must be caught). Assertions cover
//!    only deterministic counts — wall-clock numbers are recorded in
//!    `BENCH_accountability.json`, never asserted, so a loaded CI
//!    host cannot flake the gate.
//!
//! Run modes: default = full; `--smoke` = smaller run (CI);
//! `--test` = tiny run, no JSON (cargo test).

use livesec::accountability::{AccountabilityDetector, PathProof, ProofHop, ProofSource};
use livesec::flow_sig;
use livesec_bench::clock::Stopwatch;
use livesec_net::{FlowKey, MacAddr};
use livesec_openflow::{attestation_tag, packet_tag, ForwardingAttestation};
use livesec_sim::{SimDuration, SimTime};
use serde::Serialize;
use std::net::Ipv4Addr;

/// Flows with registered 3-hop path proofs.
const FLOWS: u64 = 10_000;
/// Sampled packets replayed through the detector (spread over flows).
const PACKETS: u64 = 200_000;
/// Tag computations in the tagging workload.
const TAGS: u64 = 2_000_000;

/// Proof hops every flow uses: ingress (cookie-tagged), SE relay,
/// egress — the shape `PathProof::of_program` emits for a steered
/// flow.
const HOPS: [(u64, u32, u32, u64); 3] = [(1, 5, 1, 1), (2, 1, 7, 0), (3, 1, 9, 0)];

fn key_of(i: u64) -> FlowKey {
    FlowKey {
        vlan: None,
        dl_src: MacAddr::from_u64(0x02_0000_0000 + i),
        dl_dst: MacAddr::from_u64(0x02_0000_0000 + i + 1),
        dl_type: 0x0800,
        nw_src: Ipv4Addr::from(0x0a00_0000 + (i as u32 & 0xff_ffff)),
        nw_dst: Ipv4Addr::from(0x0b00_0000 + (i as u32 & 0xff_ffff)),
        nw_proto: 6,
        tp_src: 40_000 + (i % 20_000) as u16,
        tp_dst: 80,
    }
}

fn att(key: &FlowKey, pkt_tag: u64, hop: (u64, u32, u32, u64)) -> ForwardingAttestation {
    let (dpid, in_port, out_port, cookie) = hop;
    ForwardingAttestation {
        dpid,
        in_port,
        out_port,
        cookie,
        flow: *key,
        pkt_tag,
        tag: attestation_tag(dpid, in_port, out_port, cookie),
    }
}

fn loaded_detector(flows: u64) -> AccountabilityDetector {
    let mut d = AccountabilityDetector::new();
    for i in 0..flows {
        let hops = HOPS
            .iter()
            .map(|&(dpid, in_port, out_port, cookie)| ProofHop {
                dpid,
                in_port,
                out_port,
                cookie,
            })
            .collect();
        d.register(
            flow_sig(&key_of(i)),
            PathProof {
                source: ProofSource::Steering,
                hops,
                registered_at: SimTime::ZERO,
            },
        );
    }
    d
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    flows: u64,
    packets: u64,
    tags: u64,
    /// Tagging workload: ns per packet_tag + attestation_tag pair.
    tag_ns_per_op: f64,
    tags_per_sec: f64,
    /// Honest replay: ns per attestation through `observe`.
    observe_ns_per_att: f64,
    attestations_per_sec: f64,
    /// Attestations in the honest replay (packets × hops).
    replayed: u64,
    chains_verified: u64,
    /// Forged replay: every forged attestation must yield a verdict.
    forged: u64,
    violations_caught: u64,
}

fn run(flows: u64, packets: u64, tags: u64) -> BenchReport {
    // -- Workload 1: tagging ------------------------------------------
    let key = key_of(7);
    let mut sink = 0u64;
    let t0 = Stopwatch::start();
    for i in 0..tags {
        let pt = packet_tag(&key, 64 + (i & 0x3ff));
        sink ^= attestation_tag(1, 5, 1, pt);
    }
    let tag_ns = t0.nanos() as f64 / tags as f64;
    std::hint::black_box(sink);

    // -- Workload 2a: honest replay -----------------------------------
    // Observed well past PROOF_GRACE of the t=0 registrations, so a
    // mismatch is a verdict, not a stale-straggler discard.
    let mut d = loaded_detector(flows);
    let now = SimTime::from_nanos(1_000_000_000);
    let mut verdicts = 0u64;
    let t1 = Stopwatch::start();
    for p in 0..packets {
        let key = key_of(p % flows);
        let pkt_tag = packet_tag(&key, 64 + (p & 0x3ff));
        for hop in HOPS {
            if d.observe(now, &att(&key, pkt_tag, hop)).is_some() {
                verdicts += 1;
            }
        }
    }
    let observe_ns = t1.nanos() as f64 / (packets * HOPS.len() as u64) as f64;
    assert_eq!(verdicts, 0, "honest replay produced verdicts");
    let stats = d.stats();
    assert_eq!(
        stats.chains_verified, packets,
        "not every honest chain completed: {stats:?}"
    );
    assert_eq!(d.pending_chains(), 0, "chains left behind");
    assert_eq!(d.sweep(now + SimDuration::from_secs(10)).len(), 0);

    // -- Workload 2b: forged replay -----------------------------------
    // Every packet detours at the relay hop: wrong out port, honest
    // firmware tag over what it actually did.
    let forged = flows.min(1_000);
    let mut caught = 0u64;
    for p in 0..forged {
        let key = key_of(p % flows);
        let pkt_tag = packet_tag(&key, 9_999);
        if d.observe(now, &att(&key, pkt_tag, (2, 1, 33, 0))).is_some() {
            caught += 1;
        }
    }
    assert_eq!(caught, forged, "a forged attestation went unflagged");

    BenchReport {
        bench: "accountability",
        flows,
        packets,
        tags,
        tag_ns_per_op: tag_ns,
        tags_per_sec: 1e9 / tag_ns.max(f64::MIN_POSITIVE),
        observe_ns_per_att: observe_ns,
        attestations_per_sec: 1e9 / observe_ns.max(f64::MIN_POSITIVE),
        replayed: packets * HOPS.len() as u64,
        chains_verified: stats.chains_verified,
        forged,
        violations_caught: caught,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--test") {
        // Under `cargo test` just prove the harness runs; don't time
        // a full load or overwrite the recorded bench artifact.
        let report = run(100, 1_000, 10_000);
        assert_eq!(report.violations_caught, report.forged);
        println!("test-mode accountability: ok");
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let (flows, packets, tags) = if smoke {
        (FLOWS / 10, PACKETS / 10, TAGS / 10)
    } else {
        (FLOWS, PACKETS, TAGS)
    };
    let report = run(flows, packets, tags);
    println!(
        "tagging: {:.1} ns/op ({:.1}M tags/s)",
        report.tag_ns_per_op,
        report.tags_per_sec / 1e6
    );
    println!(
        "replay:  {:.1} ns/attestation ({:.2}M attestations/s), {} chains verified",
        report.observe_ns_per_att,
        report.attestations_per_sec / 1e6,
        report.chains_verified
    );
    println!(
        "forged:  {}/{} deviations caught",
        report.violations_caught, report.forged
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_accountability.json"
    );
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(path, json).expect("write BENCH_accountability.json");
    println!("wrote {path}");
}
