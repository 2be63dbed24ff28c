//! `shard_scaling`: packet-in (flow-setup) throughput of the sharded
//! control plane at 1/2/4/8 shards over a synthetic 100k-host campus.
//!
//! The workload is the decision engine's real cold and warm paths —
//! `livesec::engine::decide` against a [`livesec::NetworkState`] NIB,
//! fronted by one [`livesec::DecisionCache`] per shard, with the
//! production [`livesec::HashRing`] partitioning keys by ingress
//! switch. What is *not* simulated is the event loop around it: each
//! shard's partition is processed serially in one thread (the 2-core
//! reference host has fewer cores than the shard counts measured), and
//! the reported throughput is **makespan-modeled** — total keys
//! divided by the *slowest single shard's* time, which is what N
//! independent controller processes would sustain. The model and the
//! raw per-shard times are both recorded in `BENCH_shards.json`;
//! nothing here pretends to be a multi-core measurement.
//!
//! Run modes: default = full (3 passes); `--smoke` = same topology,
//! single timed pass (CI); `--test` = tiny run, no JSON (cargo test).

use livesec::cache::{CachedDecision, DecisionCache};
use livesec::engine::{decide, EngineDecision};
use livesec::policy::{PolicyRule, PolicyTable};
use livesec::ring::HashRing;
use livesec::store::NetworkState;
use livesec_bench::clock::Stopwatch;
use livesec_net::{FlowKey, MacAddr};
use livesec_services::{SeMessage, ServiceType};
use livesec_sim::SimTime;
use serde::Serialize;
use std::net::Ipv4Addr;

/// Hosts in the synthetic campus (the issue's acceptance topology).
const HOSTS: u64 = 100_000;
/// Access switches the hosts spread over (more switches = finer ring
/// granularity, like a real large campus).
const SWITCHES: u64 = 1_000;
/// Uplink port on every switch.
const UPLINK: u32 = 1;
/// Replicas per service type.
const REPLICAS: u64 = 8;

const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn host_mac(i: u64) -> MacAddr {
    MacAddr::from_u64(0x02_0000_0000 + i)
}

fn se_mac(i: u64) -> MacAddr {
    MacAddr::from_u64(0x0e_0000_0000 + i)
}

fn dpid_of_host(i: u64, hosts: u64) -> u64 {
    1 + i % SWITCHES.min(hosts)
}

/// The switch a key's packet-in arrives on: the source host's access
/// switch. Must match `dpid_of_host` for the key's originating host.
fn ingress_dpid(key: &FlowKey) -> u64 {
    1 + (key.dl_src.to_u64() - 0x02_0000_0000) % SWITCHES
}

/// The campus NIB: `hosts` hosts over the switches, 2×`REPLICAS`
/// service elements, and the paper scenario's policy (web flows chain
/// IDS + proto-id, other TCP chains proto-id).
fn build_store(hosts: u64) -> NetworkState {
    let mut s = NetworkState::new();
    let n_switches = SWITCHES.min(hosts);
    for d in 1..=n_switches {
        s.set_uplink(d, UPLINK);
    }
    for i in 0..hosts {
        let port = 2 + (i / n_switches) as u32;
        s.locate(host_mac(i), dpid_of_host(i, hosts), port);
    }
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("web-ids-protoid")
            .proto(6)
            .dst_port(80)
            .chain(vec![
                ServiceType::IntrusionDetection,
                ServiceType::ProtocolIdentification,
            ]),
    );
    policy.push(
        PolicyRule::named("tcp-protoid")
            .proto(6)
            .chain(vec![ServiceType::ProtocolIdentification]),
    );
    s.policy = policy;
    for (t, service) in [
        ServiceType::IntrusionDetection,
        ServiceType::ProtocolIdentification,
    ]
    .into_iter()
    .enumerate()
    {
        for r in 0..REPLICAS {
            let mac = se_mac(t as u64 * REPLICAS + r);
            s.registry.heartbeat(
                mac,
                &SeMessage::Online {
                    service,
                    cert: 0,
                    cpu: 10,
                    mem: 0,
                    pps: 0,
                    bps: 0,
                    total_pkts: 0,
                },
                SimTime::ZERO,
            );
            // Spread the elements over the first switches.
            s.locate(mac, 1 + (t as u64 * REPLICAS + r) % n_switches, 39);
        }
    }
    s
}

/// One packet-in per host: host i opens a flow to host (i+1), web
/// ports for every third flow.
fn build_keys(hosts: u64) -> Vec<FlowKey> {
    (0..hosts)
        .map(|i| FlowKey {
            vlan: None,
            dl_src: host_mac(i),
            dl_dst: host_mac((i + 1) % hosts),
            dl_type: 0x0800,
            nw_src: Ipv4Addr::from(0x0a00_0000 + (i as u32 & 0xff_ffff)),
            nw_dst: Ipv4Addr::from(0x0a00_0000 + (((i + 1) % hosts) as u32 & 0xff_ffff)),
            nw_proto: 6,
            tp_src: 40_000 + (i % 20_000) as u16,
            tp_dst: if i % 3 == 0 { 80 } else { 9_000 },
        })
        .collect()
}

/// Processes one shard's keys through its own decision cache: pass 0
/// is the cold path (`engine::decide` + insert), later passes are
/// cache hits — the same division of labor as `ShardedControlPlane`.
/// Returns (setups, hits).
fn run_shard(
    store: &mut NetworkState,
    cache: &mut DecisionCache,
    keys: &[&FlowKey],
    passes: u32,
) -> (u64, u64) {
    let mut setups = 0u64;
    let mut hits = 0u64;
    for _ in 0..passes {
        for key in keys {
            let ingress = (ingress_dpid(key), 2u32);
            if cache.lookup(key, ingress).is_some() {
                hits += 1;
                continue;
            }
            match decide(store, key) {
                EngineDecision::Steer {
                    services,
                    elements,
                    forward,
                    reverse,
                } => {
                    cache.insert(
                        **key,
                        ingress,
                        CachedDecision::Steer {
                            services,
                            elements,
                            forward,
                            reverse,
                        },
                    );
                    setups += 1;
                }
                EngineDecision::Deny { rule } => {
                    cache.insert(**key, ingress, CachedDecision::Deny { rule });
                }
                _ => {}
            }
        }
    }
    (setups, hits)
}

#[derive(Serialize)]
struct ShardResult {
    shards: u32,
    /// Keys per shard partition (ring balance evidence).
    partition_sizes: Vec<usize>,
    /// Serial wall time of each shard's partition, nanoseconds.
    per_shard_ns: Vec<u64>,
    /// max(per_shard_ns): the modeled parallel completion time.
    makespan_ns: u64,
    /// total packet-ins / makespan.
    throughput_per_sec: f64,
    /// Measured speedup. Can exceed `ideal_speedup_keys`: smaller
    /// per-shard decision caches are also *faster* per operation
    /// (better memory locality, fewer rehashes), a genuine benefit of
    /// partitioning but one the ideal key-count ratio doesn't model.
    speedup_vs_1: f64,
    /// total keys / largest partition: the speedup pure work division
    /// alone would give with identical per-key cost. The acceptance
    /// floor (3× at 4 shards) must hold against this too.
    ideal_speedup_keys: f64,
    flow_setups: u64,
    cache_hits: u64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    model: &'static str,
    hosts: u64,
    switches: u64,
    keys: u64,
    passes: u32,
    results: Vec<ShardResult>,
}

fn run(hosts: u64, passes: u32) -> BenchReport {
    let keys = build_keys(hosts);

    // Untimed warm-up: one full cold pass primes the allocator, page
    // tables and CPU before anything is measured, so the 1-shard row
    // (which runs first) isn't penalized for being first.
    {
        let mut store = build_store(hosts);
        let mut cache = DecisionCache::new();
        let all: Vec<&FlowKey> = keys.iter().collect();
        run_shard(&mut store, &mut cache, &all, 1);
    }

    let mut results: Vec<ShardResult> = Vec::new();
    for n in SHARD_COUNTS {
        let ring = HashRing::new(n);
        // Partition by the ingress switch's ring owner, exactly like
        // `ShardedControlPlane::route`.
        let mut partitions: Vec<Vec<&FlowKey>> = vec![Vec::new(); n as usize];
        for key in &keys {
            partitions[ring.shard_of_dpid(ingress_dpid(key)) as usize].push(key);
        }
        let mut store = build_store(hosts);
        let mut per_shard_ns = Vec::with_capacity(n as usize);
        let mut setups = 0u64;
        let mut hits = 0u64;
        for part in &partitions {
            let mut cache = DecisionCache::new();
            let t0 = Stopwatch::start();
            let (s, h) = run_shard(&mut store, &mut cache, part, passes);
            per_shard_ns.push(t0.nanos());
            setups += s;
            hits += h;
        }
        let makespan = per_shard_ns.iter().copied().max().unwrap_or(1).max(1);
        let total = keys.len() as u64 * u64::from(passes);
        let throughput = total as f64 / (makespan as f64 / 1e9);
        let speedup = results.first().map_or(1.0, |base: &ShardResult| {
            throughput / base.throughput_per_sec
        });
        let largest = partitions.iter().map(Vec::len).max().unwrap_or(1).max(1);
        let ideal = keys.len() as f64 / largest as f64;
        println!(
            "shards={n:>2} makespan={:>8.2} ms throughput={throughput:>12.0}/s \
             speedup={speedup:.2}x (ideal-by-keys {ideal:.2}x)",
            makespan as f64 / 1e6
        );
        results.push(ShardResult {
            shards: n,
            partition_sizes: partitions.iter().map(Vec::len).collect(),
            per_shard_ns,
            makespan_ns: makespan,
            throughput_per_sec: throughput,
            speedup_vs_1: speedup,
            ideal_speedup_keys: ideal,
            flow_setups: setups,
            cache_hits: hits,
        });
    }
    BenchReport {
        bench: "shard_scaling",
        model: "model, not a parallel measurement: shards run one after another in a single \
                thread; throughput = total packet-ins / max per-shard time (makespan), i.e. \
                what N independent shard processes sustain. \
                speedup_vs_1 above ideal_speedup_keys is per-shard cache locality (smaller \
                decision caches are faster per op), not extra parallelism",
        hosts,
        switches: SWITCHES.min(hosts),
        keys: keys.len() as u64,
        passes,
        results,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--test") {
        // Under `cargo test` just prove the harness runs; don't time
        // 100k hosts or overwrite the recorded bench artifact.
        let report = run(2_000, 1);
        assert_eq!(report.results.len(), SHARD_COUNTS.len());
        println!("test-mode shard_scaling: ok");
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let passes = if smoke { 1 } else { 3 };
    let report = run(HOSTS, passes);
    let four = report
        .results
        .iter()
        .find(|r| r.shards == 4)
        .expect("4-shard row");
    println!(
        "4-shard speedup: {:.2}x measured, {:.2}x by key division alone (acceptance floor 3.0x)",
        four.speedup_vs_1, four.ideal_speedup_keys
    );
    // The deterministic half of the acceptance floor: the ring must
    // divide the work well enough that 4 shards clear 3x on key
    // counts alone. (The measured number rides on top of this; it is
    // printed and recorded but not asserted, so a loaded CI host
    // cannot flake the gate.)
    assert!(
        four.ideal_speedup_keys >= 3.0,
        "ring imbalance broke the 4-shard acceptance floor: {:.2}x < 3.0x",
        four.ideal_speedup_keys
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shards.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(path, json).expect("write BENCH_shards.json");
    println!("wrote {path}");
}
