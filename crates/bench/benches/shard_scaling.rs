//! `shard_scaling`: packet-in (flow-setup) throughput of the sharded
//! control plane at 1/2/4/8 shards over a synthetic 100k-host campus.
//!
//! Every packet-in goes through `livesec::engine::decide`, the same
//! flow-setup path the controller runs: the shard's
//! [`livesec::DecisionCache`] lookup, the balancer re-pick on a hit,
//! and policy, picks and path compilation on a miss. The NIB is built
//! from the controller's own tables (a [`livesec::LocationTable`]
//! filled by `learn`, a [`livesec::TopologyMap`] whose uplinks come
//! from `observe_lldp`), and the production [`livesec::HashRing`]
//! partitions keys by ingress switch. What is *not* simulated is the
//! event loop around it: each shard's partition is processed serially
//! in one thread (the 2-core reference host has fewer cores than the
//! shard counts measured), and the reported throughput is
//! **makespan-modeled** — total keys divided by the *slowest single
//! shard's* time, which is what N independent controller processes
//! would sustain. The model and the raw per-shard times are both
//! recorded in `BENCH_shards.json`; nothing here pretends to be a
//! multi-core measurement.
//!
//! Run modes: default = full (3 passes); `--smoke` = same topology,
//! single timed pass, all misses (CI); `--test` = tiny two-pass run
//! that checks every second-pass packet-in hits, no JSON.

use livesec::balance::{LoadBalancer, SeRegistry};
use livesec::cache::DecisionCache;
use livesec::engine::{decide, EngineDecision, Nib};
use livesec::location::LocationTable;
use livesec::policy::{PolicyRule, PolicyTable};
use livesec::ring::HashRing;
use livesec::topology::TopologyMap;
use livesec_bench::clock::Stopwatch;
use livesec_net::{FlowKey, MacAddr};
use livesec_services::{SeMessage, ServiceType};
use livesec_sim::{NodeId, SimTime};
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

fn host_ip(i: u64) -> Ipv4Addr {
    Ipv4Addr::from(0x0a00_0000 + (i as u32 & 0xff_ffff))
}

fn dpid_of_host(i: u64, hosts: u64) -> u64 {
    1 + i % SWITCHES.min(hosts)
}

/// The switch a key's packet-in arrives on: the source host's access
/// switch. Must match `dpid_of_host` for the key's originating host.
fn ingress_dpid(key: &FlowKey) -> u64 {
    1 + (key.dl_src.to_u64() - 0x02_0000_0000) % SWITCHES
}

/// The campus NIB, in the tables the controller keeps.
struct Campus {
    policy: PolicyTable,
    registry: SeRegistry,
    balancer: LoadBalancer,
    locations: LocationTable,
    topo: TopologyMap,
}

impl Campus {
    fn nib(&mut self) -> Nib<'_> {
        Nib {
            policy: &self.policy,
            registry: &self.registry,
            balancer: &mut self.balancer,
            locations: &self.locations,
            topo: &self.topo,
        }
    }
}

/// The campus: `hosts` hosts over the switches, 2×`REPLICAS` service
/// elements, and the paper scenario's policy (web flows chain IDS +
/// proto-id, other TCP chains proto-id).
fn build_campus(hosts: u64) -> Campus {
    let mut s = Campus {
        policy: PolicyTable::allow_all(),
        registry: SeRegistry::new(),
        balancer: LoadBalancer::min_load(),
        locations: LocationTable::new(),
        topo: TopologyMap::new(),
    };
    let n_switches = SWITCHES.min(hosts);
    for d in 1..=n_switches {
        s.topo.add_switch(d, NodeId::from_index(d as usize), 128);
    }
    // A probe from the next switch arriving on the uplink marks it.
    for d in 1..=n_switches {
        s.topo
            .observe_lldp((d % n_switches + 1, UPLINK), (d, UPLINK));
    }
    for i in 0..hosts {
        let port = 2 + (i / n_switches) as u32;
        s.locations.learn(
            host_mac(i),
            host_ip(i),
            dpid_of_host(i, hosts),
            port,
            SimTime::ZERO,
        );
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
            let ip = Ipv4Addr::new(172, 16, t as u8, r as u8);
            let dpid = 1 + (t as u64 * REPLICAS + r) % n_switches;
            s.locations.learn(mac, ip, dpid, 39, SimTime::ZERO);
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
            nw_src: host_ip(i),
            nw_dst: host_ip((i + 1) % hosts),
            nw_proto: 6,
            tp_src: 40_000 + (i % 20_000) as u16,
            tp_dst: if i % 3 == 0 { 80 } else { 9_000 },
        })
        .collect()
}

/// Processes one shard's keys through its own decision cache, the way
/// the controller handles that shard's packet-ins: pass 0 misses and
/// compiles, later passes hit and re-pick. Returns the admitted setups.
fn run_shard(
    campus: &mut Campus,
    cache: &mut DecisionCache,
    keys: &[&FlowKey],
    passes: u32,
) -> u64 {
    let mut setups = 0u64;
    for _ in 0..passes {
        for key in keys {
            let ingress = (ingress_dpid(key), 2u32);
            if let EngineDecision::Steer { .. } = decide(campus.nib(), Some(cache), key, ingress) {
                setups += 1;
            }
        }
    }
    setups
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
    /// Packet-ins admitted (cache hits included).
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
        let mut campus = build_campus(hosts);
        let mut cache = DecisionCache::new();
        let all: Vec<&FlowKey> = keys.iter().collect();
        run_shard(&mut campus, &mut cache, &all, 1);
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
        let mut campus = build_campus(hosts);
        let mut per_shard_ns = Vec::with_capacity(n as usize);
        let mut setups = 0u64;
        let mut hits = 0u64;
        for part in &partitions {
            let mut cache = DecisionCache::new();
            let t0 = Stopwatch::start();
            setups += run_shard(&mut campus, &mut cache, part, passes);
            per_shard_ns.push(t0.nanos());
            hits += cache.stats().hits;
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
                what N independent shard processes sustain. Every packet-in runs the \
                controller's own flow-setup path, engine::decide (cache lookup, balancer \
                re-pick on hits, policy + picks + compile on misses). \
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
        // Two passes: the second one runs the cache-hit re-pick.
        let report = run(2_000, 2);
        assert_eq!(report.results.len(), SHARD_COUNTS.len());
        for r in &report.results {
            assert_eq!(
                (r.flow_setups, r.cache_hits),
                (4_000, 2_000),
                "{} shards",
                r.shards
            );
        }
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
