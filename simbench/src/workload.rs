//! The three benchmark workloads, built on the real campus
//! (`CampusBuilder`, then `World::run_for`).
//!
//! The seed reaches the program only through the generated inputs:
//! the world seed, client start offsets, think times and the UDP
//! arrival processes.

use crate::udp::{splitmix64, UdpSink, UdpSource};
use livesec::balance::LoadBalancer;
use livesec::deploy::{Campus, CampusBuilder};
use livesec::policy::{PolicyRule, PolicyTable};
use livesec_services::{IdsEngine, ProtoIdEngine, ServiceElement, ServiceType};
use livesec_sim::{LinkSpec, NodeId, PortCounters, PortId, SimDuration, SimTime};
use livesec_switch::Host;
use livesec_workloads::{HttpClient, HttpServer};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's E3 IDS capacity campus: bulk TCP through 20
    /// scanning elements; the data plane does the work.
    E3IdsBulk,
    /// Short HTTP requests, each a new flow: the control plane does
    /// the work.
    FlowChurn,
    /// Open-loop minimum-size UDP frames with no steering: bare
    /// forwarding.
    UdpSmall,
}

/// Per-VM intrusion-detection capacity measured in the paper (§V-B.1),
/// as in the E3 experiment.
const IDS_PER_VM_BPS: u64 = 421_000_000;

/// Mean gap between one UDP source's datagrams: 64-byte frames at a
/// mean 60 Mbps on a 100 Mbps access link. The access link is then busy
/// more than half the time, so the median datagram queues behind
/// earlier ones and its latency depends on the arrival process.
const UDP_MEAN_GAP: SimDuration = SimDuration::from_nanos(8_533);

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::E3IdsBulk, Workload::FlowChurn, Workload::UdpSmall];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::E3IdsBulk => "e3_ids_bulk",
            Workload::FlowChurn => "flow_churn",
            Workload::UdpSmall => "udp_small",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated warm-up before the measured span: discovery, ARP,
    /// first flow setups, and (for `flow_churn`) flow tables grown to
    /// the size where idle expiry balances new flows.
    pub fn warmup(self) -> SimDuration {
        match self {
            Workload::E3IdsBulk => SimDuration::from_millis(1_400),
            Workload::FlowChurn => SimDuration::from_millis(1_200),
            Workload::UdpSmall => SimDuration::from_millis(1_050),
        }
    }

    /// The measured simulated span.
    pub fn span(self) -> SimDuration {
        match self {
            Workload::E3IdsBulk => SimDuration::from_millis(500),
            Workload::FlowChurn => SimDuration::from_millis(150),
            Workload::UdpSmall => SimDuration::from_millis(150),
        }
    }

    /// The tail percentile reported: the highest of 90, 99, 99.9 and
    /// 99.99 that leaves at least ten samples beyond it at this
    /// workload's sample count (checked on every run).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::E3IdsBulk => 90.0,
            Workload::FlowChurn => 99.0,
            Workload::UdpSmall => 99.99,
        }
    }
}

/// A built campus plus the handles the benchmark reads.
pub struct Bench {
    /// The campus.
    pub campus: Campus,
    /// HTTP client hosts.
    pub http_clients: Vec<NodeId>,
    /// UDP source hosts.
    pub udp_sources: Vec<NodeId>,
    /// UDP sink hosts.
    pub udp_sinks: Vec<NodeId>,
    /// Events dispatched so far.
    pub events: u64,
    /// Every port of every node that can carry counters.
    ports: Vec<(NodeId, PortId)>,
}

impl std::fmt::Debug for Bench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bench")
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

/// A deterministic value in `0..bound` for input `i` of run `seed`.
fn draw(seed: u64, i: u64, bound: u64) -> u64 {
    let mut s = seed ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03);
    splitmix64(&mut s) % bound
}

/// Builds the campus of `workload` for `seed`; the world has not
/// started.
pub fn build(workload: Workload, seed: u64) -> Bench {
    let (campus, http_clients, udp_sources, udp_sinks) = match workload {
        Workload::E3IdsBulk => e3_ids_bulk(seed),
        Workload::FlowChurn => flow_churn(seed),
        Workload::UdpSmall => udp_small(seed),
    };
    let n = campus.world.node_count();
    // No node has more ports than the legacy core, which has one per
    // AS switch plus 16 spare; unlinked ports can still count drops.
    let max_port = (n + 17).max(41) as u32;
    let ports = (0..n)
        .map(NodeId::from_index)
        .flat_map(|id| (0..=max_port).map(move |p| (id, PortId(p))))
        .collect();
    Bench {
        campus,
        http_clients,
        udp_sources,
        udp_sinks,
        events: 0,
        ports,
    }
}

type Built = (Campus, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>);

fn e3_ids_bulk(seed: u64) -> Built {
    let (se_switches, ses_per_switch) = (10, 2);
    // One long-lived flow per pair pins to one element, so saturating
    // every element needs a pair per element plus slack.
    let n_pairs = se_switches * ses_per_switch + 2;
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("steer-web")
            .dst_port(80)
            .chain(vec![ServiceType::IntrusionDetection]),
    );
    // Closed-loop bulk transfers: queues sized above the data in flight.
    let mut big = LinkSpec::gigabit();
    big.queue_bytes = 32 * 1024 * 1024;
    let mut b = CampusBuilder::with_legacy_tiers_uplink(seed, se_switches + 2 * n_pairs, 0, big)
        .with_policy(policy)
        .with_balancer(LoadBalancer::min_load())
        .with_user_link(big)
        .with_se_link(big);
    for s in 0..se_switches {
        for _ in 0..ses_per_switch {
            b.add_service_element(
                s,
                ServiceElement::new(IdsEngine::engine())
                    .with_capacity_bps(IDS_PER_VM_BPS)
                    .with_per_packet_overhead(SimDuration::ZERO)
                    .with_max_backlog(SimDuration::from_millis(400)),
            );
        }
    }
    let mut clients = Vec::with_capacity(n_pairs);
    for p in 0..n_pairs {
        let server = b.add_user(se_switches + 2 * p + 1, HttpServer::new());
        let start = 900_000 + 3_000 * p as u64 + draw(seed, p as u64, 1_000);
        let client = b.add_user(
            se_switches + 2 * p,
            HttpClient::new(server.ip, 1_000_000).with_start_delay(SimDuration::from_micros(start)),
        );
        clients.push(client.node);
    }
    (b.finish(), clients, Vec::new(), Vec::new())
}

fn flow_churn(seed: u64) -> Built {
    let n_switches = 16;
    let n_pairs = 32;
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
    let mut b = CampusBuilder::new(seed, n_switches)
        .with_policy(policy)
        .configure_controller(|c| c.set_flow_idle_timeout(SimDuration::from_millis(100)));
    for s in [0, 8] {
        b.add_service_element(s, ServiceElement::new(IdsEngine::engine()));
    }
    for s in [4, 12] {
        b.add_service_element(s, ServiceElement::new(ProtoIdEngine::new()));
    }
    // Think times are spread evenly over 1.5–2.5 ms. Clients p and
    // p + n_switches share an AS switch and get slots k and n − 1 − k,
    // so every switch (and, with servers five switches on, every
    // switch's server side) carries nearly the same load. The seed
    // deals the slot pairs out to switches and picks which client of
    // a pair gets the shorter time, so the offered load, and with it
    // each steady flow-table size, is the same for every seed.
    let n = n_pairs as u64;
    let half = n_switches as u64;
    assert_eq!(n, 2 * half, "two clients per AS switch");
    let mut pair_of: Vec<u64> = (0..half).collect();
    for i in (1..half).rev() {
        pair_of.swap(i as usize, draw(seed, n + i, i + 1) as usize);
    }
    let mut clients = Vec::with_capacity(n_pairs);
    for p in 0..n_pairs {
        let server = b.add_user((p + 5) % n_switches, HttpServer::new());
        let start = 1_000_000 + draw(seed, p as u64, 10_000);
        let switch = p % n_switches;
        let (k, second) = (pair_of[switch], p >= n_switches);
        let short_first = draw(seed, 2 * n + switch as u64, 2) == 0;
        let slot = if second == short_first { n - 1 - k } else { k };
        let think = 1_500 + 1_000 * (2 * slot + 1) / (2 * n);
        let client = b.add_user(
            p % n_switches,
            HttpClient::new(server.ip, 2_048)
                .with_think_time(SimDuration::from_micros(think))
                .with_rotating_ports()
                .with_start_delay(SimDuration::from_micros(start)),
        );
        clients.push(client.node);
    }
    (b.finish(), clients, Vec::new(), Vec::new())
}

fn udp_small(seed: u64) -> Built {
    let n_switches = 16;
    let n_pairs = 32;
    let mut b = CampusBuilder::new(seed, n_switches).with_policy(PolicyTable::allow_all());
    let end = SimTime::ZERO + Workload::UdpSmall.warmup() + Workload::UdpSmall.span();
    // Sources stop before the span ends, so nothing is in flight when
    // delivered datagrams are counted.
    let stop = SimTime::from_nanos(end.as_nanos() - 2_000_000);
    let (mut sources, mut sinks) = (Vec::new(), Vec::new());
    for p in 0..n_pairs {
        let sink = b.add_user((p + 8) % n_switches, UdpSink::default());
        let start = 1_000_000 + draw(seed, p as u64, 1_000);
        let source = b.add_user(
            p % n_switches,
            UdpSource::new(
                sink.ip,
                UDP_MEAN_GAP,
                SimDuration::from_micros(start),
                stop,
                draw(seed, (n_pairs + p) as u64, u64::MAX),
            ),
        );
        sources.push(source.node);
        sinks.push(sink.node);
    }
    (b.finish(), Vec::new(), sources, sinks)
}

/// Counters of a campus at one instant. Two runs of one seed must
/// produce equal tallies at equal simulated times.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Simulated time.
    pub now: SimTime,
    /// Events dispatched.
    pub events: u64,
    /// Sum of every port's counters.
    pub ports: PortCounters,
    /// Bytes received on port 1 of every host, in node order.
    pub host_rx_bytes: Vec<u64>,
    /// Application payload bytes delivered.
    pub app_bytes: u64,
    /// Operations issued: HTTP requests, or UDP datagrams sent.
    pub issued: u64,
    /// Operations completed: HTTP responses, or UDP datagrams received.
    pub completed: u64,
    /// Operations failed: aborted HTTP requests, or UDP datagrams
    /// delivered twice.
    pub failed: u64,
    /// Per client (or sink), how many latency samples it holds.
    pub latency_marks: Vec<usize>,
    /// Flow setups completed by the controller.
    pub flow_setups: u64,
    /// Decision-cache hits.
    pub cache_hits: u64,
    /// Decision-cache misses.
    pub cache_misses: u64,
    /// Decision-cache entries.
    pub cache_entries: u64,
    /// Control batches flushed.
    pub batches: u64,
    /// Messages sent inside batches.
    pub batched_msgs: u64,
    /// Monitor history length.
    pub monitor_events: u64,
    /// Service-element packets processed.
    pub se_processed: u64,
    /// Service-element packets dropped for overload.
    pub se_overload_drops: u64,
}

impl Bench {
    /// Advances the simulation by `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        self.events = self.campus.world.run_for(d).events;
    }

    /// Reads every counter the benchmark reports.
    pub fn tally(&self) -> Tally {
        let world = &self.campus.world;
        let k = world.kernel();
        let mut t = Tally {
            now: k.now(),
            events: self.events,
            ..Tally::default()
        };
        for &(node, port) in &self.ports {
            let c = k.port_counters(node, port);
            let s = &mut t.ports;
            s.tx_frames += c.tx_frames;
            s.tx_bytes += c.tx_bytes;
            s.rx_frames += c.rx_frames;
            s.rx_bytes += c.rx_bytes;
            s.drops += c.drops;
        }
        t.host_rx_bytes = self
            .campus
            .users
            .iter()
            .map(|u| k.port_counters(u.node, PortId(1)).rx_bytes)
            .collect();
        for &id in &self.http_clients {
            let c = world.node::<Host<HttpClient>>(id).app();
            t.app_bytes += c.bytes_received;
            t.issued += u64::from(c.requests);
            t.completed += u64::from(c.completed);
            t.failed += u64::from(c.aborted);
            t.latency_marks.push(c.latencies.count());
        }
        for &id in &self.udp_sources {
            t.issued += world.node::<Host<UdpSource>>(id).app().sent;
        }
        for &id in &self.udp_sinks {
            let s = world.node::<Host<UdpSink>>(id).app();
            t.app_bytes += s.bytes;
            t.completed += s.delivered;
            t.failed += s.duplicates;
            t.latency_marks.push(s.latencies.len());
        }
        let c = self.campus.controller();
        let fp = c.fast_path_stats();
        t.flow_setups = fp.flow_setups;
        t.cache_hits = fp.hits;
        t.cache_misses = fp.misses;
        t.cache_entries = fp.entries;
        t.batches = fp.batches_flushed;
        t.batched_msgs = fp.messages_batched;
        t.monitor_events = c.monitor().len() as u64;
        for se in &self.campus.ses {
            let counters = match world
                .try_node::<Host<ServiceElement<livesec_services::SignatureEngine>>>(se.node)
            {
                Some(h) => h.app().counters(),
                None => world
                    .node::<Host<ServiceElement<ProtoIdEngine>>>(se.node)
                    .app()
                    .counters(),
            };
            t.se_processed += counters.processed_packets;
            t.se_overload_drops += counters.overload_drops;
        }
        t
    }

    /// Latency samples recorded after `marks` (a [`Tally`]'s
    /// `latency_marks`), in simulated nanoseconds.
    pub fn latencies_since(&self, marks: &[usize]) -> Vec<u64> {
        let world = &self.campus.world;
        let mut out = Vec::new();
        let http = self
            .http_clients
            .iter()
            .map(|&id| world.node::<Host<HttpClient>>(id).app().latencies.samples());
        let udp = self
            .udp_sinks
            .iter()
            .map(|&id| world.node::<Host<UdpSink>>(id).app().latencies.as_slice());
        for (samples, &mark) in http.chain(udp).zip(marks) {
            out.extend(samples[mark..].iter().map(|d| d.as_nanos()));
        }
        out
    }

    /// Per-client request accounting for HTTP workloads: every issued
    /// request is completed, aborted, or the one still outstanding.
    pub fn http_requests_accounted(&self) -> bool {
        self.http_clients.iter().all(|&id| {
            let c = self.campus.world.node::<Host<HttpClient>>(id).app();
            let settled = c.completed + c.aborted;
            c.requests >= settled && c.requests - settled <= 1
        })
    }
}
