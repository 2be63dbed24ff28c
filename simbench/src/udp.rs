//! Open-loop UDP source and sink for the small-frame workload.
//!
//! `livesec-workloads`' `UdpBlaster` sends at a fixed interval, and a
//! fixed-interval stream below link rate never queues: every datagram
//! would take the same time and the latency percentiles would not
//! depend on the inputs at all. The source here keeps the same mean
//! rate but draws exponential gaps (Poisson arrivals, independent
//! users) from a seeded generator, and stamps each datagram with its
//! sequence number and due time so the sink can time it from when it
//! was due.

use livesec_net::{Packet, Payload};
use livesec_sim::{SimDuration, SimTime};
use livesec_switch::{App, HostIo};
use std::net::Ipv4Addr;

/// Destination port of the benchmark's datagrams.
const PORT: u16 = 5001;
/// UDP payload bytes: an 18-byte payload makes a 64-byte frame.
const PAYLOAD_LEN: usize = 18;

/// A Poisson UDP source: `mean_gap` apart on average, from `start`
/// until `stop`.
#[derive(Debug)]
pub struct UdpSource {
    dst: Ipv4Addr,
    mean_gap_ns: f64,
    start: SimDuration,
    stop: SimTime,
    rng: u64,
    /// Datagrams sent.
    pub sent: u64,
}

impl UdpSource {
    /// A source toward `dst` with exponential gaps of mean `mean_gap`,
    /// drawn from a generator seeded with `seed`.
    pub fn new(
        dst: Ipv4Addr,
        mean_gap: SimDuration,
        start: SimDuration,
        stop: SimTime,
        seed: u64,
    ) -> Self {
        UdpSource {
            dst,
            mean_gap_ns: mean_gap.as_nanos() as f64,
            start,
            stop,
            rng: seed,
            sent: 0,
        }
    }

    /// An inert source, used only while a node is moved into a shim.
    pub fn placeholder() -> Self {
        UdpSource::new(
            Ipv4Addr::UNSPECIFIED,
            SimDuration::from_secs(1),
            SimDuration::ZERO,
            SimTime::ZERO,
            0,
        )
    }

    fn gap(&mut self) -> SimDuration {
        let u = (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
        let ns = -(1.0 - u).ln() * self.mean_gap_ns;
        SimDuration::from_nanos((ns as u64).max(1))
    }
}

impl App for UdpSource {
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        let first = self.start + self.gap();
        io.set_timer(first, 1);
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, _token: u64) {
        let now = io.now();
        if now >= self.stop {
            return;
        }
        let mut payload = vec![0u8; PAYLOAD_LEN];
        payload[..8].copy_from_slice(&self.sent.to_le_bytes());
        payload[8..16].copy_from_slice(&now.as_nanos().to_le_bytes());
        io.send_udp(self.dst, 5002, PORT, Payload::from(payload));
        self.sent += 1;
        let gap = self.gap();
        io.set_timer(gap, 1);
    }
}

/// Counts and times the datagrams of one [`UdpSource`].
#[derive(Debug, Default)]
pub struct UdpSink {
    /// Datagrams received.
    pub delivered: u64,
    /// Payload bytes received.
    pub bytes: u64,
    /// Datagrams that arrived more than once, or unreadable.
    pub duplicates: u64,
    seen: Vec<bool>,
    /// One-way latency of every datagram, from its due time, in
    /// arrival order.
    pub latencies: Vec<SimDuration>,
}

impl App for UdpSink {
    fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
        let Some(udp) = pkt.udp() else { return };
        if udp.dst_port != PORT {
            return;
        }
        let body = udp.payload.content();
        // Reordering is legal (datagrams that raced their flow's setup
        // arrive by packet-out after later ones); duplicates are not.
        let (Some(seq), Some(due)) = (le_u64(body, 0), le_u64(body, 8)) else {
            self.duplicates += 1;
            return;
        };
        let Ok(seq) = usize::try_from(seq) else {
            self.duplicates += 1;
            return;
        };
        if self.seen.len() <= seq {
            self.seen.resize(seq + 1, false);
        }
        if std::mem::replace(&mut self.seen[seq], true) {
            self.duplicates += 1;
            return;
        }
        self.delivered += 1;
        self.bytes += body.len() as u64;
        self.latencies
            .push(io.now().since(SimTime::from_nanos(due)));
    }
}

fn le_u64(b: &[u8], at: usize) -> Option<u64> {
    let bytes: [u8; 8] = b.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// One step of the splitmix64 generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
