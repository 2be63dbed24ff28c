//! Per-layer metrics of a traced repetition.
//!
//! Callback self times come from the shim over the measured span; the
//! kernel gets the rest of the span. Codec, flow-table and engine costs
//! are timed afterwards, outside the span, on frames sampled during it
//! and on the tables the span left behind.

use crate::clock::Stopwatch;
use crate::shim::{Callback, Class, Cost, Samples, Snapshot};
use crate::workload::{Bench, Tally};
use livesec_net::{wire, FlowKey, Packet};
use livesec_openflow::{FlowEntry, FlowTable};
use livesec_services::{IdsEngine, Inspector};
use livesec_sim::SimTime;
use std::hint::black_box;

/// A metric value with its unit.
pub type Metric = (f64, &'static str);

/// Each offline timing repeats its work until it has run this long.
const MIN_TIMED_NS: u64 = 20_000_000;

/// Repeats `pass` (which handles `items` items and returns the
/// nanoseconds it spent on them) until [`MIN_TIMED_NS`] have been
/// measured; returns nanoseconds per item, or 0 with no items.
fn per_item(items: usize, mut pass: impl FnMut() -> u64) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let (mut ns, mut done) = (0u64, 0usize);
    while ns < MIN_TIMED_NS {
        ns += pass();
        done += items;
    }
    ns as f64 / done as f64
}

/// Nanoseconds `f` takes.
fn timed(f: impl FnOnce()) -> u64 {
    let t = Stopwatch::start();
    f();
    t.nanos()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of a traced span, from the counters `b`
/// before and `a` after it, its wall time `run_s` and the shim's
/// accumulation `d` over it; all but the tracing overhead, which needs
/// the untraced repetitions.
pub fn metrics(
    bench: &Bench,
    b: &Tally,
    a: &Tally,
    run_s: f64,
    d: &Snapshot,
    samples: &Samples,
) -> Vec<(&'static str, Metric)> {
    let span_ns = run_s * 1e9;
    let kernel_ns = span_ns - d.callback_nanos() as f64 - d.shim_nanos as f64;
    let events = (a.events - b.events) as f64;
    let cost = |class, cb| d.cost(class, cb);
    let s = |c: Cost| c.nanos as f64 * 1e-9;
    let ns = |c: Cost| ratio(c.nanos as f64, c.calls as f64);
    let calls = |c: Cost| c.calls as f64;
    let engine_ns_per_pkt = |class| {
        let busy = cost(class, Callback::Frame).nanos + cost(class, Callback::Timer).nanos;
        ratio(busy as f64, calls(cost(class, Callback::Frame)))
    };

    let as_frame = cost(Class::AsSwitch, Callback::Frame);
    let as_control = cost(Class::AsSwitch, Callback::Control);
    let as_timer = cost(Class::AsSwitch, Callback::Timer);
    let legacy = cost(Class::Legacy, Callback::Frame);
    let ctl_control = cost(Class::Controller, Callback::Control);
    let lookups = (a.cache_hits - b.cache_hits) + (a.cache_misses - b.cache_misses);
    let table = replay_tables(bench);
    let (serialize_ns, parse_ns) = wire_costs(&samples.switch_frames);
    let inspect_ns = ids_inspect_cost(&samples.ids_frames);
    let m = &d.msgs;

    vec![
        ("sim.events", (events, "count")),
        ("sim.kernel_s", (kernel_ns * 1e-9, "s")),
        ("sim.kernel_ns_per_event", (ratio(kernel_ns, events), "ns")),
        (
            "sim.port_drops",
            ((a.ports.drops - b.ports.drops) as f64, "count"),
        ),
        ("switch.as.frame_calls", (calls(as_frame), "count")),
        ("switch.as.frame_s", (s(as_frame), "s")),
        ("switch.as.frame_ns", (ns(as_frame), "ns")),
        ("switch.as.control_calls", (calls(as_control), "count")),
        ("switch.as.control_s", (s(as_control), "s")),
        ("switch.as.control_ns", (ns(as_control), "ns")),
        ("switch.as.timer_s", (s(as_timer), "s")),
        ("switch.as.timer_ns", (ns(as_timer), "ns")),
        ("switch.legacy.frame_calls", (calls(legacy), "count")),
        ("switch.legacy.frame_s", (s(legacy), "s")),
        ("switch.legacy.frame_ns", (ns(legacy), "ns")),
        (
            "switch.host.frame_s",
            (s(cost(Class::Host, Callback::Frame)), "s"),
        ),
        (
            "switch.host.timer_s",
            (s(cost(Class::Host, Callback::Timer)), "s"),
        ),
        (
            "services.ids.frame_s",
            (s(cost(Class::SeIds, Callback::Frame)), "s"),
        ),
        (
            "services.ids.timer_s",
            (s(cost(Class::SeIds, Callback::Timer)), "s"),
        ),
        (
            "services.ids.ns_per_pkt",
            (engine_ns_per_pkt(Class::SeIds), "ns"),
        ),
        ("services.ids.inspect_ns", (inspect_ns, "ns")),
        (
            "services.protoid.frame_s",
            (s(cost(Class::SeProtoid, Callback::Frame)), "s"),
        ),
        (
            "services.protoid.timer_s",
            (s(cost(Class::SeProtoid, Callback::Timer)), "s"),
        ),
        (
            "services.protoid.ns_per_pkt",
            (engine_ns_per_pkt(Class::SeProtoid), "ns"),
        ),
        (
            "services.se.processed_pkts",
            ((a.se_processed - b.se_processed) as f64, "count"),
        ),
        (
            "services.se.overload_drops",
            ((a.se_overload_drops - b.se_overload_drops) as f64, "count"),
        ),
        (
            "core.controller.control_calls",
            (calls(ctl_control), "count"),
        ),
        ("core.controller.control_s", (s(ctl_control), "s")),
        ("core.controller.control_ns", (ns(ctl_control), "ns")),
        (
            "core.controller.timer_s",
            (s(cost(Class::Controller, Callback::Timer)), "s"),
        ),
        (
            "core.flow_setups",
            ((a.flow_setups - b.flow_setups) as f64, "count"),
        ),
        (
            "core.cache.hit_ratio",
            (
                ratio((a.cache_hits - b.cache_hits) as f64, lookups as f64),
                "ratio",
            ),
        ),
        ("core.cache.entries", (a.cache_entries as f64, "count")),
        (
            "core.batch.msgs_per_flush",
            (
                ratio(
                    (a.batched_msgs - b.batched_msgs) as f64,
                    (a.batches - b.batches) as f64,
                ),
                "msgs",
            ),
        ),
        (
            "core.monitor.events",
            ((a.monitor_events - b.monitor_events) as f64, "count"),
        ),
        ("openflow.msgs.packet_in", (m.packet_in as f64, "count")),
        ("openflow.msgs.flow_mod", (m.flow_mod as f64, "count")),
        ("openflow.msgs.packet_out", (m.packet_out as f64, "count")),
        (
            "openflow.codec.decode_ns",
            (ratio(m.decode_nanos as f64, m.payloads as f64), "ns"),
        ),
        (
            "openflow.table.entries_max",
            (table.entries_max as f64, "count"),
        ),
        ("openflow.table.insert_ns", (table.insert_ns, "ns")),
        ("openflow.table.lookup_ns", (table.lookup_ns, "ns")),
        ("openflow.table.expire_ns", (table.expire_ns, "ns")),
        ("net.wire.serialize_ns", (serialize_ns, "ns")),
        ("net.wire.parse_ns", (parse_ns, "ns")),
        ("trace.span_s", (run_s, "s")),
        ("trace.shim_s", (d.shim_nanos as f64 * 1e-9, "s")),
    ]
}

struct TableCosts {
    entries_max: usize,
    insert_ns: f64,
    lookup_ns: f64,
    expire_ns: f64,
}

/// Replays every access switch's end-of-span flow table into fresh
/// tables: insert cost per entry, exact-match lookup cost, and the cost
/// per entry of an idle-expiry sweep that evicts nothing.
fn replay_tables(bench: &Bench) -> TableCosts {
    let campus = &bench.campus;
    let now = campus.world.kernel().now().as_nanos();
    let snaps: Vec<Vec<FlowEntry>> = (0..campus.as_switches.len())
        .map(|i| campus.switch(i).table_snapshot())
        .collect();
    let entries: usize = snaps.iter().map(Vec::len).sum();
    let fill = || {
        let mut tables: Vec<FlowTable> = snaps.iter().map(|_| FlowTable::new()).collect();
        let copies = snaps.clone();
        let ns = timed(|| {
            for (t, snap) in tables.iter_mut().zip(copies) {
                for e in snap {
                    black_box(t.insert_at(e, now));
                }
            }
        });
        (tables, ns)
    };
    let insert_ns = per_item(entries, || fill().1);
    let (mut tables, _) = fill();
    let probes: Vec<Vec<(u32, FlowKey)>> = snaps
        .iter()
        .map(|snap| {
            snap.iter()
                .filter_map(|e| Some((e.matcher.in_port.unwrap_or(0), e.matcher.exact_key()?)))
                .collect()
        })
        .collect();
    let n_probes: usize = probes.iter().map(Vec::len).sum();
    let lookup_ns = per_item(n_probes, || {
        timed(|| {
            for (t, ps) in tables.iter_mut().zip(&probes) {
                for (port, key) in ps {
                    black_box(t.lookup(*port, key, now).is_some());
                }
            }
        })
    });
    let expire_ns = per_item(entries, || {
        timed(|| {
            for t in tables.iter_mut() {
                black_box(t.expire(now));
            }
        })
    });
    TableCosts {
        entries_max: snaps.iter().map(Vec::len).max().unwrap_or(0),
        insert_ns,
        lookup_ns,
        expire_ns,
    }
}

/// Serialization and parse cost per sampled frame.
fn wire_costs(frames: &[Packet]) -> (f64, f64) {
    let bytes: Vec<Vec<u8>> = frames.iter().map(wire::serialize).collect();
    let serialize_ns = per_item(frames.len(), || {
        timed(|| {
            for f in frames {
                black_box(wire::serialize(black_box(f)));
            }
        })
    });
    let parse_ns = per_item(bytes.len(), || {
        timed(|| {
            for b in &bytes {
                black_box(wire::parse(black_box(b)).is_ok());
            }
        })
    });
    (serialize_ns, parse_ns)
}

/// Inspection cost per sampled IDS frame, through a private engine.
fn ids_inspect_cost(frames: &[Packet]) -> f64 {
    let keyed: Vec<(FlowKey, &Packet)> = frames
        .iter()
        .filter_map(|p| Some((FlowKey::of(p)?, p)))
        .collect();
    let mut engine = IdsEngine::engine();
    per_item(keyed.len(), || {
        timed(|| {
            for (key, pkt) in &keyed {
                black_box(engine.inspect_packet(key, pkt, SimTime::ZERO));
            }
        })
    })
}
