//! Concrete forwarding traces over a [`Snapshot`].
//!
//! The verifier reasons per equivalence class of headers but *traces*
//! one concrete representative: inject a witness packet at an ingress
//! port and replay exactly what the flow tables would do to it —
//! highest-priority match wins (install order breaks ties, mirroring
//! `FlowTable::lookup`), actions apply in sequence, an output on the
//! uplink crosses the legacy fabric to wherever the current
//! destination MAC is attached, and an output to a service element's
//! port re-enters the same switch on that port (the element reflects
//! admitted traffic back). The trace ends when the packet is
//! delivered, dropped, lost, or provably looping.

use crate::snapshot::Snapshot;
use livesec::controller::{BLOCK_PRIORITY, DENY_COOKIE};
use livesec_net::{FlowKey, MacAddr};
use livesec_openflow::{Action, FlowEntry, OutPort};
use livesec_services::ServiceType;
use std::collections::BTreeSet;
use std::fmt;

/// Safety bound on trace length; no legitimate path in a campus of
/// `n` switches exceeds a handful of hops per chained element, so
/// hitting this bound is reported as a (pathological) loop.
const HOP_LIMIT: usize = 64;

/// How a trace ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEnd {
    /// The packet reached an endpoint's port.
    Delivered {
        /// Switch that delivered it.
        dpid: u64,
        /// Port it left on.
        port: u32,
        /// The endpoint attached there.
        mac: MacAddr,
    },
    /// A matching entry had an empty action list.
    Dropped {
        /// Switch that dropped it.
        dpid: u64,
        /// The dropping entry's cookie.
        cookie: u64,
        /// The dropping entry's priority.
        priority: u16,
    },
    /// No entry matched — the switch would packet-in to the
    /// controller (reactive setup, not forwarding).
    Miss {
        /// Switch with no matching entry.
        dpid: u64,
    },
    /// An entry explicitly sent the packet to the controller.
    ToController {
        /// Switch that punted.
        dpid: u64,
    },
    /// An entry flooded the packet (reaches every attached endpoint).
    Flooded {
        /// Switch that flooded.
        dpid: u64,
    },
    /// The packet left on the uplink but its destination MAC is not
    /// located anywhere — the legacy fabric has nowhere to learn it.
    FabricLost {
        /// The unlocated destination MAC.
        mac: MacAddr,
    },
    /// Output to a port with nothing attached.
    DeadEnd {
        /// Switch that emitted it.
        dpid: u64,
        /// The empty port.
        port: u32,
    },
    /// The packet revisited a `(switch, port, headers)` state — a
    /// forwarding loop (also reported when the hop bound trips).
    Loop {
        /// Switch where the repeat was detected.
        dpid: u64,
    },
}

impl TraceEnd {
    /// Whether this end is an administrative drop (block or deny
    /// entry) rather than a forwarding defect.
    pub fn is_admin_drop(&self) -> bool {
        matches!(
            self,
            TraceEnd::Dropped { priority, .. } if *priority == BLOCK_PRIORITY
        ) || matches!(self, TraceEnd::Dropped { cookie, .. } if *cookie == DENY_COOKIE)
    }
}

impl fmt::Display for TraceEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEnd::Delivered { dpid, port, mac } => {
                write!(f, "delivered to {mac} at dpid {dpid} port {port}")
            }
            TraceEnd::Dropped {
                dpid,
                cookie,
                priority,
            } => write!(
                f,
                "dropped at dpid {dpid} (cookie {cookie}, priority {priority})"
            ),
            TraceEnd::Miss { dpid } => write!(f, "table miss at dpid {dpid}"),
            TraceEnd::ToController { dpid } => write!(f, "sent to controller at dpid {dpid}"),
            TraceEnd::Flooded { dpid } => write!(f, "flooded at dpid {dpid}"),
            TraceEnd::FabricLost { mac } => {
                write!(f, "lost in legacy fabric (dst {mac} unlocated)")
            }
            TraceEnd::DeadEnd { dpid, port } => {
                write!(f, "dead end at dpid {dpid} port {port} (nothing attached)")
            }
            TraceEnd::Loop { dpid } => write!(f, "forwarding loop via dpid {dpid}"),
        }
    }
}

/// One step of a trace: the packet state entering a switch.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// Switch the packet entered.
    pub dpid: u64,
    /// Port it entered on.
    pub in_port: u32,
    /// Headers on entry.
    pub key: FlowKey,
}

/// A full forwarding trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The switch entries the packet traversed, in order.
    pub steps: Vec<TraceStep>,
    /// How it ended.
    pub end: TraceEnd,
    /// Service elements traversed, in traversal order.
    pub traversed: Vec<(MacAddr, ServiceType)>,
}

impl Trace {
    /// The service types traversed, in order.
    pub fn traversed_types(&self) -> Vec<ServiceType> {
        self.traversed.iter().map(|(_, t)| *t).collect()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.steps {
            writeln!(
                f,
                "    dpid {} in_port {} :: {} -> {}",
                s.dpid, s.in_port, s.key.dl_src, s.key.dl_dst
            )?;
        }
        write!(f, "    => {}", self.end)
    }
}

/// The winning entry for a packet at one switch, mirroring
/// `FlowTable::lookup`: highest priority, earliest installation on a
/// tie. `entries` must be in install order.
pub fn best_entry<'a>(
    entries: &'a [FlowEntry],
    in_port: u32,
    key: &FlowKey,
) -> Option<&'a FlowEntry> {
    let mut best: Option<&FlowEntry> = None;
    for e in entries {
        if !e.matcher.matches(in_port, key) {
            continue;
        }
        match best {
            Some(b) if b.priority >= e.priority => {}
            _ => best = Some(e),
        }
    }
    best
}

/// Applies one header rewrite to `key` (outputs leave it unchanged).
pub fn apply_to_key(key: &mut FlowKey, action: &Action) {
    match *action {
        Action::SetDlSrc(m) => key.dl_src = m,
        Action::SetDlDst(m) => key.dl_dst = m,
        Action::SetNwSrc(ip) => key.nw_src = ip,
        Action::SetNwDst(ip) => key.nw_dst = ip,
        Action::SetTpSrc(p) => key.tp_src = p,
        Action::SetTpDst(p) => key.tp_dst = p,
        Action::SetVlan(v) => key.vlan = Some(v),
        Action::StripVlan => key.vlan = None,
        Action::Output(_) => {}
    }
}

/// Traces a concrete packet injected at `(dpid, in_port)` through the
/// snapshot's flow tables until it is delivered, dropped, or lost.
pub fn trace(snap: &Snapshot, dpid: u64, in_port: u32, key: FlowKey) -> Trace {
    let mut steps = Vec::new();
    let mut traversed = Vec::new();
    let mut visited: BTreeSet<(u64, u32, FlowKey)> = BTreeSet::new();

    let mut cur_dpid = dpid;
    let mut cur_port = in_port;
    let mut cur_key = key;

    loop {
        if steps.len() >= HOP_LIMIT {
            return Trace {
                steps,
                end: TraceEnd::Loop { dpid: cur_dpid },
                traversed,
            };
        }
        if !visited.insert((cur_dpid, cur_port, cur_key)) {
            return Trace {
                steps,
                end: TraceEnd::Loop { dpid: cur_dpid },
                traversed,
            };
        }
        steps.push(TraceStep {
            dpid: cur_dpid,
            in_port: cur_port,
            key: cur_key,
        });

        let Some(sw) = snap.switch(cur_dpid) else {
            return Trace {
                steps,
                end: TraceEnd::FabricLost {
                    mac: cur_key.dl_dst,
                },
                traversed,
            };
        };
        let Some(entry) = best_entry(&sw.entries, cur_port, &cur_key) else {
            return Trace {
                steps,
                end: TraceEnd::Miss { dpid: cur_dpid },
                traversed,
            };
        };

        // Apply the action list; follow the first output.
        let mut out: Option<OutPort> = None;
        let mut out_key = cur_key;
        let mut scratch = cur_key;
        for a in &entry.actions {
            if let Action::Output(dest) = a {
                if out.is_none() {
                    out = Some(*dest);
                    out_key = scratch;
                }
            } else {
                apply_to_key(&mut scratch, a);
            }
        }
        let Some(dest) = out else {
            return Trace {
                steps,
                end: TraceEnd::Dropped {
                    dpid: cur_dpid,
                    cookie: entry.cookie,
                    priority: entry.priority,
                },
                traversed,
            };
        };

        let port = match dest {
            OutPort::Physical(p) => p,
            OutPort::InPort => cur_port,
            OutPort::Controller => {
                return Trace {
                    steps,
                    end: TraceEnd::ToController { dpid: cur_dpid },
                    traversed,
                }
            }
            OutPort::Flood => {
                return Trace {
                    steps,
                    end: TraceEnd::Flooded { dpid: cur_dpid },
                    traversed,
                }
            }
        };

        if Some(port) == sw.uplink {
            // Into the legacy fabric: plain L2 delivers toward the
            // switch where the (possibly rewritten) destination MAC
            // attaches; the frame re-enters it on its uplink.
            let Some(host) = snap.host_of(out_key.dl_dst) else {
                return Trace {
                    steps,
                    end: TraceEnd::FabricLost {
                        mac: out_key.dl_dst,
                    },
                    traversed,
                };
            };
            let Some(next_up) = snap.switch(host.dpid).and_then(|s| s.uplink) else {
                return Trace {
                    steps,
                    end: TraceEnd::FabricLost {
                        mac: out_key.dl_dst,
                    },
                    traversed,
                };
            };
            cur_dpid = host.dpid;
            cur_port = next_up;
            cur_key = out_key;
            continue;
        }

        // A periphery port: service element, endpoint, or nothing.
        let attached = snap
            .hosts
            .iter()
            .find(|h| h.dpid == cur_dpid && h.port == port);
        let Some(host) = attached else {
            return Trace {
                steps,
                end: TraceEnd::DeadEnd {
                    dpid: cur_dpid,
                    port,
                },
                traversed,
            };
        };
        if let Some(service) = snap.element_type(host.mac) {
            // The element inspects and reflects the frame unchanged;
            // it re-enters the same switch on the element's port.
            traversed.push((host.mac, service));
            cur_port = port;
            cur_key = out_key;
            continue;
        }
        return Trace {
            steps,
            end: TraceEnd::Delivered {
                dpid: cur_dpid,
                port,
                mac: host.mac,
            },
            traversed,
        };
    }
}
