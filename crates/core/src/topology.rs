//! The controller's network information base: switches and the
//! full-mesh logical topology (paper §III-C.1).
//!
//! The controller observes switch joins over their secure channels and
//! discovers logical links by flooding LLDP probes: a probe emitted by
//! switch A that arrives (as a packet-in) at switch B proves the
//! legacy fabric connects them. Because the Legacy-Switching layer
//! gives reachability between *all* AS switches, discovery converges
//! on a full-mesh logical topology, and any end-to-end delivery needs
//! only abstract two-hop routing (ingress switch → egress switch).

use livesec_sim::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A directed logical link: probe origin → probe receiver.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct LogicalLink {
    /// Origin switch and port.
    pub from: (u64, u32),
    /// Receiving switch and port.
    pub to: (u64, u32),
}

/// Per-switch state the controller keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SwitchInfo {
    /// Datapath id.
    pub dpid: u64,
    /// The simulator node to address control messages to.
    pub node: NodeId,
    /// Number of ports reported in the features reply.
    pub n_ports: u32,
    /// The port that faces the legacy fabric (learned from LLDP
    /// arrivals); `None` until discovery converges.
    pub uplink: Option<u32>,
}

/// The topology map: switch registry plus the logical link set.
#[derive(Debug, Default)]
pub struct TopologyMap {
    switches: BTreeMap<u64, SwitchInfo>,
    by_node: BTreeMap<NodeId, u64>,
    links: BTreeSet<LogicalLink>,
}

impl TopologyMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a switch after its features reply. Returns `true` if
    /// it was new. Re-registering a known switch (a reconnect after a
    /// crash or partition) keeps its discovered uplink: the physical
    /// cabling did not change just because the session did.
    pub fn add_switch(&mut self, dpid: u64, node: NodeId, n_ports: u32) -> bool {
        self.by_node.insert(node, dpid);
        let uplink = self.switches.get(&dpid).and_then(|s| s.uplink);
        self.switches
            .insert(
                dpid,
                SwitchInfo {
                    dpid,
                    node,
                    n_ports,
                    uplink,
                },
            )
            .is_none()
    }

    /// Deregisters a dead switch: its info and every logical link that
    /// touches it are dropped. Returns `false` if the dpid was unknown.
    /// The switch may re-register later via a fresh features reply.
    pub fn remove_switch(&mut self, dpid: u64) -> bool {
        let Some(info) = self.switches.remove(&dpid) else {
            return false;
        };
        self.by_node.remove(&info.node);
        self.links.retain(|l| l.from.0 != dpid && l.to.0 != dpid);
        true
    }

    /// Records an LLDP observation: a probe from `(src_dpid,
    /// src_port)` arrived at `(dst_dpid, in_port)`. Returns `true` if
    /// the link was new.
    ///
    /// The receiving port is marked as the receiver's uplink: LLDP can
    /// only cross the legacy fabric, never a host port. The origin's
    /// uplink is learned the same way when the peer probes back.
    pub fn observe_lldp(&mut self, from: (u64, u32), to: (u64, u32)) -> bool {
        if let Some(sw) = self.switches.get_mut(&to.0) {
            sw.uplink = Some(to.1);
        }
        self.links.insert(LogicalLink { from, to })
    }

    /// The switch info for a datapath id.
    pub fn switch(&self, dpid: u64) -> Option<&SwitchInfo> {
        self.switches.get(&dpid)
    }

    /// The datapath id served by a controller-side peer node.
    pub fn dpid_of_node(&self, node: NodeId) -> Option<u64> {
        self.by_node.get(&node).copied()
    }

    /// The uplink port of a switch (the port facing the legacy layer).
    pub fn uplink_of(&self, dpid: u64) -> Option<u32> {
        self.switches.get(&dpid).and_then(|s| s.uplink)
    }

    /// All registered switches in dpid order.
    pub fn switches(&self) -> impl Iterator<Item = &SwitchInfo> {
        self.switches.values()
    }

    /// Number of registered switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// The discovered logical links.
    pub fn links(&self) -> impl Iterator<Item = &LogicalLink> {
        self.links.iter()
    }

    /// Whether the logical topology is a full mesh over the registered
    /// switches (each ordered pair connected) — the paper's §III-C.1
    /// property.
    pub fn is_full_mesh(&self) -> bool {
        let n = self.switches.len();
        if n < 2 {
            return true;
        }
        let mut pairs = BTreeSet::new();
        for l in &self.links {
            pairs.insert((l.from.0, l.to.0));
        }
        for &a in self.switches.keys() {
            for &b in self.switches.keys() {
                if a != b && !pairs.contains(&(a, b)) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn switch_registration() {
        let mut t = TopologyMap::new();
        assert!(t.add_switch(1, node(10), 4));
        assert!(!t.add_switch(1, node(10), 4), "re-add is not new");
        assert_eq!(t.switch_count(), 1);
        assert_eq!(t.dpid_of_node(node(10)), Some(1));
        assert_eq!(t.switch(1).unwrap().n_ports, 4);
        assert_eq!(t.dpid_of_node(node(99)), None);
    }

    #[test]
    fn lldp_learns_links_and_uplinks() {
        let mut t = TopologyMap::new();
        t.add_switch(1, node(10), 4);
        t.add_switch(2, node(11), 4);
        assert!(t.observe_lldp((1, 1), (2, 1)));
        assert!(!t.observe_lldp((1, 1), (2, 1)), "duplicate");
        assert_eq!(t.uplink_of(2), Some(1));
        assert_eq!(t.uplink_of(1), None, "not yet observed inbound");
        assert!(t.observe_lldp((2, 1), (1, 1)));
        assert_eq!(t.uplink_of(1), Some(1));
        assert_eq!(t.links().count(), 2);
    }

    #[test]
    fn remove_switch_drops_info_and_links() {
        let mut t = TopologyMap::new();
        t.add_switch(1, node(10), 4);
        t.add_switch(2, node(11), 4);
        t.observe_lldp((1, 1), (2, 1));
        t.observe_lldp((2, 1), (1, 1));
        assert!(t.remove_switch(2));
        assert!(!t.remove_switch(2), "already gone");
        assert_eq!(t.switch_count(), 1);
        assert_eq!(t.dpid_of_node(node(11)), None);
        assert_eq!(t.links().count(), 0, "links touching it dropped");
        // Re-registration works and is reported as new again.
        assert!(t.add_switch(2, node(11), 4));
    }

    #[test]
    fn readd_preserves_uplink() {
        let mut t = TopologyMap::new();
        t.add_switch(1, node(10), 4);
        t.add_switch(2, node(11), 4);
        t.observe_lldp((2, 1), (1, 3));
        assert_eq!(t.uplink_of(1), Some(3));
        assert!(!t.add_switch(1, node(10), 4), "reconnect, not new");
        assert_eq!(t.uplink_of(1), Some(3), "uplink survives the session");
    }

    #[test]
    fn full_mesh_detection() {
        let mut t = TopologyMap::new();
        for (i, dpid) in [1u64, 2, 3].iter().enumerate() {
            t.add_switch(*dpid, node(i), 4);
        }
        assert!(!t.is_full_mesh());
        for &a in &[1u64, 2, 3] {
            for &b in &[1u64, 2, 3] {
                if a != b {
                    t.observe_lldp((a, 1), (b, 1));
                }
            }
        }
        assert!(t.is_full_mesh());
    }

    #[test]
    fn trivial_topologies_are_full_mesh() {
        let mut t = TopologyMap::new();
        assert!(t.is_full_mesh(), "empty");
        t.add_switch(1, node(0), 4);
        assert!(t.is_full_mesh(), "single switch");
    }
}
