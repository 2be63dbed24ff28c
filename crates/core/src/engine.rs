//! The flow-setup decision (DESIGN.md §9): the one code path from a
//! packet-in's flow key to its steering programs.
//!
//! [`decide`] runs everything between the packet-in and the flow-mods
//! against the live NIB ([`Nib`]) and the active shard's decision
//! cache: the cache lookup, the policy verdict, one balancer pick per
//! chained service, the hop lookups and the compilation of both
//! steering programs. The caller owns the side effects: flow-mods,
//! packet-outs, monitor events and the flow books. The controller
//! calls it on every flow setup, and the `shard_scaling` bench calls
//! it over a synthetic campus NIB.
//!
//! The only NIB state the engine mutates is the balancer, because
//! dispatch is stateful. A cache hit re-runs the picks exactly as a
//! miss would, so the cache is invisible in the balancer's call
//! sequence and in the event history.

use crate::balance::{LoadBalancer, SeRegistry};
use crate::cache::{CachedDecision, DecisionCache};
use crate::controller::STEER_PRIORITY;
use crate::location::LocationTable;
use crate::policy::{PolicyDecision, PolicyTable};
use crate::routing::{compile_pair, SteeringProgram};
use crate::topology::TopologyMap;
use livesec_net::{FlowKey, MacAddr};
use livesec_services::ServiceType;
use std::rc::Rc;

/// The parts of the network information base a flow-setup decision
/// reads (and, for the balancer, advances).
#[derive(Debug)]
pub struct Nib<'a> {
    /// The policy table.
    pub policy: &'a PolicyTable,
    /// The service-element registry the balancer picks from.
    pub registry: &'a SeRegistry,
    /// The (stateful) load balancer.
    pub balancer: &'a mut LoadBalancer,
    /// Host and service-element attachment points.
    pub locations: &'a LocationTable,
    /// Switches and their uplinks.
    pub topo: &'a TopologyMap,
}

/// The outcome of a flow-setup decision.
#[derive(Clone, Debug)]
pub enum EngineDecision {
    /// Deny the flow; install a drop at the ingress.
    Deny {
        /// Name of the matching policy rule, or
        /// `no-online-element:<service>` when a chained service has no
        /// online replica.
        rule: Option<String>,
    },
    /// A host is unlocated or discovery hasn't converged; do nothing
    /// (the sender re-ARPs and retries).
    Unroutable,
    /// Admit: steer the flow through `elements` along the compiled
    /// programs.
    Steer {
        /// The policy chain.
        services: Vec<ServiceType>,
        /// The picked replica per service, in chain order.
        elements: Vec<MacAddr>,
        /// The forward steering program.
        forward: Rc<SteeringProgram>,
        /// The reverse steering program.
        reverse: Rc<SteeringProgram>,
    },
}

/// Decides the fate of `key` entering at `ingress` (dpid, port), and
/// keeps `cache` in step with the decision.
///
/// Operation order is part of the controller's determinism spec
/// (DESIGN.md §6). On a cache miss: policy verdict, then one balancer
/// pick per chained service (stopping at the first service without an
/// online replica), then hop lookups and forward and reverse program
/// compilation. A policy denial or a compiled steer is cached. On a
/// cached steer the picks run again: the cached programs are reused
/// when the picks agree, and are evicted (then recompiled for the new
/// picks) when they don't.
pub fn decide(
    mut nib: Nib<'_>,
    mut cache: Option<&mut DecisionCache>,
    key: &FlowKey,
    ingress: (u64, u32),
) -> EngineDecision {
    let (services, picks) = match cache.as_mut().and_then(|c| c.lookup(key, ingress)) {
        Some(CachedDecision::Deny { rule }) => return EngineDecision::Deny { rule },
        Some(CachedDecision::Steer {
            services,
            elements,
            forward,
            reverse,
        }) => {
            let picks = pick_chain(&mut nib, &services, key);
            if picks.as_ref().is_ok_and(|p| *p == elements) {
                return EngineDecision::Steer {
                    services,
                    elements,
                    forward,
                    reverse,
                };
            }
            // The balancer moved (replicas came or went): the cached
            // programs are stale for this setup.
            if let Some(c) = cache.as_mut() {
                c.remove(key);
            }
            (services, picks)
        }
        None => {
            let (decision, rule) = nib.policy.decide(key);
            let services = match decision {
                PolicyDecision::Deny => {
                    let rule = rule.map(str::to_owned);
                    if let Some(c) = cache {
                        c.insert(*key, ingress, CachedDecision::Deny { rule: rule.clone() });
                    }
                    return EngineDecision::Deny { rule };
                }
                PolicyDecision::Allow => Vec::new(),
                PolicyDecision::Chain(services) => services.clone(),
            };
            let picks = pick_chain(&mut nib, &services, key);
            (services, picks)
        }
    };
    let elements = match picks {
        Ok(elements) => elements,
        Err(service) => {
            return EngineDecision::Deny {
                rule: Some(format!("no-online-element:{service}")),
            }
        }
    };
    let Some((forward, reverse)) =
        compile_pair(key, &elements, nib.locations, nib.topo, STEER_PRIORITY)
    else {
        return EngineDecision::Unroutable;
    };
    let (forward, reverse) = (Rc::new(forward), Rc::new(reverse));
    if let Some(c) = cache {
        c.insert(
            *key,
            ingress,
            CachedDecision::Steer {
                services: services.clone(),
                elements: elements.clone(),
                forward: Rc::clone(&forward),
                reverse: Rc::clone(&reverse),
            },
        );
    }
    EngineDecision::Steer {
        services,
        elements,
        forward,
        reverse,
    }
}

/// One balancer pick per chained service, in chain order. Fails with
/// the first service that has no online replica; later services are
/// not picked.
fn pick_chain(
    nib: &mut Nib<'_>,
    services: &[ServiceType],
    key: &FlowKey,
) -> Result<Vec<MacAddr>, ServiceType> {
    services
        .iter()
        .map(|s| nib.balancer.pick(nib.registry, *s, key).ok_or(*s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyRule;
    use livesec_services::SeMessage;
    use livesec_sim::{NodeId, SimTime};
    use std::net::Ipv4Addr;

    const INGRESS: (u64, u32) = (1, 2);
    const IDS: ServiceType = ServiceType::IntrusionDetection;

    fn key(dst: u64, dst_port: u16) -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(0xa1),
            dl_dst: MacAddr::from_u64(dst),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "10.0.0.2".parse().unwrap(),
            nw_proto: 6,
            tp_src: 40_000,
            tp_dst: dst_port,
        }
    }

    /// An owned NIB: hosts 0xa1 at (1, 2) and 0xb1 at (2, 3), both
    /// switches with uplink 40.
    struct Fixture {
        policy: PolicyTable,
        registry: SeRegistry,
        balancer: LoadBalancer,
        locations: LocationTable,
        topo: TopologyMap,
    }

    impl Fixture {
        fn new() -> Self {
            let mut f = Fixture {
                policy: PolicyTable::allow_all(),
                registry: SeRegistry::new(),
                balancer: LoadBalancer::min_load(),
                locations: LocationTable::new(),
                topo: TopologyMap::new(),
            };
            f.locate(0xa1, 1, 2);
            f.locate(0xb1, 2, 3);
            for (dpid, peer) in [(1, 2), (2, 1)] {
                f.topo
                    .add_switch(dpid, NodeId::from_index(dpid as usize), 48);
                f.topo.observe_lldp((peer, 40), (dpid, 40));
            }
            f
        }

        fn locate(&mut self, mac: u64, dpid: u64, port: u32) {
            let ip = Ipv4Addr::from(0x0a00_0000 | mac as u32);
            self.locations
                .learn(MacAddr::from_u64(mac), ip, dpid, port, SimTime::ZERO);
        }

        /// Chains web flows through the IDS.
        fn chain_web_through_ids(&mut self) {
            self.policy.push(
                PolicyRule::named("web-ids")
                    .proto(6)
                    .dst_port(80)
                    .chain(vec![IDS]),
            );
        }

        /// Brings an IDS replica online at (1, 30) reporting `pps`.
        fn add_ids(&mut self, mac: u64, pps: u64) -> MacAddr {
            let msg = SeMessage::Online {
                service: IDS,
                cert: 0,
                cpu: 10,
                mem: 0,
                pps,
                bps: 0,
                total_pkts: pps,
            };
            let se = MacAddr::from_u64(mac);
            self.registry.heartbeat(se, &msg, SimTime::ZERO);
            self.locate(mac, 1, 30);
            se
        }

        fn decide(&mut self, cache: Option<&mut DecisionCache>, key: &FlowKey) -> EngineDecision {
            let nib = Nib {
                policy: &self.policy,
                registry: &self.registry,
                balancer: &mut self.balancer,
                locations: &self.locations,
                topo: &self.topo,
            };
            decide(nib, cache, key, INGRESS)
        }
    }

    fn steered(d: EngineDecision) -> (Vec<MacAddr>, Rc<SteeringProgram>, Rc<SteeringProgram>) {
        match d {
            EngineDecision::Steer {
                elements,
                forward,
                reverse,
                ..
            } => (elements, forward, reverse),
            other => panic!("expected Steer, got {other:?}"),
        }
    }

    #[test]
    fn allow_compiles_a_direct_path() {
        let mut f = Fixture::new();
        let (elements, forward, reverse) = steered(f.decide(None, &key(0xb1, 80)));
        assert!(elements.is_empty());
        assert_eq!(forward.entries.first().map(|e| e.dpid), Some(1));
        assert_eq!(forward.entries.last().map(|e| e.dpid), Some(2));
        assert_eq!(reverse.entries.first().map(|e| e.dpid), Some(2));
    }

    #[test]
    fn deny_rule_surfaces_by_name_and_is_cached() {
        let mut f = Fixture::new();
        f.policy
            .push(PolicyRule::named("no-web").proto(6).dst_port(80).deny());
        let mut cache = DecisionCache::new();
        for _ in 0..2 {
            match f.decide(Some(&mut cache), &key(0xb1, 80)) {
                EngineDecision::Deny { rule } => assert_eq!(rule.as_deref(), Some("no-web")),
                other => panic!("expected Deny, got {other:?}"),
            }
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.insertions), (1, 1));
    }

    #[test]
    fn chain_without_replicas_is_denied_and_not_cached() {
        let mut f = Fixture::new();
        f.chain_web_through_ids();
        let mut cache = DecisionCache::new();
        match f.decide(Some(&mut cache), &key(0xb1, 80)) {
            EngineDecision::Deny { rule } => {
                assert_eq!(
                    rule.as_deref(),
                    Some("no-online-element:intrusion-detection")
                );
            }
            other => panic!("expected Deny, got {other:?}"),
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn chain_steers_through_a_picked_element() {
        let mut f = Fixture::new();
        f.chain_web_through_ids();
        let se = f.add_ids(0xe1, 0);
        let (elements, ..) = steered(f.decide(None, &key(0xb1, 80)));
        assert_eq!(elements, vec![se]);
    }

    #[test]
    fn unknown_destination_is_unroutable() {
        let mut f = Fixture::new();
        let mut cache = DecisionCache::new();
        assert!(matches!(
            f.decide(Some(&mut cache), &key(0xcc, 80)),
            EngineDecision::Unroutable
        ));
        assert!(cache.is_empty());
    }

    #[test]
    fn hit_with_the_same_pick_reuses_the_cached_programs() {
        let mut f = Fixture::new();
        f.chain_web_through_ids();
        f.add_ids(0xe1, 0);
        let mut cache = DecisionCache::new();
        let (_, cold, _) = steered(f.decide(Some(&mut cache), &key(0xb1, 80)));
        let (_, warm, _) = steered(f.decide(Some(&mut cache), &key(0xb1, 80)));
        assert!(Rc::ptr_eq(&cold, &warm), "a hit must not recompile");
        let s = cache.stats();
        assert_eq!((s.hits, s.insertions, s.invalidations), (1, 1, 0));
    }

    /// A cached steer whose chain lost every replica without the cache
    /// hearing about it: the re-pick denies and evicts the entry.
    #[test]
    fn hit_without_an_online_replica_denies_and_evicts() {
        let mut f = Fixture::new();
        f.chain_web_through_ids();
        let se = f.add_ids(0xe1, 0);
        let mut cache = DecisionCache::new();
        steered(f.decide(Some(&mut cache), &key(0xb1, 80)));
        assert!(f.registry.force_offline(se));
        match f.decide(Some(&mut cache), &key(0xb1, 80)) {
            EngineDecision::Deny { rule } => {
                assert_eq!(
                    rule.as_deref(),
                    Some("no-online-element:intrusion-detection")
                );
            }
            other => panic!("expected Deny, got {other:?}"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.invalidations, s.entries), (1, 1, 0));
    }

    /// A new, idler replica changes the pick on a hit: the entry is
    /// replaced by programs compiled for the new element.
    #[test]
    fn hit_with_a_new_pick_recompiles_and_replaces_the_entry() {
        let mut f = Fixture::new();
        f.chain_web_through_ids();
        let busy = f.add_ids(0xe1, 500);
        let mut cache = DecisionCache::new();
        let (elements, old, _) = steered(f.decide(Some(&mut cache), &key(0xb1, 80)));
        assert_eq!(elements, vec![busy]);
        let idle = f.add_ids(0xe2, 0);
        let (elements, forward, reverse) = steered(f.decide(Some(&mut cache), &key(0xb1, 80)));
        assert_eq!(elements, vec![idle]);
        assert_ne!(*forward, *old, "the new pick needs new programs");
        let s = cache.stats();
        assert_eq!((s.hits, s.invalidations, s.insertions), (1, 1, 2));
        match cache.lookup(&key(0xb1, 80), INGRESS) {
            Some(CachedDecision::Steer {
                elements: cached,
                forward: f2,
                reverse: r2,
                ..
            }) => {
                assert_eq!(cached, vec![idle]);
                assert!(Rc::ptr_eq(&f2, &forward) && Rc::ptr_eq(&r2, &reverse));
            }
            other => panic!("expected the recompiled steer, got {other:?}"),
        }
    }
}
