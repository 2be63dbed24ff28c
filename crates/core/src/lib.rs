#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

//! **LiveSec**: scalable and flexible security management for
//! production networks — the controller at the heart of the
//! reproduction of *"LiveSec: Towards Effective Security Management in
//! Large-scale Production Networks"* (ICDCS Workshops 2012).
//!
//! LiveSec inserts an OpenFlow **Access-Switching layer** between the
//! legacy Ethernet core and the network periphery (users and VM-based
//! security *service elements*), and manages it with one logically
//! central controller. The controller provides the paper's three
//! headline features:
//!
//! 1. **Interactive policy enforcement** ([`policy`]) — a global
//!    policy table maps end-to-end flows to chains of security
//!    services; the controller compiles each admitted flow into the
//!    4-entry steering program of the paper's §IV-A (destination-MAC
//!    rewrite at the ingress, relay entries at the service element's
//!    switch, plain output at the egress) and, when a service element
//!    reports an attack, installs a drop rule at the flow's ingress
//!    switch.
//! 2. **Distributed load balancing** ([`balance`]) — flows (or users)
//!    are dispatched over replicated service elements by polling,
//!    hash, queuing or minimum-load algorithms, driven by the load
//!    figures in SE heartbeat messages.
//! 3. **Application-aware monitoring and visualization**
//!    ([`monitor`]) — every network event (user join/leave, flow
//!    start/end, application identification, attack detection, load
//!    reports) is recorded with its timestamp for live display and
//!    historical replay; [`monitor::Monitor`] is the data layer the
//!    paper's Flash WebUI rendered.
//!
//! The supporting machinery: [`topology`] (LLDP-driven discovery of
//! the full-mesh logical topology), [`location`] (ARP-driven host
//! location discovery), [`directory`] (the centralized ARP/DHCP proxy
//! of §III-C.2), [`routing`] (two-hop abstract routing and steering
//! program compilation), and [`deploy`] (a builder that assembles the
//! whole FIT-building-style testbed on the simulator).

pub mod accountability;
pub mod balance;
pub mod cache;
pub mod controller;
pub mod deploy;
pub mod directory;
pub mod engine;
pub mod location;
pub mod monitor;
pub mod plane;
pub mod policy;
pub mod ring;
pub mod routing;
pub mod topology;

pub use accountability::{
    flow_sig, AccountabilityDetector, AccountabilityStats, Deviation, FlowSig, PathProof, ProofHop,
    ProofSource,
};
pub use balance::{Dispatcher, Grain, LoadBalancer, SeRegistry, SeView};
pub use cache::{CachedDecision, DecisionCache};
pub use controller::{Controller, NibSnapshot, TrafficTally};
pub use deploy::{Campus, CampusBuilder, NullApp, SeHandle, UserHandle};
pub use directory::DirectoryProxy;
pub use engine::EngineDecision;
pub use location::{Location, LocationTable};
pub use monitor::{
    ConnTrackStats, DeviationKind, EventKind, FastPathStats, HealthStats, Monitor, NetworkEvent,
    UiFrame, UiUser,
};
pub use plane::{ShardStats, ShardedControlPlane};
pub use policy::{AppAction, PolicyDecision, PolicyRule, PolicyTable};
pub use ring::HashRing;
pub use routing::{SteeringProgram, SwitchEntry};
pub use topology::TopologyMap;

/// Convenient glob-import surface: `use livesec::prelude::*;`.
pub mod prelude {
    pub use crate::accountability::{
        flow_sig, AccountabilityDetector, AccountabilityStats, Deviation, FlowSig, PathProof,
        ProofHop, ProofSource,
    };
    pub use crate::balance::{Dispatcher, Grain, LoadBalancer, SeRegistry, SeView};
    pub use crate::cache::{CachedDecision, DecisionCache};
    pub use crate::controller::{Controller, NibSnapshot, TrafficTally};
    pub use crate::deploy::{Campus, CampusBuilder, NullApp, SeHandle, UserHandle};
    pub use crate::directory::DirectoryProxy;
    pub use crate::engine::EngineDecision;
    pub use crate::location::{Location, LocationTable};
    pub use crate::monitor::{
        ConnTrackStats, DeviationKind, EventKind, FastPathStats, HealthStats, Monitor,
        NetworkEvent, UiFrame, UiUser,
    };
    pub use crate::plane::{ShardStats, ShardedControlPlane};
    pub use crate::policy::{AppAction, PolicyDecision, PolicyDelta, PolicyRule, PolicyTable};
    pub use crate::ring::HashRing;
    pub use crate::routing::{SteeringProgram, SwitchEntry};
    pub use crate::topology::TopologyMap;
    pub use livesec_sim::prelude::*;
}
