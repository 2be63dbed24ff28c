//! A timing shim that attributes host time to simulator nodes from
//! outside the program.
//!
//! [`Tracer::install`] moves every node of a finished world out of its
//! slot and puts it back wrapped in a [`Timed`] node — the same
//! move-out-and-replace step `CampusBuilder::finish` uses for the
//! sharded control plane. The wrapper forwards every [`Node`] callback,
//! fault hooks included, and forwards `as_any`/`as_any_mut`, so typed
//! lookups such as `world.node::<AsSwitch>(id)` still resolve to the
//! wrapped node and the simulated behaviour does not change.
//!
//! The world never nests callbacks, so the wall time inside one
//! callback is that node's exact self time; whatever remains of a span
//! is the kernel (queue, dispatch, link model). Counter slots are
//! resolved when a node is wrapped, so a call costs two clock reads and
//! two cell updates, with no map or string lookup.

use crate::clock::Stopwatch;
use livesec::plane::ShardedControlPlane;
use livesec::Controller;
use livesec_net::{MacAddr, Packet};
use livesec_openflow::codec::decode_all;
use livesec_openflow::OfMessage;
use livesec_services::{Inspector, ProtoIdEngine, ServiceElement, ServiceType, SignatureEngine};
use livesec_sim::{Ctx, Node, NodeId, PortId, SimDuration, World};
use livesec_switch::{App, AsSwitch, Host, LearningSwitch};
use livesec_workloads::scenario::WebThenTorrent;
use livesec_workloads::{AttackClient, HttpClient, HttpServer, SshSession, TcpEchoServer};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use crate::udp::{UdpSink, UdpSource};

/// The node classes time is charged to, each named after the crate
/// whose code runs inside its callbacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `livesec-switch` OpenFlow access switches.
    AsSwitch,
    /// `livesec-switch` legacy learning switches.
    Legacy,
    /// `livesec-switch` host shells running `livesec-workloads` apps.
    Host,
    /// `livesec-services` intrusion-detection elements.
    SeIds,
    /// `livesec-services` protocol-identification elements.
    SeProtoid,
    /// `livesec` (core) controller or sharded control plane.
    Controller,
}

/// Number of [`Class`] variants.
pub const CLASSES: usize = 6;

/// The callbacks time is split over. `Other` collects `on_start` and
/// the fault hooks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Callback {
    /// [`Node::on_frame`].
    Frame,
    /// [`Node::on_timer`].
    Timer,
    /// [`Node::on_control`].
    Control,
    /// [`Node::on_start`] and every fault hook.
    Other,
}

/// Number of [`Callback`] variants.
pub const CALLBACKS: usize = 4;

/// Calls made and nanoseconds spent in one (class, callback) pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cost {
    /// Calls.
    pub calls: u64,
    /// Wall nanoseconds inside the calls.
    pub nanos: u64,
}

/// One class's accumulators, shared by all its wrappers. The world
/// calls one node at a time, so each cell has one writer at a time.
type ClassSlots = [Cell<Cost>; CALLBACKS];

fn charge(slot: &Cell<Cost>, since: Stopwatch) {
    let ns = since.nanos();
    let c = slot.get();
    slot.set(Cost {
        calls: c.calls + 1,
        nanos: c.nanos + ns,
    });
}

/// Counts of OpenFlow messages seen on control channels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsgCounts {
    /// Control payloads decoded.
    pub payloads: u64,
    /// `PacketIn` messages.
    pub packet_in: u64,
    /// `FlowMod` messages.
    pub flow_mod: u64,
    /// `PacketOut` messages.
    pub packet_out: u64,
    /// Nanoseconds spent in `decode_all`.
    pub decode_nanos: u64,
}

/// Frames kept aside during a traced run for offline codec and engine
/// timings.
#[derive(Debug, Default)]
pub struct Samples {
    /// Frames seen by access switches.
    pub switch_frames: Vec<Packet>,
    /// Frames seen by intrusion-detection elements.
    pub ids_frames: Vec<Packet>,
}

/// Keep one frame in this many, per wrapped node.
const SAMPLE_EVERY: u64 = 509;
/// Keep at most this many frames per kind of sampling point.
const SAMPLE_CAP: usize = 2048;

/// Shared state of all [`Timed`] wrappers of one world.
#[derive(Default)]
pub struct Tracer {
    slots: [Rc<ClassSlots>; CLASSES],
    // livesec-lint: allow(shared-mut-state, reason = "single-threaded shim; the world calls one node at a time, so one writer at a time")
    side: RefCell<Side>,
}

/// What the shim records besides callback costs.
#[derive(Default)]
struct Side {
    msgs: MsgCounts,
    /// Wall nanoseconds the shim spent on its own bookkeeping outside
    /// the timed callbacks (control decoding, frame sampling).
    shim_nanos: u64,
    samples: Samples,
}

/// A point-in-time copy of a tracer's accumulators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Cost per class and callback.
    pub cost: [[Cost; CALLBACKS]; CLASSES],
    /// Control-message counts.
    pub msgs: MsgCounts,
    /// Shim bookkeeping nanoseconds.
    pub shim_nanos: u64,
}

impl Snapshot {
    /// The accumulation between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut d = *self;
        for (row, old) in d.cost.iter_mut().zip(&earlier.cost) {
            for (c, o) in row.iter_mut().zip(old) {
                c.calls -= o.calls;
                c.nanos -= o.nanos;
            }
        }
        let (m, o) = (&mut d.msgs, &earlier.msgs);
        m.payloads -= o.payloads;
        m.packet_in -= o.packet_in;
        m.flow_mod -= o.flow_mod;
        m.packet_out -= o.packet_out;
        m.decode_nanos -= o.decode_nanos;
        d.shim_nanos -= earlier.shim_nanos;
        d
    }

    /// Cost of one class and callback.
    pub fn cost(&self, class: Class, cb: Callback) -> Cost {
        self.cost[class as usize][cb as usize]
    }

    /// Wall nanoseconds inside every callback of every node.
    pub fn callback_nanos(&self) -> u64 {
        self.cost.iter().flatten().map(|c| c.nanos).sum()
    }
}

impl Tracer {
    /// Wraps every node of `world` whose concrete type the shim knows
    /// (those of the benchmark workloads and of the paper's campus
    /// scenario), and returns the ids it could not wrap (their time
    /// would be charged to the kernel).
    ///
    /// # Panics
    ///
    /// Panics if the world has already started (see
    /// [`World::replace_node`]).
    pub fn install(self: &Rc<Self>, world: &mut World) -> Vec<NodeId> {
        (0..world.node_count())
            .map(NodeId::from_index)
            .filter(|&id| !self.wrap_known(world, id))
            .collect()
    }

    fn wrap_known(self: &Rc<Self>, world: &mut World, id: NodeId) -> bool {
        if let Some(h) = world.try_node::<Host<ServiceElement<SignatureEngine>>>(id) {
            // Signature engines also back virus scanning and content
            // inspection; those campuses are not benchmarked here.
            assert_eq!(
                h.app().inspector().service(),
                ServiceType::IntrusionDetection,
                "unexpected signature engine on node {id}"
            );
        }
        self.wrap(world, id, Class::Controller, Controller::default)
            || self.wrap(world, id, Class::Controller, || {
                ShardedControlPlane::new(Controller::default(), 1)
            })
            || self.wrap(world, id, Class::AsSwitch, || AsSwitch::new(0, 0))
            || self.wrap(world, id, Class::Legacy, || LearningSwitch::new(0))
            || self.wrap(world, id, Class::SeIds, || {
                host(ServiceElement::new(SignatureEngine::new(
                    ServiceType::IntrusionDetection,
                    Vec::new(),
                )))
            })
            || self.wrap(world, id, Class::SeProtoid, || {
                host(ServiceElement::new(ProtoIdEngine::new()))
            })
            || self.wrap(world, id, Class::Host, || host(HttpClient::new(UNSPEC, 0)))
            || self.wrap(world, id, Class::Host, || host(HttpServer::new()))
            || self.wrap(world, id, Class::Host, || host(UdpSource::placeholder()))
            || self.wrap(world, id, Class::Host, || host(UdpSink::default()))
            || self.wrap(world, id, Class::Host, || host(TcpEchoServer::new()))
            || self.wrap(world, id, Class::Host, || host(SshSession::new(UNSPEC)))
            || self.wrap(world, id, Class::Host, || {
                host(AttackClient::new(UNSPEC, 0))
            })
            || self.wrap(world, id, Class::Host, || {
                host(WebThenTorrent::new(UNSPEC, SimDuration::ZERO))
            })
    }

    /// Moves the `T` at `id` out (leaving `placeholder()` behind for
    /// the instant before the slot is replaced) and re-inserts it
    /// wrapped. Returns `false`, touching nothing, if `id` is not a `T`.
    fn wrap<T: Node>(
        self: &Rc<Self>,
        world: &mut World,
        id: NodeId,
        class: Class,
        placeholder: impl FnOnce() -> T,
    ) -> bool {
        let Some(slot) = world.try_node_mut::<T>(id) else {
            return false;
        };
        let inner = std::mem::replace(slot, placeholder());
        let sampling = match class {
            Class::AsSwitch => Sampling::Switch,
            Class::SeIds => Sampling::Ids,
            _ => Sampling::None,
        };
        world.replace_node(
            id,
            Timed {
                inner,
                slots: Rc::clone(&self.slots[class as usize]),
                tracer: Rc::clone(self),
                decode_control: matches!(class, Class::AsSwitch | Class::Controller),
                sampling,
                seen: 0,
            },
        );
        true
    }

    /// Copies the accumulators.
    pub fn snapshot(&self) -> Snapshot {
        let side = self.side.borrow();
        Snapshot {
            cost: self
                .slots
                .each_ref()
                .map(|slots| slots.each_ref().map(Cell::get)),
            msgs: side.msgs,
            shim_nanos: side.shim_nanos,
        }
    }

    /// Takes the sampled frames.
    pub fn take_samples(&self) -> Samples {
        std::mem::take(&mut self.side.borrow_mut().samples)
    }

    fn classify(&self, bytes: &[u8]) {
        let t = Stopwatch::start();
        let decoded = decode_all(bytes);
        let decode_ns = t.nanos();
        let mut side = self.side.borrow_mut();
        let m = &mut side.msgs;
        m.payloads += 1;
        m.decode_nanos += decode_ns;
        // A payload corrupted by a fault decodes to nothing.
        for (msg, _) in decoded.iter().flatten() {
            match msg {
                OfMessage::PacketIn { .. } => m.packet_in += 1,
                OfMessage::FlowMod { .. } => m.flow_mod += 1,
                OfMessage::PacketOut { .. } => m.packet_out += 1,
                _ => {}
            }
        }
        side.shim_nanos += t.nanos();
    }

    fn keep(&self, sampling: Sampling, pkt: &Packet) {
        let t = Stopwatch::start();
        let mut side = self.side.borrow_mut();
        let bucket = match sampling {
            Sampling::Switch => &mut side.samples.switch_frames,
            Sampling::Ids => &mut side.samples.ids_frames,
            Sampling::None => return,
        };
        if bucket.len() < SAMPLE_CAP {
            bucket.push(pkt.clone());
        }
        side.shim_nanos += t.nanos();
    }
}

const UNSPEC: Ipv4Addr = Ipv4Addr::UNSPECIFIED;

fn host<A: App>(app: A) -> Host<A> {
    Host::new(MacAddr::ZERO, UNSPEC, app)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sampling {
    None,
    Switch,
    Ids,
}

/// A node wrapped by the timing shim.
pub struct Timed<T: Node> {
    inner: T,
    slots: Rc<ClassSlots>,
    tracer: Rc<Tracer>,
    decode_control: bool,
    sampling: Sampling,
    seen: u64,
}

impl<T: Node> Timed<T> {
    fn timed<R>(&mut self, cb: Callback, f: impl FnOnce(&mut T) -> R) -> R {
        let t = Stopwatch::start();
        let r = f(&mut self.inner);
        charge(&self.slots[cb as usize], t);
        r
    }
}

impl<T: Node> Node for Timed<T> {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        if self.sampling != Sampling::None {
            self.seen += 1;
            if self.seen.is_multiple_of(SAMPLE_EVERY) {
                self.tracer.keep(self.sampling, &pkt);
            }
        }
        self.timed(Callback::Frame, |n| n.on_frame(ctx, port, pkt));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.timed(Callback::Timer, |n| n.on_timer(ctx, token));
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, bytes: &[u8]) {
        self.timed(Callback::Control, |n| n.on_control(ctx, peer, bytes));
        if self.decode_control {
            self.tracer.classify(bytes);
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(Callback::Other, |n| n.on_start(ctx));
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(Callback::Other, |n| n.on_crash_restart(ctx));
    }

    fn on_shard_down(&mut self, ctx: &mut Ctx<'_>, shard: u32) {
        self.timed(Callback::Other, |n| n.on_shard_down(ctx, shard));
    }

    fn on_rule_tamper(&mut self, ctx: &mut Ctx<'_>, salt: u64) {
        self.timed(Callback::Other, |n| n.on_rule_tamper(ctx, salt));
    }

    fn on_misforward(&mut self, ctx: &mut Ctx<'_>, salt: u64) {
        self.timed(Callback::Other, |n| n.on_misforward(ctx, salt));
    }

    fn on_packet_inject(&mut self, ctx: &mut Ctx<'_>, salt: u64) {
        self.timed(Callback::Other, |n| n.on_packet_inject(ctx, salt));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
