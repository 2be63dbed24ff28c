//! The timing shim must be invisible to the simulation: a faulted
//! campus gives the same monitor history wrapped and unwrapped, and
//! typed lookups still reach the wrapped nodes.

use livesec_sim::{FaultKind, FaultPlan, SimDuration, SimTime};
use livesec_simbench::shim::{Callback, Class, Tracer};
use livesec_switch::{AsSwitch, Host};
use livesec_workloads::{CampusScenario, ChaosConfig, HttpClient, ScenarioConfig};
use std::rc::Rc;

/// Partitions, control corruption and a crash-restart from the chaos
/// plan, plus every dataplane fault hook and a shard failure.
fn faulted_campus() -> CampusScenario {
    let mut s = CampusScenario::build(ScenarioConfig {
        seed: 9,
        shards: 2,
        attest_every: 1,
        chaos: Some(ChaosConfig::default()),
        ..ScenarioConfig::default()
    });
    let c = &mut s.campus;
    let (victim, plane) = (c.as_switches[1], c.controller);
    let at = |ms| SimTime::from_nanos(SimDuration::from_millis(ms).as_nanos());
    let plan = FaultPlan::new(0xfa11)
        .at(at(3_000), FaultKind::RuleTamper { node: victim })
        .at(at(3_200), FaultKind::SilentMisforward { node: victim })
        .at(at(3_400), FaultKind::PacketInject { node: victim })
        .at(
            at(3_600),
            FaultKind::ShardDown {
                node: plane,
                shard: 1,
            },
        );
    c.world.install_fault_plan(&plan);
    s
}

fn run(s: &mut CampusScenario) {
    s.campus.world.run_for(SimDuration::from_secs(12));
}

#[test]
fn faulted_history_is_identical_wrapped_and_unwrapped() {
    let mut plain = faulted_campus();
    run(&mut plain);

    let mut wrapped = faulted_campus();
    let tracer = Rc::new(Tracer::default());
    let unwrapped = tracer.install(&mut wrapped.campus.world);
    assert!(unwrapped.is_empty(), "nodes left unwrapped: {unwrapped:?}");
    run(&mut wrapped);

    for name in [
        "fault_rule_tampers",
        "fault_misforwards",
        "fault_packet_injects",
        "fault_shard_downs",
        "fault_crash_restarts",
        "fault_partitions",
    ] {
        assert!(wrapped.campus.world.metric(name) > 0, "{name} never fired");
    }
    let history = |s: &CampusScenario| s.campus.controller().monitor().to_json();
    assert_eq!(history(&plain), history(&wrapped));

    // Downcasts resolve through the shim.
    let client = |s: &CampusScenario| {
        s.campus
            .world
            .node::<Host<HttpClient>>(s.web_users[0].node)
            .app()
            .completed
    };
    assert!(client(&wrapped) > 0);
    assert_eq!(client(&plain), client(&wrapped));
    let sw = wrapped.campus.as_switches[0];
    assert!(wrapped.campus.world.try_node::<AsSwitch>(sw).is_some());
    assert!(wrapped.campus.shard_plane().is_some());

    // Time was charged where the callbacks ran, fault hooks included.
    let snap = tracer.snapshot();
    assert!(snap.cost(Class::AsSwitch, Callback::Frame).calls > 0);
    assert!(snap.cost(Class::AsSwitch, Callback::Other).calls > 0);
    assert!(snap.cost(Class::Controller, Callback::Control).calls > 0);
    assert!(snap.msgs.packet_in > 0 && snap.msgs.flow_mod > 0);
}
