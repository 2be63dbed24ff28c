//! Cross-shard flow handoff. When a flow's ingress switch and egress
//! switch hash to different shards, the ingress owner sets up the
//! whole end-to-end steering program against the shared NIB and books
//! a handoff. The path must be exactly as consistent as the unsharded
//! one — which the header-space audit proves — and a policy epoch bump
//! made while one shard is active must invalidate every *other*
//! shard's cached decisions for the same flows.

use livesec_suite::prelude::*;
use livesec_verify::{audit_delta, audit_settled, RuleDelta, Snapshot};
use livesec_workloads::{CampusScenario, HttpClient, HttpServer, ScenarioConfig};

fn sharded_scenario(shards: u32) -> CampusScenario {
    CampusScenario::build(ScenarioConfig {
        seed: 42,
        shards,
        // Short idle timeout: recurring flows re-enter setup, so the
        // per-shard decision caches actually fill and get consulted.
        flow_idle: SimDuration::from_millis(300),
        ..ScenarioConfig::default()
    })
}

#[test]
fn cross_shard_flows_get_consistent_end_to_end_paths() {
    let mut s = sharded_scenario(4);
    s.campus.world.run_for(SimDuration::from_secs(5));

    let plane = s.campus.shard_plane().expect("campus is sharded");
    assert!(
        plane.handoffs() > 0,
        "no flow ever crossed shards: {:?}",
        plane.shard_stats()
    );

    // The shard map is non-trivial: the campus's switches really are
    // owned by more than one shard.
    let stats = plane.shard_stats();
    let owners_with_switches = stats.iter().filter(|st| !st.owned.is_empty()).count();
    assert!(
        owners_with_switches >= 2,
        "ring put every switch on one shard: {stats:?}"
    );

    // Consistency is the audit's job: every admitted flow (cross-shard
    // or not) must reach its destination through its required chain,
    // and every blocked one must stay blocked.
    let violations = audit_settled(&mut s.campus, 30, SimDuration::from_millis(100));
    assert!(violations.is_empty(), "audit found: {violations:#?}");
}

/// A 4-shard campus with HTTP clients on two switches the ring
/// assigns to *different* shards, run until both shards' caches are
/// warm (when `decision_cache` is on). The canned scenario's clients
/// all sit on the Wi-Fi AP, so only one shard's cache ever warms
/// there; propagation claims need two caches.
fn two_warm_shards_campus(decision_cache: bool) -> Campus {
    let mut b = CampusBuilder::new(7, 3)
        .configure_controller(|c| {
            c.set_flow_idle_timeout(SimDuration::from_millis(300));
            c.set_decision_cache(decision_cache);
        })
        .with_shards(4);
    let gw = b.add_gateway_configured(0, HttpServer::new(), |h| {
        h.with_reannounce_interval(SimDuration::from_secs(1))
    });
    for (switch, port) in [(0usize, 41_000u16), (1, 41_001)] {
        b.add_user_with(
            switch,
            HttpClient::new(gw.ip, 20_000)
                .with_think_time(SimDuration::from_millis(400))
                .with_src_port(port),
            |h| h.with_reannounce_interval(SimDuration::from_secs(1)),
        );
    }
    let mut campus = b.finish();
    campus.world.run_for(SimDuration::from_secs(4));
    campus
}

/// Regression: a policy epoch bump must reach *every* shard's decision
/// cache, not just the shard that happens to run next; otherwise an
/// idle shard could keep serving cached steering decisions compiled
/// under a superseded policy.
#[test]
fn policy_epoch_bump_invalidates_other_shards_cache_entries() {
    let mut campus = two_warm_shards_campus(true);
    let before = campus
        .shard_plane()
        .expect("campus is sharded")
        .shard_stats();
    let warm: Vec<u32> = before
        .iter()
        .filter(|st| st.cache.as_ref().is_some_and(|c| c.entries > 0))
        .map(|st| st.id)
        .collect();
    assert!(
        warm.len() >= 2,
        "need ≥2 shards with warm caches to test propagation: {before:?}"
    );

    // Bump the policy on the shared store, between dispatches: the
    // controller notes the change in every shard's cache at once.
    campus.controller_mut().set_policy(PolicyTable::allow_all());

    campus.world.run_for(SimDuration::from_secs(2));
    let after = campus
        .shard_plane()
        .expect("campus is sharded")
        .shard_stats();

    let mut shards_invalidated = 0;
    for st in &after {
        let old = before
            .iter()
            .find(|o| o.id == st.id)
            .and_then(|o| o.cache.as_ref().map(|c| c.invalidations))
            .unwrap_or(0);
        let new = st.cache.as_ref().map(|c| c.invalidations).unwrap_or(0);
        if warm.contains(&st.id) && new > old {
            shards_invalidated += 1;
        }
    }
    assert!(
        shards_invalidated >= 2,
        "the epoch bump reached only {shards_invalidated} warm shard(s): before {before:?} after {after:?}"
    );

    // And the caches refill under the new policy — decisions are
    // re-made, not resurrected.
    let inserted_before: u64 = before
        .iter()
        .filter_map(|st| st.cache.as_ref().map(|c| c.insertions))
        .sum();
    let inserted_after: u64 = after
        .iter()
        .filter_map(|st| st.cache.as_ref().map(|c| c.insertions))
        .sum();
    assert!(
        inserted_after > inserted_before,
        "no shard re-cached decisions under the new policy"
    );
}

/// Runtime cache switches made through the shared controller reach
/// every shard at once: a balancer swap empties every shard's cache
/// (cached picks came from the old algorithm), and disabling the cache
/// leaves no shard with one.
#[test]
fn runtime_cache_switches_reach_every_shard() {
    let mut campus = two_warm_shards_campus(true);
    let entries = |campus: &Campus| -> Vec<u64> {
        campus
            .shard_plane()
            .expect("campus is sharded")
            .shard_stats()
            .iter()
            .filter_map(|st| st.cache.as_ref().map(|c| c.entries))
            .collect()
    };
    let warm = entries(&campus);
    assert_eq!(warm.len(), 4, "every shard has a cache: {warm:?}");
    assert!(
        warm.iter().filter(|&&n| n > 0).count() >= 2,
        "need ≥2 warm shards: {warm:?}"
    );

    campus
        .controller_mut()
        .set_balancer(LoadBalancer::min_load());
    assert_eq!(
        entries(&campus),
        vec![0; 4],
        "a balancer swap must clear every shard's cache"
    );

    campus.controller_mut().set_decision_cache(false);
    let stats = campus
        .shard_plane()
        .expect("campus is sharded")
        .shard_stats();
    assert!(
        stats.iter().all(|st| st.cache.is_none()),
        "a disabled cache must leave no shard caching: {stats:?}"
    );
    assert!(!campus.controller().decision_cache_enabled());

    // The campus keeps working cacheless.
    campus.world.run_for(SimDuration::from_secs(1));
    assert_eq!(campus.controller().fast_path_stats().hits, 0);
}

/// A policy edit made between dispatches must stale every shard's
/// cached decisions, not only the active shard's: a stale steering
/// decision replayed on an idle shard would admit flows the new policy
/// denies, and the history would stop matching the cacheless run.
/// Checked for a wholesale edit (epoch note) and a delta (class
/// invalidation).
#[test]
fn policy_edits_stay_invisible_on_every_shard() {
    let deny_tcp = || PolicyRule::named("no-tcp").proto(6).deny();
    let run = |decision_cache: bool, delta: bool| {
        let mut campus = two_warm_shards_campus(decision_cache);
        let now = campus.world.kernel().now();
        if delta {
            let deltas = [PolicyDelta::Insert {
                index: 0,
                rule: deny_tcp(),
            }];
            campus.controller_mut().apply_policy_delta(now, &deltas);
        } else {
            let mut policy = PolicyTable::allow_all();
            policy.push(deny_tcp());
            campus.controller_mut().set_policy(policy);
        }
        campus.world.run_for(SimDuration::from_secs(2));
        let c = campus.controller();
        (c.monitor().to_json(), c.fast_path_stats())
    };
    for delta in [false, true] {
        let ((with_cache, stats), (without_cache, _)) = (run(true, delta), run(false, delta));
        assert!(stats.hits > 0, "cache never hit: {stats:?}");
        assert_eq!(
            with_cache, without_cache,
            "a stale shard cache changed the history after the edit (delta: {delta})"
        );
    }
}

/// The scoped counterpart of the epoch-bump test above: a policy
/// *delta* confined to an idle header class must leave every shard's
/// warm cache entries alone (wholesale bumps flush them all), and the
/// incremental auditor scoped to the delta's cubes must settle clean
/// on the sharded dataplane (DESIGN.md §14).
#[test]
fn scoped_delta_spares_shard_caches_and_audits_clean() {
    let mut s = sharded_scenario(4);
    s.campus.world.run_for(SimDuration::from_secs(4));

    let plane = s.campus.shard_plane().expect("campus is sharded");
    assert!(plane.handoffs() > 0, "no cross-shard flow before the edit");
    let entries_before: u64 = plane
        .shard_stats()
        .iter()
        .filter_map(|st| st.cache.as_ref().map(|c| c.entries))
        .sum();
    assert!(entries_before > 0, "no warm cache to protect");

    // Insert a deny on an idle telnet-ish class through the shared
    // store: no shard's warm web decisions fall inside its cube.
    let deltas = [PolicyDelta::Insert {
        index: 0,
        rule: PolicyRule::named("telnet-deny")
            .proto(6)
            .dst_port(2323)
            .deny(),
    }];
    let now = s.campus.world.kernel().now();
    let cubes = s.campus.controller_mut().apply_policy_delta(now, &deltas);
    assert!(!cubes.is_empty());

    let plane = s.campus.shard_plane().expect("campus is sharded");
    let entries_after: u64 = plane
        .shard_stats()
        .iter()
        .filter_map(|st| st.cache.as_ref().map(|c| c.entries))
        .sum();
    assert_eq!(
        entries_after, entries_before,
        "an idle-class delta must not evict any shard's warm entries"
    );

    let scoped: Vec<RuleDelta> = cubes.into_iter().map(RuleDelta::network_wide).collect();
    let mut violations = Vec::new();
    for _ in 0..30 {
        s.campus.world.run_for(SimDuration::from_millis(100));
        violations = audit_delta(&Snapshot::of_campus(&s.campus), &scoped);
        if violations.is_empty() {
            break;
        }
    }
    assert!(
        violations.is_empty(),
        "incremental audit on the sharded campus found: {violations:#?}"
    );
}
