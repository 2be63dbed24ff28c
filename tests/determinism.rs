//! Integration: whole-system determinism. Two runs of the full campus
//! scenario from the same seed must produce byte-identical event
//! histories — the property that makes every experiment in this
//! repository reproducible — and the flow-setup decision cache must be
//! invisible in that history (golden-trace transparency).

use livesec_suite::prelude::*;
use livesec_workloads::{CampusScenario, ScenarioConfig};

fn run_history(seed: u64, decision_cache: bool) -> (String, FastPathStats) {
    let (history, stats, _) = run_sharded(seed, decision_cache, 1);
    (history, stats)
}

/// Runs the scenario on an n-shard plane and returns the history, the
/// controller's fast-path counters, and each shard's cache counters.
fn run_sharded(
    seed: u64,
    decision_cache: bool,
    shards: u32,
) -> (String, FastPathStats, Vec<Option<FastPathStats>>) {
    let mut s = CampusScenario::build(ScenarioConfig {
        seed,
        decision_cache,
        shards,
        // Entries idle out between requests (clients think for
        // 400 ms), so recurring flows re-enter setup — the regime
        // where the decision cache actually gets exercised.
        flow_idle: SimDuration::from_millis(300),
        ..ScenarioConfig::default()
    });
    s.campus.world.run_for(SimDuration::from_secs(6));
    let c = s.campus.controller();
    let per_shard = s
        .campus
        .shard_plane()
        .expect("every campus runs the shard plane")
        .shard_stats()
        .into_iter()
        .map(|st| st.cache)
        .collect();
    (c.monitor().to_json(), c.fast_path_stats(), per_shard)
}

#[test]
fn identical_seeds_reproduce_identical_histories() {
    let (a, _) = run_history(42, true);
    let (b, _) = run_history(42, true);
    assert_eq!(a, b, "same seed, same history, byte for byte");
}

#[test]
fn identical_seeds_reproduce_identical_histories_without_the_cache() {
    let (a, _) = run_history(42, false);
    let (b, _) = run_history(42, false);
    assert_eq!(a, b, "same seed, same history, byte for byte");
}

/// The golden-trace test: the decision cache memoizes compile work but
/// must never change behaviour. A run with the cache on and a run with
/// it off, from the same seed, must emit byte-identical monitor
/// histories — same events, same order, same timestamps — at every
/// shard count. The controller's fast-path counters are the sum over
/// the shards' caches.
#[test]
fn decision_cache_is_invisible_in_the_event_history() {
    for shards in [1u32, 2, 4] {
        let (with_cache, stats_on, per_shard) = run_sharded(42, true, shards);
        let (without_cache, stats_off, _) = run_sharded(42, false, shards);
        assert_eq!(
            with_cache, without_cache,
            "the fast path must be observably transparent ({shards} shards)"
        );
        // The comparison is only meaningful if the cache actually worked.
        assert!(stats_on.hits > 0, "cache never hit: {stats_on:?}");
        assert!(stats_on.insertions > 0, "cache never filled: {stats_on:?}");
        assert_eq!(stats_off.hits, 0, "disabled cache reported hits");
        assert_eq!(
            stats_on.flow_setups, stats_off.flow_setups,
            "both runs must set up the same flows"
        );
        let caches: Vec<FastPathStats> = per_shard.into_iter().flatten().collect();
        assert_eq!(caches.len(), shards as usize, "every shard has a cache");
        let sum = |f: fn(&FastPathStats) -> u64| caches.iter().map(f).sum::<u64>();
        assert_eq!(
            (
                stats_on.hits,
                stats_on.misses,
                stats_on.invalidations,
                stats_on.insertions,
                stats_on.entries
            ),
            (
                sum(|c| c.hits),
                sum(|c| c.misses),
                sum(|c| c.invalidations),
                sum(|c| c.insertions),
                sum(|c| c.entries)
            ),
            "controller stats must sum the shard caches ({shards} shards)"
        );
    }
}

/// Runs the scenario under an n-shard control plane and returns the
/// monitor history both as recorded (shard-tagged) and with the tags
/// scrubbed.
fn sharded_history(seed: u64, shards: u32, secs: u64) -> (String, String) {
    let mut s = CampusScenario::build(ScenarioConfig {
        seed,
        shards,
        flow_idle: SimDuration::from_millis(300),
        ..ScenarioConfig::default()
    });
    s.campus.world.run_for(SimDuration::from_secs(secs));
    let m = s.campus.controller().monitor();
    (m.to_json(), m.to_json_untagged())
}

/// FNV-1a, 64-bit: a digest of a history too large to commit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The sharding golden trace, part 1: the default campus (a 1-shard
/// plane) reproduces the history of the plain controller it replaced,
/// byte for byte, tags included (a single shard is shard 0, and zero
/// tags are not serialized). The pins — byte length, event count and
/// FNV-1a-64 digest of the serialized history — were recorded from the
/// unsharded controller before it was retired.
#[test]
fn one_shard_plane_matches_the_single_controller_baseline() {
    for (secs, len, events, digest) in [
        (3u64, 113_359usize, 504usize, 0x0bda_dca4_b8ec_2ac6u64),
        (6, 252_918, 1_150, 0x90f3_e9cd_e6c3_6abf),
    ] {
        let mut s = CampusScenario::build(ScenarioConfig {
            seed: 42,
            flow_idle: SimDuration::from_millis(300),
            ..ScenarioConfig::default()
        });
        s.campus.world.run_for(SimDuration::from_secs(secs));
        let m = s.campus.controller().monitor();
        let history = m.to_json();
        assert_eq!(
            (history.len(), m.len(), fnv1a64(history.as_bytes())),
            (len, events, digest),
            "the default campus diverged from the single-controller baseline ({secs}s scenario)"
        );
        assert_eq!(history, m.to_json_untagged(), "one shard never tags");
    }
}

/// The sharding golden trace, part 2: shard count is invisible. The
/// baseline (3 s, steady traffic) and service-chain (6 s, torrent
/// switch + attack verdict landed) scenarios must produce identical
/// histories at 1, 2 and 4 shards — modulo the shard-id tags, which
/// are routing bookkeeping, not behaviour.
#[test]
fn histories_agree_across_shard_counts_modulo_tags() {
    for secs in [3u64, 6] {
        let (one_shard, _) = sharded_history(42, 1, secs);
        let mut tagged_somewhere = false;
        for shards in [2u32, 4] {
            let (tagged, untagged) = sharded_history(42, shards, secs);
            assert_eq!(
                one_shard, untagged,
                "{shards}-shard history diverged from the 1-shard run ({secs}s scenario)"
            );
            tagged_somewhere |= tagged != untagged;
        }
        // The comparison is only meaningful if routing actually spread
        // events over non-zero shards somewhere.
        assert!(
            tagged_somewhere,
            "no event was ever handled off shard 0 ({secs}s scenario)"
        );
    }
}

#[test]
fn different_seeds_still_reproduce_the_same_shape() {
    // Different seeds change identities/ordering details but the
    // scenario's structure holds.
    let mut s = CampusScenario::build(ScenarioConfig {
        seed: 1337,
        ..ScenarioConfig::default()
    });
    s.campus.world.run_for(SimDuration::from_secs(6));
    let summary = s.campus.controller().monitor().summary();
    assert_eq!(summary.get("switch_join").copied(), Some(4));
    assert_eq!(summary.get("se_online").copied(), Some(4));
    assert!(summary.get("flow_start").copied().unwrap_or(0) > 5);
}

/// The fast-path counters and the elements of the latest flow start,
/// sampled after one step of a run.
type Step = (FastPathStats, Vec<MacAddr>);

/// A two-switch campus whose one user re-opens the same web flow every
/// 400 ms through an IDS chain, with flow entries idling out at
/// 300 ms, so each request is a fresh setup of one cached key. `ids`
/// certified replicas sit on switch 0. `setup` runs before the start
/// and `change` after a 3 s warm-up; then the campus runs 3 s more in
/// 10 ms steps. Returns the history, the replicas, and after every
/// step the fast-path counters and the elements of the latest flow
/// start.
fn recurring_ids_flow(
    decision_cache: bool,
    ids: usize,
    setup: fn(&mut Campus, &[SeHandle]),
    change: fn(&mut Campus, &[SeHandle]),
) -> (String, Vec<SeHandle>, Vec<Step>) {
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("ids-web")
            .dst_port(80)
            .chain(vec![ServiceType::IntrusionDetection]),
    );
    let mut b = CampusBuilder::new(7, 2)
        .with_policy(policy)
        .with_certification()
        .configure_controller(|c| {
            c.set_flow_idle_timeout(SimDuration::from_millis(300));
            c.set_decision_cache(decision_cache);
        });
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    let ses: Vec<SeHandle> = (0..ids)
        .map(|_| b.add_service_element(0, ServiceElement::new(IdsEngine::engine())))
        .collect();
    b.add_user(
        1,
        HttpClient::new(gw.ip, 20_000).with_think_time(SimDuration::from_millis(400)),
    );
    let mut campus = b.finish();
    setup(&mut campus, &ses);
    campus.world.run_for(SimDuration::from_secs(3));
    change(&mut campus, &ses);
    let mut steps = Vec::with_capacity(300);
    for _ in 0..300 {
        campus.world.run_for(SimDuration::from_millis(10));
        let c = campus.controller();
        let latest = c
            .monitor()
            .of_tag("flow_start")
            .filter_map(|e| match &e.kind {
                EventKind::FlowStart { elements, .. } => Some(elements.clone()),
                _ => None,
            })
            .last()
            .unwrap_or_default();
        steps.push((c.fast_path_stats(), latest));
    }
    (campus.controller().monitor().to_json(), ses, steps)
}

/// The only replica of a chained service goes offline between two
/// setups of a cached key: the next setup is denied with
/// `no-online-element`, and the cache stays invisible in the history.
#[test]
fn losing_the_last_replica_denies_the_cached_flow_identically() {
    fn crash(campus: &mut Campus, ses: &[SeHandle]) {
        let sw = campus.as_switches[ses[0].switch];
        campus.world.node_mut::<AsSwitch>(sw).fail_port(ses[0].port);
    }
    let (with_cache, _, steps) = recurring_ids_flow(true, 1, |_, _| {}, crash);
    let (without_cache, _, _) = recurring_ids_flow(false, 1, |_, _| {}, crash);
    assert_eq!(with_cache, without_cache, "the cache changed the history");
    assert!(
        steps[0].0.hits > 0,
        "the key was never served from the cache before the loss: {:?}",
        steps[0].0
    );
    assert!(
        with_cache.contains("no-online-element:intrusion-detection"),
        "no setup was denied for want of a replica"
    );
}

/// A replica joins between two setups of a cached key (its certificate
/// is accepted only after the warm-up) and the balancer picks it: the
/// hit's re-pick evicts the cached programs and caches programs
/// recompiled for the new element, and the cache stays invisible in
/// the history.
#[test]
fn a_new_replica_replaces_the_cached_steering_identically() {
    fn only_first(campus: &mut Campus, ses: &[SeHandle]) {
        let certs = std::iter::once(ses[0].cert).collect();
        campus.controller_mut().set_required_certs(certs);
    }
    fn authorize_second(campus: &mut Campus, ses: &[SeHandle]) {
        campus.controller_mut().authorize_cert(ses[1].cert);
    }
    let (with_cache, ses, steps) = recurring_ids_flow(true, 2, only_first, authorize_second);
    let (without_cache, _, _) = recurring_ids_flow(false, 2, only_first, authorize_second);
    assert_eq!(with_cache, without_cache, "the cache changed the history");
    assert_eq!(
        steps[0].1,
        vec![ses[0].mac],
        "the flow ran through the first replica before the join"
    );
    // The 10 ms step in which the flow first moved to the new replica
    // holds a hit whose re-pick replaced the entry: one eviction and
    // one insertion, no miss.
    let moved = steps
        .iter()
        .position(|(_, elements)| *elements == vec![ses[1].mac])
        .expect("the new replica never took the flow");
    let (before, after) = (&steps[moved - 1].0, &steps[moved].0);
    assert_eq!(
        (
            after.hits - before.hits,
            after.misses - before.misses,
            after.invalidations - before.invalidations,
            after.insertions - before.insertions,
        ),
        (1, 0, 1, 1),
        "the move was not a hit that replaced the entry: {before:?} -> {after:?}"
    );
}
