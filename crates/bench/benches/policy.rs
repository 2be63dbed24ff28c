//! `policy`: the declarative-policy toolchain under load — delta
//! compilation latency against a realistically sized rulebook, and
//! incremental-vs-full audit cost on a 1000-switch campus snapshot
//! (DESIGN.md §14).
//!
//! Two halves:
//!
//! - **Compile**: a ~200-rule `.lsp` program is compiled from
//!   scratch, then one rule is edited and the delta path runs —
//!   `diff` of the two tables plus `apply_delta` of the script. The
//!   claim is that recompiling the *edit* costs a small fraction of
//!   recompiling the *program*.
//! - **Audit**: a synthetic 1000-switch snapshot (one delivered flow
//!   and two exact-match entries per switch, a block every fifth
//!   switch) is audited in full and via [`livesec_verify::audit_delta`]
//!   scoped to single-rule cubes. The **work ratio** — auditable
//!   items total vs. items a single-rule delta touches — is exact and
//!   deterministic, and the ≥10× acceptance floor is asserted on it;
//!   wall-clock times are recorded alongside but never asserted, so a
//!   loaded CI host cannot flake the gate.
//!
//! Run modes: default = 3 timed passes; `--smoke` = 1 pass (CI);
//! `--test` = tiny topology, no JSON.

use livesec_bench::clock::Stopwatch;
use livesec_net::{FlowKey, MacAddr};
use livesec_openflow::{Action, FlowEntry, Match, OutPort};
use livesec_policy::{compile, diff};
use livesec_verify::{audit, audit_delta, EcIndex, RuleDelta, Snapshot};
use livesec_verify::{FlowView, HostInfo, SwitchState};
use serde::Serialize;
use std::net::Ipv4Addr;

/// Access switches in the synthetic campus.
const SWITCHES: u64 = 1_000;
/// Rules in the compile-bench program.
const RULES: usize = 200;
/// Single-rule deltas measured per pass.
const DELTAS: usize = 100;

fn host_mac(i: u64) -> MacAddr {
    MacAddr::from_u64(0x02_0000_0000 + i)
}

fn host_ip(i: u64) -> Ipv4Addr {
    Ipv4Addr::from(0x0a00_0000 + i as u32)
}

/// One delivered flow per switch: host A (port 2) talks to host B
/// (port 3) on the same switch over exact-match entries, plus a
/// telnet block every fifth switch. Every item is clean by
/// construction, so audit time is tracing cost, not violation
/// formatting.
fn build_snapshot(switches: u64) -> Snapshot {
    let mut snap = Snapshot {
        switches: Vec::new(),
        hosts: Vec::new(),
        elements: Vec::new(),
        blocks: Vec::new(),
        flows: Vec::new(),
        fastpasses: Vec::new(),
        epochs: (0, 0),
        shards: Vec::new(),
        quarantined: Vec::new(),
    };
    for d in 1..=switches {
        let (a, b) = (host_mac(2 * d), host_mac(2 * d + 1));
        let key = FlowKey {
            vlan: None,
            dl_src: a,
            dl_dst: b,
            dl_type: 0x0800,
            nw_src: host_ip(2 * d),
            nw_dst: host_ip(2 * d + 1),
            nw_proto: 6,
            tp_src: 40_000,
            tp_dst: 80,
        };
        snap.hosts.push(HostInfo {
            mac: a,
            ip: key.nw_src,
            dpid: d,
            port: 2,
        });
        snap.hosts.push(HostInfo {
            mac: b,
            ip: key.nw_dst,
            dpid: d,
            port: 3,
        });
        snap.switches.push(SwitchState {
            dpid: d,
            uplink: Some(1),
            n_ports: 4,
            entries: vec![
                FlowEntry::new(
                    Match::exact_any_port(&key),
                    vec![Action::Output(OutPort::Physical(3))],
                    10,
                ),
                FlowEntry::new(
                    Match::exact_any_port(&key.reversed()),
                    vec![Action::Output(OutPort::Physical(2))],
                    10,
                ),
            ],
            degraded: false,
            registered: true,
        });
        snap.flows.push(FlowView {
            key,
            chain: Vec::new(),
            blocked: false,
        });
        if d % 5 == 0 {
            snap.blocks
                .push((d, Match::any().with_nw_proto(6).with_tp_dst(2323)));
        }
    }
    snap
}

/// The cube a single-rule edit touches: one destination host, one
/// port — what `apply_policy_delta` reports for a host-scoped rule.
fn single_rule_cube(d: u64) -> Match {
    Match::any()
        .with_nw_dst(livesec_net::Ipv4Net::host(host_ip(2 * d + 1)))
        .with_nw_proto(6)
        .with_tp_dst(80)
}

/// A `.lsp` rulebook with `n` port-disjoint rules.
fn rulebook(n: usize, flipped: Option<usize>) -> String {
    let mut src = String::from("chain scrub = [ ids, protoid ]\n");
    for i in 0..n {
        let verdict = match (i % 3, Some(i) == flipped) {
            (_, true) => "deny",
            (0, _) => "allow",
            (1, _) => "via scrub",
            _ => "deny",
        };
        src.push_str(&format!(
            "rule r{i}: proto tcp port {} {verdict}\n",
            1000 + i
        ));
    }
    src.push_str("default allow\n");
    src
}

#[derive(Serialize)]
struct CompileResult {
    rules: usize,
    /// From-scratch compile of the edited program, nanoseconds.
    compile_full_ns: u64,
    /// `diff(old_table, new_table)` — the edit script, nanoseconds.
    diff_ns: u64,
    /// Applying the script to the old table, nanoseconds.
    apply_ns: u64,
    /// Deltas in the script (1 for the single-rule edit).
    script_len: usize,
}

#[derive(Serialize)]
struct AuditResult {
    switches: u64,
    auditable_items: usize,
    /// Full audit wall time, nanoseconds (mean over passes).
    full_audit_ns: u64,
    /// Scoped audit wall time for a single-rule delta, nanoseconds
    /// (mean over `deltas_measured` distinct deltas).
    delta_audit_ns: u64,
    /// full / delta wall-clock ratio — recorded, not asserted.
    wall_speedup: f64,
    /// auditable_items / mean items touched per single-rule delta.
    /// Deterministic; the ≥10× acceptance floor is asserted on this.
    work_ratio: f64,
    deltas_measured: usize,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    model: &'static str,
    passes: u32,
    compile: CompileResult,
    audit: AuditResult,
}

fn bench_compile(passes: u32) -> CompileResult {
    let old_src = rulebook(RULES, None);
    let new_src = rulebook(RULES, Some(RULES / 2));
    let old = compile(&old_src).expect("rulebook compiles").table;

    let (mut full_ns, mut diff_ns, mut apply_ns) = (0u64, 0u64, 0u64);
    let mut script_len = 0usize;
    for _ in 0..passes {
        let t0 = Stopwatch::start();
        let new = compile(&new_src).expect("edited rulebook compiles").table;
        full_ns += t0.nanos();

        let t0 = Stopwatch::start();
        let script = diff(&old, &new);
        diff_ns += t0.nanos();
        script_len = script.len();

        let mut migrated = old.clone();
        let t0 = Stopwatch::start();
        for d in &script {
            migrated.apply_delta(d);
        }
        apply_ns += t0.nanos();
        assert_eq!(migrated, new, "delta script must converge");
    }
    let p = u64::from(passes);
    CompileResult {
        rules: RULES,
        compile_full_ns: full_ns / p,
        diff_ns: diff_ns / p,
        apply_ns: apply_ns / p,
        script_len,
    }
}

fn bench_audit(switches: u64, deltas: usize, passes: u32) -> AuditResult {
    let snap = build_snapshot(switches);
    let idx = EcIndex::build(&snap);
    let total = idx.total_items();

    // The deterministic half: how much of the snapshot does a
    // single-rule delta actually touch?
    let mut touched_total = 0usize;
    for i in 0..deltas {
        let d = 1 + (i as u64 * 7) % switches;
        let scope = idx.touched(&[RuleDelta::network_wide(single_rule_cube(d))]);
        assert!(
            !scope.is_empty(),
            "delta cube for switch {d} missed its flow"
        );
        touched_total += scope.len();
    }
    let mean_touched = touched_total as f64 / deltas as f64;
    let work_ratio = total as f64 / mean_touched;

    // The wall-clock half, recorded for the report.
    let mut full_ns = 0u64;
    for _ in 0..passes {
        let t0 = Stopwatch::start();
        let violations = audit(&snap);
        full_ns += t0.nanos();
        assert!(violations.is_empty(), "synthetic snapshot must audit clean");
    }
    let mut delta_ns = 0u64;
    for _ in 0..passes {
        for i in 0..deltas {
            let d = 1 + (i as u64 * 7) % switches;
            let scoped = [RuleDelta::network_wide(single_rule_cube(d))];
            let t0 = Stopwatch::start();
            let violations = audit_delta(&snap, &scoped);
            delta_ns += t0.nanos();
            assert!(violations.is_empty(), "scoped audit must be clean too");
        }
    }
    let full_mean = full_ns / u64::from(passes);
    let delta_mean = delta_ns / (u64::from(passes) * deltas as u64);
    AuditResult {
        switches,
        auditable_items: total,
        full_audit_ns: full_mean,
        delta_audit_ns: delta_mean,
        wall_speedup: full_mean as f64 / delta_mean.max(1) as f64,
        work_ratio,
        deltas_measured: deltas,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--test") {
        // Under `cargo test`: prove the harness runs, keep the
        // recorded artifact untouched.
        let audit = bench_audit(50, 10, 1);
        assert!(audit.work_ratio >= 10.0);
        let compile = bench_compile(1);
        assert_eq!(compile.script_len, 1);
        println!("test-mode policy bench: ok");
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let passes = if smoke { 1 } else { 3 };

    let compile = bench_compile(passes);
    println!(
        "compile: {} rules from scratch {:.2} ms | diff {:.1} µs + apply {:.1} µs \
         ({} delta)",
        compile.rules,
        compile.compile_full_ns as f64 / 1e6,
        compile.diff_ns as f64 / 1e3,
        compile.apply_ns as f64 / 1e3,
        compile.script_len,
    );

    let audit = bench_audit(SWITCHES, DELTAS, passes);
    println!(
        "audit: {} items | full {:.2} ms, single-rule delta {:.1} µs \
         ({:.0}x wall, {:.0}x work ratio; floor 10x)",
        audit.auditable_items,
        audit.full_audit_ns as f64 / 1e6,
        audit.delta_audit_ns as f64 / 1e3,
        audit.wall_speedup,
        audit.work_ratio,
    );
    assert!(
        audit.work_ratio >= 10.0,
        "incremental audit work ratio below the acceptance floor: {:.1}x",
        audit.work_ratio
    );

    let report = BenchReport {
        bench: "policy",
        model: "work_ratio is exact (auditable items / items touched by a single-rule \
                delta) and carries the 10x acceptance floor; wall-clock numbers are \
                recorded for context but never asserted",
        passes,
        compile,
        audit,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_policy.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(path, json).expect("write BENCH_policy.json");
    println!("wrote {path}");
}
