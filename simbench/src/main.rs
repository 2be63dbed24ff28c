//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! simbench --workload <e3_ids_bulk|flow_churn|udp_small> --seed <n>
//!          --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats untraced runs for `--seconds` and reports the
//! end-to-end metrics: `setup_s` as the median run's, `run_s` and
//! `frames_per_s` from the fastest time of each slice of the span (see
//! [`measure::fastest_span`]). `--trace 1` alternates untraced and
//! traced runs and reports the per-layer metrics. Every run of one invocation uses
//! the same seed and must reach identical simulated outcomes. The last
//! line of standard output is a JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is nonzero when a
//! check fails.

use livesec_simbench::clock::Stopwatch;
use livesec_simbench::layers::Metric;
use livesec_simbench::measure::{self, fastest_span, median, percentile, Rep};
use livesec_simbench::workload::Workload;
use std::process::ExitCode;

/// Version of the report layout.
const SCHEMA: &str = "simbench/1";
/// The paper's §V-B.1 aggregate intrusion-detection floor.
const E3_FLOOR_MBPS: f64 = 8_000.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
        }),
        None => Some(head.to_string()),
    };
    match commit.map(|c| c.trim().to_string()) {
        Some(c) if !c.is_empty() => c,
        _ => "unknown (not a git checkout)".to_string(),
    }
}

struct Checks(Vec<(String, bool)>);

impl Checks {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.0.push((name.into(), ok));
    }

    fn all_passed(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <e3_ids_bulk|flow_churn|udp_small> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "provenance {{\"schema\": \"{SCHEMA}\", \"workload\": \"{}\", \"seed\": {}, \
         \"trace\": {}, \"nproc\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \
         \"warmup_sim_s\": {}, \"span_sim_s\": {}, \"seconds\": {}}}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("SIMBENCH_RUSTC"),
        git_commit(),
        w.warmup().as_secs_f64(),
        w.span().as_secs_f64(),
        args.seconds,
    );

    let started = Stopwatch::start();
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut peak_rss = None;
    let mut last_rep_s = 0.0;
    loop {
        let enough = if args.trace {
            plain.len() >= 2 && !traced.is_empty()
        } else {
            plain.len() >= 3
        };
        // Stop when one more run like the last would overrun the budget.
        if enough && started.secs() + last_rep_s > args.seconds {
            break;
        }
        // A traced invocation alternates untraced and traced runs.
        let trace_this = args.trace && plain.len() > traced.len();
        let rep_started = Stopwatch::start();
        let s = measure::run(w, args.seed, trace_this);
        last_rep_s = rep_started.secs();
        println!(
            "run {} traced={} setup_s={:.4} run_s={:.4}",
            plain.len() + traced.len(),
            u8::from(trace_this),
            s.setup_s,
            s.run_s
        );
        peak_rss = peak_rss.or_else(peak_rss_mb);
        if trace_this {
            traced.push(s);
        } else {
            plain.push(s);
        }
    }

    let first = &plain[0];
    let (b, a) = (&first.before, &first.after);
    let mut checks = Checks(Vec::new());
    let same = plain.iter().chain(&traced).all(|s| {
        s.before == first.before && s.after == first.after && s.latencies == first.latencies
    });
    checks.check(
        format!(
            "identical simulated outcome in {} untraced and {} traced runs",
            plain.len(),
            traced.len()
        ),
        same,
    );

    let span_s = w.span().as_secs_f64();
    let goodput_mbps = (a.app_bytes - b.app_bytes) as f64 * 8.0 / span_s / 1e6;
    // Failed operations stay in the denominator.
    let (attempted, failed) = match w {
        // Datagrams sent before the span may arrive inside it, so UDP
        // is accounted over the whole run; sources stop before its end.
        Workload::UdpSmall => (a.issued, a.issued.saturating_sub(a.completed) + a.failed),
        _ => (a.issued - b.issued, a.failed - b.failed),
    };
    match w {
        Workload::E3IdsBulk => {
            checks.check(
                format!("goodput {goodput_mbps:.1} Mbps >= {E3_FLOOR_MBPS} Mbps"),
                goodput_mbps >= E3_FLOOR_MBPS,
            );
            checks.check(format!("{} aborted requests == 0", a.failed), a.failed == 0);
        }
        Workload::FlowChurn => checks.check(
            "every issued request is completed, aborted or the one outstanding",
            plain.iter().chain(&traced).all(|s| s.http_accounted),
        ),
        Workload::UdpSmall => checks.check(
            format!(
                "delivered {} == sent {}, {} duplicates",
                a.completed, a.issued, a.failed
            ),
            a.completed == a.issued && a.failed == 0,
        ),
    }
    checks.check(format!("{attempted} operations attempted"), attempted > 0);

    let mut lat = first.latencies.clone();
    lat.sort_unstable();
    let tail_p = w.tail_percentile();
    let beyond = (lat.len() as f64 * (1.0 - tail_p / 100.0)).floor();
    checks.check(
        format!("{} latency samples, {beyond} beyond p{tail_p}", lat.len()),
        beyond >= 10.0,
    );
    let (p50_ms, tail_ms) = if lat.is_empty() {
        (0.0, 0.0)
    } else {
        (
            percentile(&lat, 50.0) as f64 / 1e6,
            percentile(&lat, tail_p) as f64 / 1e6,
        )
    };

    let runs = |f: fn(&Rep) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
    let median_run_s = median(&runs(|s| s.run_s));
    let frames = (a.ports.rx_frames - b.ports.rx_frames) as f64;
    let mut metrics: Vec<(&'static str, Metric)> = if args.trace {
        let mut by_span: Vec<&Rep> = traced.iter().collect();
        by_span.sort_by(|x, y| x.run_s.total_cmp(&y.run_s));
        let mid = by_span[(by_span.len() - 1) / 2];
        let mut m = mid.layers.clone().expect("traced run has layers");
        m.push((
            "trace.overhead_share",
            (mid.run_s / median_run_s - 1.0, "ratio"),
        ));
        m
    } else {
        let rss = peak_rss.unwrap_or(0.0);
        checks.check(format!("peak RSS {rss:.1} MiB read"), rss > 0.0);
        let run_s = fastest_span(&plain);
        vec![
            ("setup_s", (median(&runs(|s| s.setup_s)), "s")),
            ("run_s", (run_s, "s")),
            ("frames_per_s", (frames / run_s, "1/s")),
            ("peak_rss_mb", (rss, "MiB")),
            ("sim_goodput_mbps", (goodput_mbps, "Mbps")),
            (
                "sim_ok_share",
                (1.0 - failed as f64 / attempted.max(1) as f64, "share"),
            ),
            ("sim_lat_p50_ms", (p50_ms, "ms")),
            ("sim_lat_tail_ms", (tail_ms, "ms")),
        ]
    };
    for (_, (v, _)) in &mut metrics {
        if !v.is_finite() {
            *v = 0.0;
        }
    }

    for (name, ok) in &checks.0 {
        println!("check {}: {name}", if *ok { "pass" } else { "FAIL" });
    }
    println!(
        "tail percentile p{tail_p} over {} samples; {} untraced runs, median run_s {median_run_s:.4}",
        lat.len(),
        plain.len()
    );
    for (name, (v, unit)) in &metrics {
        println!("metric {name:<32} {v:>16.6} {unit}");
    }
    if args.trace {
        let span = metrics
            .iter()
            .find(|(n, _)| *n == "trace.span_s")
            .map_or(0.0, |m| m.1 .0);
        let parts: f64 = metrics
            .iter()
            .filter(|(n, (_, unit))| *unit == "s" && *n != "trace.span_s")
            .map(|(_, (v, _))| v)
            .sum();
        println!(
            "listed self times + sim.kernel_s + trace.shim_s = {parts:.6} s; traced span = {span:.6} s"
        );
    }

    let correct = checks.all_passed();
    let body = metrics
        .iter()
        .map(|(name, (v, unit))| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    let reps = (plain.len() + traced.len()) as u64;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        attempted * reps,
        failed * reps
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
