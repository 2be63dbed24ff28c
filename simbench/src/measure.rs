//! One repetition of a workload: build, warm up, measure the span.

use crate::clock::Stopwatch;
use crate::layers::{self, Metric};
use crate::shim::Tracer;
use crate::workload::{build, Tally, Workload};
use std::rc::Rc;

/// The measured span is simulated in this many equal slices, each timed
/// on its own. Every repetition of a seed does the same simulated work
/// in slice `i`, so slices compare across repetitions.
pub const SLICES: usize = 10;

/// The outcome of one repetition.
#[derive(Debug)]
pub struct Rep {
    /// Wall seconds to build the campus and simulate the warm-up.
    pub setup_s: f64,
    /// Wall seconds to simulate the measured span.
    pub run_s: f64,
    /// Wall seconds of each of the span's [`SLICES`] slices.
    pub slice_s: Vec<f64>,
    /// Counters when the span starts.
    pub before: Tally,
    /// Counters when the span ends.
    pub after: Tally,
    /// Latency samples completed in the span, simulated nanoseconds.
    pub latencies: Vec<u64>,
    /// Whether every HTTP request issued is completed, aborted or the
    /// one still outstanding.
    pub http_accounted: bool,
    /// Per-layer metrics, on traced repetitions.
    pub layers: Option<Vec<(&'static str, Metric)>>,
}

/// Runs `workload` for `seed` once; with `traced`, every node is
/// wrapped in the timing shim before the first event.
///
/// # Panics
///
/// Panics if the campus holds a node type the shim cannot wrap.
pub fn run(workload: Workload, seed: u64, traced: bool) -> Rep {
    let t0 = Stopwatch::start();
    let mut bench = build(workload, seed);
    let tracer = traced.then(|| {
        let tracer = Rc::new(Tracer::default());
        let unwrapped = tracer.install(&mut bench.campus.world);
        assert!(unwrapped.is_empty(), "shim cannot wrap {unwrapped:?}");
        tracer
    });
    bench.run_for(workload.warmup());
    let setup_s = t0.secs();

    let before = bench.tally();
    let snap = tracer.as_ref().map(|t| t.snapshot());
    // Slices compose exactly: `run_for` ends each one at its deadline.
    let slice = workload.span() / SLICES as u64;
    let slice_s: Vec<f64> = (0..SLICES)
        .map(|_| {
            let t = Stopwatch::start();
            bench.run_for(slice);
            t.secs()
        })
        .collect();
    let run_s = slice_s.iter().sum();
    let span = tracer
        .as_ref()
        .zip(snap)
        .map(|(t, snap)| t.snapshot().since(&snap));

    let after = bench.tally();
    let layers = tracer
        .zip(span)
        .map(|(t, span)| layers::metrics(&bench, &before, &after, run_s, &span, &t.take_samples()));
    Rep {
        setup_s,
        run_s,
        slice_s,
        latencies: bench.latencies_since(&before.latency_marks),
        http_accounted: bench.http_requests_accounted(),
        before,
        after,
        layers,
    }
}

/// The nearest-rank `p`-th percentile of `sorted`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The span time with the least host interference seen in `reps`: the
/// fastest time of each slice over the repetitions, summed.
///
/// Other tenants of a shared host slow the simulator by up to a third
/// in phases lasting tens of seconds, and interference only ever adds
/// time, so the fastest observation of a fixed piece of work is a far
/// steadier estimate of its cost than the median.
pub fn fastest_span(reps: &[Rep]) -> f64 {
    (0..SLICES)
        .map(|i| {
            reps.iter()
                .map(|r| r.slice_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
