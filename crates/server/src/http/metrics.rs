//! Live per-endpoint latency histograms for `GET /v1/stats`.
//!
//! The offline bench reports (`jqi_bench::throughput`) summarize latency
//! as `{count, mean_us, p50_us, p95_us, p99_us, max_us}`; the gateway
//! exposes the same shape as a *live* metric, computed from a lock-free
//! log₂-bucketed histogram instead of a recorded sample vector. Recording
//! is a handful of relaxed atomic adds on the request path; quantiles are
//! read back from bucket upper bounds, so `p99_us` is exact to within one
//! power-of-two bucket — the right trade for a counter that every request
//! touches.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One power-of-two bucket per `floor(log2(nanos))`; 48 buckets cover
/// sub-nanosecond through ~78 hours.
const BUCKETS: usize = 48;

/// Half-life of the rolling latency estimate while *no* samples arrive:
/// the stored EWMA is halved per this much wall-clock silence when read.
/// This is what keeps latency-based shedding from latching — once an
/// endpoint sheds, it stops producing samples, so without decay a single
/// slow burst (or one slow cold-start request seeding the estimate)
/// would 503 that endpoint class until restart. With decay, a shed
/// endpoint's estimate falls back under its threshold within a few
/// half-lives and traffic is readmitted; if the endpoint is still slow,
/// the readmitted requests re-raise the estimate and shedding resumes —
/// a bounded duty cycle instead of a lockout.
const EWMA_HALF_LIFE_NS: u64 = 500_000_000;

/// Monotonic nanoseconds since the first time any histogram looked at
/// the clock — a process-wide epoch so timestamps fit in an atomic.
fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

/// `ewma_ns` decayed by `elapsed_ns` of silence: halved per
/// [`EWMA_HALF_LIFE_NS`], with linear interpolation inside a half-life
/// so the estimate falls smoothly rather than in steps.
fn decayed(ewma_ns: u64, elapsed_ns: u64) -> u64 {
    let halves = elapsed_ns / EWMA_HALF_LIFE_NS;
    if halves >= 64 {
        return 0;
    }
    let base = ewma_ns >> halves;
    let frac = elapsed_ns % EWMA_HALF_LIFE_NS;
    base - ((u128::from(base / 2) * u128::from(frac)) / u128::from(EWMA_HALF_LIFE_NS)) as u64
}

/// A concurrent latency histogram with log₂ buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    /// Rolling estimate (EWMA, α = 1/8) of recent latency — the signal
    /// admission control sheds on. Lossy under races, which is fine for
    /// a smoothed estimate. Time-decays toward zero while no samples
    /// arrive (see [`EWMA_HALF_LIFE_NS`]) so shedding can never latch.
    ewma_ns: AtomicU64,
    /// [`monotonic_ns`] timestamp of the last EWMA update.
    ewma_at_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            ewma_ns: AtomicU64::new(0),
            ewma_at_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        let now = monotonic_ns();
        let old = decayed(
            self.ewma_ns.load(Ordering::Relaxed),
            now.saturating_sub(self.ewma_at_ns.load(Ordering::Relaxed)),
        );
        let new = if old == 0 { ns } else { old - old / 8 + ns / 8 };
        self.ewma_ns.store(new, Ordering::Relaxed);
        self.ewma_at_ns.store(now, Ordering::Relaxed);
        let bucket = (64 - ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The rolling latency estimate in microseconds (0 before any
    /// sample) — what admission control compares against its
    /// thresholds. Decayed by the silence since the last sample, so a
    /// shed (hence sample-starved) endpoint recovers within a few
    /// half-lives instead of latching shut.
    pub fn ewma_us(&self) -> u64 {
        let at = self.ewma_at_ns.load(Ordering::Relaxed);
        let ewma = self.ewma_ns.load(Ordering::Relaxed);
        decayed(ewma, monotonic_ns().saturating_sub(at)) / 1_000
    }

    /// The latency at quantile `q` (0..=1), read from bucket upper
    /// bounds; `None` when no samples were recorded.
    fn quantile_ns(&self, counts: &[u64; BUCKETS], total: u64, q: f64) -> Option<u64> {
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i: 2^(i+1) - 1 ns.
                return Some((1u64 << (i + 1)) - 1);
            }
        }
        Some(self.max_ns.load(Ordering::Relaxed))
    }

    /// The live summary in the bench-report shape:
    /// `{count, mean_us, p50_us, p95_us, p99_us, max_us}` — or
    /// `Json::Null` when nothing was recorded yet.
    pub fn summary_json(&self) -> Json {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return Json::Null;
        }
        let mut counts = [0u64; BUCKETS];
        for (slot, bucket) in counts.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        let snapshot_total: u64 = counts.iter().sum();
        let to_us = |ns: u64| ns as f64 / 1e3;
        let mean_us = self.total_ns.load(Ordering::Relaxed) as f64 / total as f64 / 1e3;
        let q = |quant: f64| {
            self.quantile_ns(&counts, snapshot_total, quant)
                .map_or(Json::Null, |ns| Json::Num(to_us(ns)))
        };
        Json::Obj(vec![
            ("count".into(), Json::num(total as f64)),
            ("mean_us".into(), Json::Num(mean_us)),
            ("p50_us".into(), q(0.50)),
            ("p95_us".into(), q(0.95)),
            ("p99_us".into(), q(0.99)),
            (
                "max_us".into(),
                Json::Num(to_us(self.max_ns.load(Ordering::Relaxed))),
            ),
            ("ewma_us".into(), Json::num(self.ewma_us() as f64)),
        ])
    }
}

/// Names one of the gateway's histograms: each endpoint-table row
/// carries the key of the histogram that times it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKey {
    CreateSession,
    Question,
    Answers,
    Snapshot,
    Restore,
    Delta,
    Session,
    Stats,
}

/// The `"endpoints"` keys of `GET /v1/stats`, indexed by [`MetricKey`].
const KEY_NAMES: [&str; 8] = [
    "create_session",
    "question",
    "answers",
    "snapshot",
    "restore",
    "delta",
    "session",
    "stats",
];

/// One histogram per gateway operation, named as they appear under
/// `"endpoints"` in the `GET /v1/stats` response.
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    histograms: [LatencyHistogram; KEY_NAMES.len()],
}

impl GatewayMetrics {
    /// The histogram under `key`.
    pub(crate) fn get(&self, key: MetricKey) -> &LatencyHistogram {
        &self.histograms[key as usize]
    }

    /// The `"endpoints"` object for `GET /v1/stats`.
    pub fn to_json(&self) -> Json {
        let named = KEY_NAMES.iter().zip(&self.histograms);
        let fields = named.map(|(name, h)| (name.to_string(), h.summary_json()));
        Json::Obj(fields.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_summarizes_to_null() {
        assert_eq!(LatencyHistogram::new().summary_json(), Json::Null);
    }

    #[test]
    fn quantiles_track_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket of 10_000 ns
        }
        h.record(Duration::from_millis(10)); // one slow outlier
        let summary = h.summary_json();
        let get = |k: &str| summary.get(k).and_then(Json::as_num).unwrap();
        assert_eq!(get("count"), 100.0);
        // p50 within one power-of-two of 10 µs.
        assert!(
            get("p50_us") >= 10.0 && get("p50_us") <= 20.0,
            "{summary:?}"
        );
        // p99 still in the fast buckets; max sees the outlier exactly.
        assert!(get("p99_us") <= 20.0);
        assert!((get("max_us") - 10_000.0).abs() < 1.0);
        assert!(get("mean_us") > 10.0 && get("mean_us") < 200.0);
    }

    #[test]
    fn ewma_tracks_recent_latency_and_decays() {
        let h = LatencyHistogram::new();
        assert_eq!(h.ewma_us(), 0, "no samples, no estimate");
        h.record(Duration::from_millis(10));
        let seeded = h.ewma_us();
        assert!(
            (9_900..=10_000).contains(&seeded),
            "first sample seeds the estimate, got {seeded}"
        );
        // A burst of fast samples pulls the estimate down toward them.
        for _ in 0..64 {
            h.record(Duration::from_micros(100));
        }
        assert!(h.ewma_us() < 500, "decayed to {}", h.ewma_us());
        assert!(h.ewma_us() >= 90);
    }

    #[test]
    fn ewma_decay_halves_per_half_life_of_silence() {
        // The pure decay curve: exact at whole half-lives, monotone and
        // interpolated inside one, zero once the shifts run out.
        assert_eq!(decayed(800_000, 0), 800_000);
        assert_eq!(decayed(800_000, EWMA_HALF_LIFE_NS), 400_000);
        assert_eq!(decayed(800_000, 3 * EWMA_HALF_LIFE_NS), 100_000);
        let mid = decayed(800_000, EWMA_HALF_LIFE_NS / 2);
        assert!(mid < 800_000 && mid > 400_000, "got {mid}");
        assert_eq!(decayed(u64::MAX, 64 * EWMA_HALF_LIFE_NS), 0);
        assert_eq!(decayed(0, 123), 0);
    }

    #[test]
    fn a_sample_starved_estimate_recovers_below_the_shed_threshold() {
        // The latch regression: one slow request seeds the estimate past
        // the soft threshold (250 ms); with every follow-up shed, no new
        // samples arrive — the estimate must fall back on its own.
        let h = LatencyHistogram::new();
        h.record(Duration::from_millis(400));
        assert!(h.ewma_us() > 250_000, "seeded hot: {}", h.ewma_us());
        std::thread::sleep(Duration::from_millis(2 * EWMA_HALF_LIFE_NS / 1_000_000));
        let recovered = h.ewma_us();
        assert!(
            recovered < 250_000,
            "the estimate must decay below the threshold, got {recovered}"
        );
        assert!(recovered > 0, "decay is gradual, not a reset");
        // A fresh slow sample blends with the *decayed* estimate, not
        // the stale stored one.
        h.record(Duration::from_millis(400));
        assert!(h.ewma_us() < 400_000, "got {}", h.ewma_us());
    }

    #[test]
    fn metrics_table_lists_every_endpoint() {
        let m = GatewayMetrics::default();
        m.get(MetricKey::Answers).record(Duration::from_micros(3));
        let json = m.to_json();
        let Json::Obj(fields) = &json else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, KEY_NAMES);
        assert_eq!(KEY_NAMES[MetricKey::Stats as usize], "stats");
        assert_eq!(json.get("create_session"), Some(&Json::Null));
        assert!(json.get("answers").unwrap().get("count").is_some());
    }
}
