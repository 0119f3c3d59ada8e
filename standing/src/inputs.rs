//! Seeded inputs of the four workloads and the reference computations their
//! outputs are checked against. `--seed` reaches the Linear Road generator and the
//! Zipf key/value stream and nothing else.

use std::collections::HashMap;
use std::sync::Arc;

use genealog_spe::operator::source::SourceGenerator;
use genealog_spe::Timestamp;
use genealog_workloads::linear_road::{LinearRoadConfig, LinearRoadGenerator};
use genealog_workloads::oracle::q1_oracle;
use genealog_workloads::types::PositionReport;

/// Payload of the chain workloads: `(key, value)`.
pub type Reading = (u32, i64);

/// Number of distinct keys of the chain workloads.
pub const KEYS: usize = 256;
/// Zipf exponent of the key popularity.
pub const ZIPF_EXPONENT: f64 = 0.8;
/// Event-time distance between consecutive chain tuples.
pub const EVENT_PERIOD_MS: u64 = 1;
/// Tumbling window of the chain aggregate.
pub const CHAIN_WINDOW_MS: u64 = 60_000;
/// Cars on the Linear Road expressway (one report per car per 30 s round).
pub const LR_CARS: u32 = 4_000;

/// SplitMix64: the benchmark's own generator, so the input stream does not move
/// when the workspace's `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded chain input: `n` readings with Zipf-distributed keys and small
/// non-negative values (so the pipeline's `value >= 0` filter passes all of them).
pub fn zipf_stream(seed: u64, n: u64) -> Arc<[Reading]> {
    let weights: Vec<f64> = (1..=KEYS)
        .map(|rank| (rank as f64).powf(-ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let u = rng.next_f64();
            let key = cdf.partition_point(|&c| c <= u).min(KEYS - 1) as u32;
            (key, (rng.next_u64() % 1_000) as i64)
        })
        .collect()
}

/// A source replaying a shared slice at [`EVENT_PERIOD_MS`]; runs of one
/// invocation share the slice instead of copying it.
#[derive(Debug, Clone)]
pub struct SliceSource {
    items: Arc<[Reading]>,
    next: usize,
}

impl SliceSource {
    /// Replays `items` from the start.
    pub fn new(items: Arc<[Reading]>) -> Self {
        SliceSource { items, next: 0 }
    }
}

impl SourceGenerator for SliceSource {
    type Item = Reading;

    fn next_tuple(&mut self) -> Option<(Timestamp, Reading)> {
        let item = *self.items.get(self.next)?;
        let ts = Timestamp::from_millis(self.next as u64 * EVENT_PERIOD_MS);
        self.next += 1;
        Some((ts, item))
    }
}

/// The Linear Road configuration of `rounds` reporting rounds.
pub fn lr_config(seed: u64, cars: u32, rounds: u32) -> LinearRoadConfig {
    LinearRoadConfig {
        cars,
        rounds,
        seed,
        ..LinearRoadConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Reference outputs
// ---------------------------------------------------------------------------

/// An order-independent fingerprint of a contribution set: how many source
/// tuples, and the wrapping sum of their fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Number of source tuples.
    pub count: u64,
    /// Wrapping sum of [`fingerprint`]s.
    pub hash: u64,
}

impl Digest {
    /// Folds one source tuple in.
    pub fn add(&mut self, fingerprint: u64) {
        self.count += 1;
        self.hash = self.hash.wrapping_add(fingerprint);
    }
}

/// Fingerprint of one source tuple from its timestamp and two payload words.
pub fn fingerprint(ts_ms: u64, a: u64, b: u64) -> u64 {
    mix(ts_ms ^ mix(a ^ mix(b)))
}

/// [`fingerprint`] of a chain source tuple.
pub fn reading_fingerprint(ts_ms: u64, reading: &Reading) -> u64 {
    fingerprint(ts_ms, u64::from(reading.0), reading.1 as u64)
}

/// [`fingerprint`] of a Linear Road position report.
pub fn report_fingerprint(ts_ms: u64, report: &PositionReport) -> u64 {
    fingerprint(
        ts_ms,
        u64::from(report.car_id) << 32 | u64::from(report.speed),
        u64::from(report.pos),
    )
}

/// A sink tuple as the correctness gate compares it: timestamp plus the
/// `Debug` rendering of the payload.
pub type Row = (u64, String);

/// Renders a sink tuple to its comparable form.
pub fn row<T: std::fmt::Debug>(ts_ms: u64, data: &T) -> Row {
    (ts_ms, format!("{data:?}"))
}

/// One expected operation: a sink tuple and the contribution set proving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedOp {
    /// The sink tuple.
    pub row: Row,
    /// Its contribution set.
    pub contribution: Digest,
}

/// Which tuples a chain workload's contribution sets are made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// The source tuples themselves (every shard local: the graph is in-process).
    Source,
    /// The tuples that entered the shard group, i.e. the map's outputs. The
    /// shard-group stitching resolves one `REMOTE` level, so with remote shards a
    /// contribution set ends at what crossed the wire: same timestamps, mapped
    /// payloads.
    ShardInput,
}

/// Reference for the chain pipeline, computed single-threaded with a `HashMap`:
/// `filter(value >= 0) → map(value * 2) → tumbling sum per key`, in the sink's
/// canonical `(window, key)` order.
pub fn chain_reference(items: &[Reading], origin: Origin) -> Vec<ExpectedOp> {
    let mut windows: HashMap<(u64, u32), (i64, Digest)> = HashMap::new();
    for (i, reading) in items.iter().enumerate() {
        if reading.1 < 0 {
            continue;
        }
        let ts_ms = i as u64 * EVENT_PERIOD_MS;
        let window = ts_ms / CHAIN_WINDOW_MS * CHAIN_WINDOW_MS;
        let mapped = (reading.0, reading.1 * 2);
        let entry = windows.entry((window, reading.0)).or_default();
        entry.0 += mapped.1;
        entry.1.add(reading_fingerprint(
            ts_ms,
            match origin {
                Origin::Source => reading,
                Origin::ShardInput => &mapped,
            },
        ));
    }
    let mut ops: Vec<((u64, u32), (i64, Digest))> = windows.into_iter().collect();
    ops.sort_unstable_by_key(|(at, _)| *at);
    ops.into_iter()
        .map(|((window, key), (sum, contribution))| ExpectedOp {
            row: row(window, &(key, sum)),
            contribution,
        })
        .collect()
}

/// Reference for Q1 from the workspace's brute-force oracle. Only zero-speed
/// reports can reach Q1's aggregate, and the oracle looks at nothing else, so the
/// simulation is filtered while it is generated instead of being materialised.
pub fn lr_reference(config: LinearRoadConfig) -> Vec<ExpectedOp> {
    let mut generator = LinearRoadGenerator::new(config);
    let mut stopped = Vec::new();
    while let Some((ts, report)) = generator.next_tuple() {
        if report.speed == 0 {
            stopped.push((ts, report));
        }
    }
    q1_oracle(&stopped)
        .into_iter()
        .map(|alert| {
            let mut contribution = Digest::default();
            for (ts, report) in &alert.sources {
                contribution.add(report_fingerprint(ts.as_millis(), report));
            }
            ExpectedOp {
                row: row(alert.ts.as_millis(), &alert.alert),
                contribution,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_is_seeded_skewed_and_passes_the_filter() {
        let a = zipf_stream(7, 20_000);
        assert_eq!(a, zipf_stream(7, 20_000));
        assert_ne!(a, zipf_stream(8, 20_000));
        assert!(a
            .iter()
            .all(|r| (r.0 as usize) < KEYS && (0..1_000).contains(&r.1)));
        let hottest = a.iter().filter(|r| r.0 == 0).count();
        let coldest = a.iter().filter(|r| r.0 as usize == KEYS - 1).count();
        assert!(hottest > 20 * coldest.max(1), "{hottest} vs {coldest}");
    }

    #[test]
    fn chain_reference_sums_doubled_values_per_window_and_key() {
        let mut items = vec![(1u32, 5i64); 3];
        items.push((2, 7));
        let ops = chain_reference(&items, Origin::Source);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].row, (0, "(1, 30)".to_string()));
        assert_eq!(ops[0].contribution.count, 3);
        assert_eq!(ops[1].row, (0, "(2, 14)".to_string()));
        // A tuple past the first minute opens a second window.
        let mut long = vec![(0u32, 1i64); CHAIN_WINDOW_MS as usize + 1];
        long[0] = (9, 1);
        let ops = chain_reference(&long, Origin::ShardInput);
        assert_eq!(ops.last().unwrap().row.0, CHAIN_WINDOW_MS);
        assert_eq!(ops.last().unwrap().contribution.count, 1);
    }

    #[test]
    fn lr_reference_proves_each_alert_with_four_reports() {
        let ops = lr_reference(lr_config(3, 200, 40));
        assert!(!ops.is_empty());
        assert!(ops.iter().all(|op| op.contribution.count == 4));
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let (mut a, mut b, mut c) = (Digest::default(), Digest::default(), Digest::default());
        for f in [1, 2, 3] {
            a.add(fingerprint(f, 0, 0));
        }
        for f in [3, 1, 2] {
            b.add(fingerprint(f, 0, 0));
        }
        for f in [1, 2, 4] {
            c.add(fingerprint(f, 0, 0));
        }
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
