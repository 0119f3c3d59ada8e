//! Recorders for the traversal-time and memory metrics of the evaluation.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::stats::Summary;

/// Collects contribution-graph traversal durations (the metric of Figure 14).
#[derive(Debug, Default)]
pub struct TraversalRecorder {
    samples_ns: Mutex<Vec<u64>>,
    graph_sizes: Mutex<Vec<usize>>,
}

impl TraversalRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records one traversal: its duration and the number of originating tuples found.
    pub fn record(&self, duration: Duration, graph_size: usize) {
        self.samples_ns.lock().push(duration.as_nanos() as u64);
        self.graph_sizes.lock().push(graph_size);
    }

    /// Number of traversals recorded.
    pub fn count(&self) -> usize {
        self.samples_ns.lock().len()
    }

    /// Mean traversal time in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.summary_ms().mean
    }

    /// Summary of traversal times in milliseconds.
    pub fn summary_ms(&self) -> Summary {
        let samples: Vec<f64> = self
            .samples_ns
            .lock()
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        Summary::of(&samples)
    }

    /// Mean number of originating tuples per traversal (the contribution-graph size).
    pub fn mean_graph_size(&self) -> f64 {
        let sizes = self.graph_sizes.lock();
        if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
        }
    }
}

/// Periodically samples a memory gauge (e.g. the tracking allocator's live bytes) and
/// reports the average and maximum over the run, as in Figures 12 and 13.
#[derive(Debug, Default)]
pub struct MemorySampler {
    samples: Mutex<Vec<usize>>,
}

impl MemorySampler {
    /// Creates an empty sampler.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records one sample of the gauge.
    pub fn sample(&self, bytes: usize) {
        self.samples.lock().push(bytes);
    }

    /// Number of samples taken.
    pub fn count(&self) -> usize {
        self.samples.lock().len()
    }

    /// Average sampled memory, in megabytes.
    pub fn average_mb(&self) -> f64 {
        let samples = self.samples.lock();
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().sum::<usize>() as f64 / samples.len() as f64 / (1024.0 * 1024.0)
    }

    /// Maximum sampled memory, in megabytes.
    pub fn max_mb(&self) -> f64 {
        self.samples.lock().iter().copied().max().unwrap_or(0) as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traversal_recorder_tracks_time_and_graph_size() {
        let rec = TraversalRecorder::new();
        rec.record(Duration::from_micros(100), 4);
        rec.record(Duration::from_micros(300), 8);
        assert_eq!(rec.count(), 2);
        assert!((rec.mean_ms() - 0.2).abs() < 1e-9);
        assert!((rec.mean_graph_size() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn memory_sampler_reports_average_and_max() {
        let sampler = MemorySampler::new();
        assert_eq!(sampler.average_mb(), 0.0);
        assert_eq!(sampler.max_mb(), 0.0);
        sampler.sample(1024 * 1024);
        sampler.sample(3 * 1024 * 1024);
        assert_eq!(sampler.count(), 2);
        assert!((sampler.average_mb() - 2.0).abs() < 1e-9);
        assert!((sampler.max_mb() - 3.0).abs() < 1e-9);
    }
}
