//! The Source operator: injects externally generated tuples into a query.
//!
//! A Source wraps a [`SourceGenerator`] that produces timestamp-ordered payloads
//! (position reports, smart-meter readings, ...). The operator stamps each tuple with
//! the current wall-clock *stimulus*, asks the provenance system for the `SOURCE`
//! metadata (§4.1) and forwards the tuple followed by a watermark, so downstream
//! stateful operators can make deterministic progress.
//!
//! A Source's loop heads a chain ([`crate::fusion`]) and hands every tuple,
//! watermark and barrier to what follows it. The stateless stages the builder fuses behind it run on the
//! source's thread, so a tuple a filter drops never crosses a channel; with nothing
//! fusable behind it (or fusion off) the Source is a chain of one whose tail is its
//! output channel.
//!
//! The thread that allocates a query's source tuples also frees the provenance
//! graphs built from them: while its loop runs, a Source drains the query's
//! reclaimer between tuples (see the `reclaim` module).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::channel::{BatchConfig, ChannelClosed};
use crate::fusion::Tail;
use crate::metrics::OpCounters;
use crate::operator::now_nanos;
use crate::provenance::{ProvenanceSystem, SourceContext};
use crate::reclaim::Reclaimer;
use crate::state::{CheckpointHandle, Participant, Snapshot};
use crate::time::Timestamp;
use crate::tuple::{GTuple, TupleData};

/// A generator of timestamp-ordered source tuples.
///
/// Generators must produce non-decreasing timestamps; the Source operator checks this
/// in debug builds.
pub trait SourceGenerator: Send + 'static {
    /// The payload type produced by this generator.
    type Item: TupleData;

    /// Produces the next tuple, or `None` when the stream is exhausted.
    fn next_tuple(&mut self) -> Option<(Timestamp, Self::Item)>;
}

/// A source backed by an in-memory vector of timestamped payloads.
#[derive(Debug, Clone)]
pub struct VecSource<T> {
    items: Vec<(Timestamp, T)>,
    next: usize,
}

impl<T: TupleData> VecSource<T> {
    /// Creates a source from explicitly timestamped items.
    ///
    /// # Panics
    /// Panics if the items are not sorted by timestamp.
    pub fn new(items: Vec<(Timestamp, T)>) -> Self {
        assert!(
            items.windows(2).all(|w| w[0].0 <= w[1].0),
            "VecSource items must be timestamp-ordered"
        );
        VecSource { items, next: 0 }
    }

    /// Creates a source that assigns evenly spaced timestamps (`i * period_ms`).
    pub fn with_period(items: Vec<T>, period_ms: u64) -> Self {
        let items = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| (Timestamp::from_millis(i as u64 * period_ms), item))
            .collect();
        VecSource { items, next: 0 }
    }

    /// Number of items remaining.
    pub fn remaining(&self) -> usize {
        self.items.len() - self.next
    }
}

impl<T: TupleData> SourceGenerator for VecSource<T> {
    type Item = T;

    fn next_tuple(&mut self) -> Option<(Timestamp, T)> {
        let item = self.items.get(self.next).cloned();
        if item.is_some() {
            self.next += 1;
        }
        item
    }
}

/// Input-rate control for a Source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RateLimit {
    /// Inject tuples as fast as downstream back-pressure allows (used to measure the
    /// maximum sustainable throughput, as in the paper's evaluation).
    #[default]
    Unlimited,
    /// Inject at most this many tuples per second.
    TuplesPerSecond(u64),
}

/// Configuration of a Source operator.
#[derive(Debug, Clone, Copy)]
pub struct SourceConfig {
    /// Injection rate control.
    pub rate: RateLimit,
    /// Emit a watermark after every `watermark_every` tuples (1 = after every tuple).
    pub watermark_every: u64,
}

impl Default for SourceConfig {
    fn default() -> Self {
        SourceConfig {
            rate: RateLimit::Unlimited,
            watermark_every: 1,
        }
    }
}

/// The Source loop: the head of the fused chain that runs on the source's thread.
#[derive(Debug)]
pub(crate) struct SourceOp<G: SourceGenerator, P: ProvenanceSystem> {
    name: String,
    source_id: u32,
    generator: G,
    config: SourceConfig,
    /// Tuples per batch of the source's output stream: the head marks a batch end
    /// after each run of this many tuples, as the pump does behind a channel.
    batch: BatchConfig,
    provenance: P,
    stop: Arc<AtomicBool>,
    checkpoints: CheckpointHandle,
    reclaimer: Arc<Reclaimer>,
}

impl<G: SourceGenerator, P: ProvenanceSystem> SourceOp<G, P> {
    /// Creates a Source. When `checkpoints` is filled before the query is deployed,
    /// the Source injects an epoch barrier every
    /// [`interval`](crate::state::CheckpointConfig::interval) tuples and commits its
    /// replay offset for that epoch. While its loop runs it frees the provenance
    /// graphs the query's sinks retire into `reclaimer`.
    #[allow(clippy::too_many_arguments)] // one handle per query-wide service
    pub(crate) fn new(
        name: impl Into<String>,
        source_id: u32,
        generator: G,
        config: SourceConfig,
        batch: BatchConfig,
        provenance: P,
        stop: Arc<AtomicBool>,
        checkpoints: CheckpointHandle,
        reclaimer: Arc<Reclaimer>,
    ) -> Self {
        SourceOp {
            name: name.into(),
            source_id,
            generator,
            config,
            batch,
            provenance,
            stop,
            checkpoints,
            reclaimer,
        }
    }

    /// Runs the source to the end of its generator (or the stop flag), handing each
    /// tuple, watermark and epoch barrier to `next` — the rest of the chain it
    /// heads — and then the end of the stream. It marks a batch end wherever its
    /// output channel would have flushed a full batch, so a tail that frames by
    /// batch (Send) frames the same behind a Source as behind the pump. The source
    /// counts nothing itself: the chain counts its `tuples_out` at the hand-off, and
    /// its gauges carry the head stage's name, which is the source's. Between two
    /// tuples it drops the graphs the sinks retired (one relaxed load when there
    /// are none).
    ///
    /// # Errors
    /// Returns [`ChannelClosed`] as soon as `next` reports that the downstream
    /// consumer has gone away: the source stops injecting.
    pub(crate) fn run(
        mut self,
        counters: &OpCounters,
        next: &mut dyn Tail<G::Item, P::Meta>,
    ) -> Result<(), ChannelClosed> {
        // Live load-shedding signals: how far the source has replayed and which
        // barrier epoch it last committed.
        let replay_offset = counters.gauge("genealog_source_replay_offset", &[]);
        let barrier_epoch = counters.gauge("genealog_source_barrier_epoch", &[]);
        let mut seq: u64 = 0;
        let mut last_ts = Timestamp::MIN;

        let checkpoint = Participant::join(&self.checkpoints, &self.name);
        if let Some(offset) = checkpoint.as_ref().and_then(|(_, s)| s.as_ref()?.as_u64()) {
            // Fast-forward to the committed replay offset: the generator is
            // deterministic, so discarding the first `offset` tuples reproduces
            // exactly the prefix the checkpoint already covers. Resuming with
            // `seq = offset` keeps the watermark and barrier cadence identical to
            // a run that never failed.
            while seq < offset {
                if self.generator.next_tuple().is_none() {
                    break;
                }
                seq += 1;
            }
            replay_offset.set(seq);
        }
        let start = std::time::Instant::now();
        let base_seq = seq;
        // Tuples since the last flush of the batch the output channel would hold:
        // a full batch, a watermark and a barrier each flush it.
        let mut run = 0;
        // Leaves when dropped: on every return, `?` included, and while unwinding.
        let mut drainer = self.reclaimer.enter();

        while let Some((ts, data)) = self.generator.next_tuple() {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            drainer.drain();
            debug_assert!(
                ts >= last_ts,
                "source generator produced out-of-order tuples"
            );
            last_ts = ts;

            if let RateLimit::TuplesPerSecond(rate) = self.config.rate {
                if let Some(expected_nanos) = ((seq - base_seq) * 1_000_000_000).checked_div(rate) {
                    let expected = std::time::Duration::from_nanos(expected_nanos);
                    let elapsed = start.elapsed();
                    if expected > elapsed {
                        std::thread::sleep(expected - elapsed);
                    }
                }
            }

            let ctx = SourceContext {
                source_id: self.source_id,
                seq,
                ts,
            };
            let meta = self.provenance.source_meta(&ctx, &data);
            next.tuple(Arc::new(GTuple::new(ts, now_nanos(), data, meta)))?;
            seq += 1;
            replay_offset.set(seq);
            run += 1;
            if run == self.batch.size {
                next.batch_end()?;
                run = 0;
            }
            if self.config.watermark_every > 0 && seq.is_multiple_of(self.config.watermark_every) {
                next.watermark(ts)?;
                run = 0;
            }
            if let Some((seat, _)) = &checkpoint {
                if seq.is_multiple_of(seat.config.interval) {
                    // The epoch's replay offset is committed *before* the barrier is
                    // emitted, so a barrier seen downstream always has its source
                    // offset on record.
                    let epoch = seq / seat.config.interval;
                    seat.commit(epoch, Snapshot::u64(seq));
                    barrier_epoch.set(epoch);
                    next.barrier(epoch)?;
                    run = 0;
                }
            }
        }
        next.watermark(Timestamp::MAX)?;
        next.end();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{stream_channel, OutputSlot, StreamReceiver};
    use crate::fusion::{PendingChain, SealableChain};
    use crate::operator::tests::run_bare;
    use crate::operator::OperatorStats;
    use crate::provenance::NoProvenance;
    use crate::tuple::Element;

    #[test]
    fn vec_source_yields_in_order() {
        let mut src = VecSource::with_period(vec![10i64, 20, 30], 1_000);
        assert_eq!(src.remaining(), 3);
        assert_eq!(src.next_tuple(), Some((Timestamp::from_millis(0), 10)));
        assert_eq!(src.next_tuple(), Some((Timestamp::from_millis(1_000), 20)));
        assert_eq!(src.remaining(), 1);
        assert!(src.next_tuple().is_some());
        assert!(src.next_tuple().is_none());
    }

    #[test]
    #[should_panic(expected = "timestamp-ordered")]
    fn vec_source_rejects_unsorted_items() {
        let _ = VecSource::new(vec![
            (Timestamp::from_secs(2), 1i64),
            (Timestamp::from_secs(1), 2),
        ]);
    }

    /// Runs a source the way a query deploys one with nothing fusable behind it: a
    /// sealed chain of one whose tail writes into a channel.
    fn run_source(
        generator: VecSource<i64>,
        config: SourceConfig,
        stop: bool,
    ) -> (OperatorStats, StreamReceiver<i64, ()>) {
        let slot = OutputSlot::<i64, ()>::new();
        let (tx, rx) = stream_channel(1024);
        slot.connect(tx);
        let op = SourceOp::new(
            "src",
            0,
            generator,
            config,
            BatchConfig::default(),
            NoProvenance,
            Arc::new(AtomicBool::new(stop)),
            Default::default(),
            Reclaimer::new(),
        );
        let chain = (PendingChain::source(op), slot);
        (run_bare(Box::new(chain).seal("src".into())), rx)
    }

    #[test]
    fn source_op_emits_tuples_watermarks_and_end() {
        let (stats, mut rx) = run_source(
            VecSource::with_period(vec![1i64, 2, 3], 500),
            SourceConfig::default(),
            false,
        );
        assert_eq!(stats.tuples_out, 3);

        let mut tuples = 0;
        let mut watermarks = 0;
        loop {
            match rx.recv() {
                Element::Tuple(_) => tuples += 1,
                Element::Watermark(_) => watermarks += 1,
                Element::Barrier(_) => {}
                Element::End => break,
            }
        }
        assert_eq!(tuples, 3);
        // One watermark per tuple plus the final MAX watermark.
        assert_eq!(watermarks, 4);
    }

    #[test]
    fn source_op_respects_stop_flag() {
        let (stats, mut rx) = run_source(
            VecSource::with_period((0..100i64).collect(), 1),
            SourceConfig::default(),
            true,
        );
        assert_eq!(stats.tuples_out, 0);
        // Still closes the stream.
        loop {
            match rx.recv() {
                Element::End => break,
                _ => continue,
            }
        }
    }

    #[test]
    fn rate_limited_source_takes_at_least_expected_time() {
        let start = std::time::Instant::now();
        run_source(
            VecSource::with_period((0..20i64).collect(), 1),
            SourceConfig {
                rate: RateLimit::TuplesPerSecond(1_000),
                watermark_every: 1,
            },
            false,
        );
        // 20 tuples at 1000 t/s should take at least ~19 ms.
        assert!(start.elapsed() >= std::time::Duration::from_millis(15));
    }
}
