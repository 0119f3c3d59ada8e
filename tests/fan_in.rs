//! One property harness for every fan-in (`genealog_spe::merge` holds the protocol):
//! generated schedules of timestamp-sorted inputs that advance event time at
//! independent rates, interleave watermarks and epoch barriers at per-input positions
//! and cut their batches anywhere, delivered by racing threads over short channels.
//!
//! Through [`DeterministicMerge`] the output must be exactly the stable
//! `(timestamp, input)` sort of each epoch's tuples with one barrier after each epoch;
//! through a checkpointed [`join`] the output must be the nested-loop join of the
//! two inputs. Through both, no watermark may pass a tuple emitted after it — which is
//! what a fan-in holding an input at a barrier gets wrong when it forgets that the
//! input still has older tuples to deliver after the cut.

use std::sync::Arc;
use std::thread;

use proptest::prelude::*;

use genealog_spe::channel::{stream_channel, Batch, OutputSlot, StreamReceiver, StreamSender};
use genealog_spe::merge::{DeterministicMerge, MergedElement};
use genealog_spe::metrics::OpCounters;
use genealog_spe::operator::join;
use genealog_spe::provenance::NoProvenance;
use genealog_spe::state::{CheckpointConfig, CheckpointHandle, CheckpointStore};
use genealog_spe::tuple::{Element, GTuple};
use genealog_spe::{Duration, Timestamp};

/// `(input, sequence number within the input)`: unique per generated tuple. A joined
/// pair is `(left sequence number, right sequence number)`.
type Payload = (usize, usize);
/// What a fan-in emitted: `(ts_ms, payload)`, a watermark or a barrier.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Tuple(u64, Payload),
    Watermark(u64),
    Barrier(u64),
}

/// One generated input: its tuples `(ts_ms, epoch segment)` in order, and the batches
/// that deliver them together with watermarks, barriers and the final `End`.
struct Input {
    tuples: Vec<(u64, u64)>,
    batches: Vec<Batch<Payload, ()>>,
}

/// Raw material of one input: the most event time one tuple may advance, per tuple an
/// advance and two coin flips (watermark after it, batch boundary after it), and
/// where in the tuple sequence each epoch's barrier goes.
type RawInput = (u64, Vec<(u64, u8)>, Vec<usize>);

fn raw_input() -> impl Strategy<Value = RawInput> {
    (
        1u64..3_000,
        proptest::collection::vec((any::<u64>(), 0u8..4), 0..40),
        proptest::collection::vec(0usize..41, 3..4),
    )
}

/// Builds input `index` of a schedule with `epochs` barriers. A barrier always closes
/// its batch, as every producer in the engine guarantees.
fn build_input(index: usize, (max_advance, raw, cuts): RawInput, epochs: usize) -> Input {
    let mut cuts: Vec<usize> = cuts[..epochs].iter().map(|c| c % (raw.len() + 1)).collect();
    cuts.sort_unstable();
    let mut input = Input {
        tuples: Vec::new(),
        batches: vec![Batch::new()],
    };
    let mut ts = 0;
    let mut epoch = 0;
    let barriers_up_to = |input: &mut Input, position: usize, epoch: &mut u64| {
        while cuts
            .get(*epoch as usize)
            .is_some_and(|&cut| cut <= position)
        {
            *epoch += 1;
            let batch = input.batches.last_mut().expect("never empty");
            batch.push(Element::Barrier(*epoch));
            input.batches.push(Batch::new());
        }
    };
    for (seq, (advance, coins)) in raw.iter().enumerate() {
        barriers_up_to(&mut input, seq, &mut epoch);
        ts += advance % max_advance;
        input.tuples.push((ts, epoch));
        let tuple = GTuple::new(Timestamp::from_millis(ts), 0, (index, seq), ());
        let batch = input.batches.last_mut().expect("never empty");
        batch.push(Element::Tuple(Arc::new(tuple)));
        if coins & 1 != 0 {
            batch.push(Element::Watermark(Timestamp::from_millis(ts)));
        }
        if coins & 2 != 0 {
            input.batches.push(Batch::new());
        }
    }
    barriers_up_to(&mut input, raw.len(), &mut epoch);
    input
        .batches
        .last_mut()
        .expect("never empty")
        .push(Element::End);
    input
}

/// Delivers every input from a thread of its own over a 2-batch channel while
/// `consume` runs on the calling thread, so arrival order is the scheduler's.
fn deliver<R>(
    inputs: &mut [Input],
    consume: impl FnOnce(Vec<StreamReceiver<Payload, ()>>) -> R,
) -> R {
    thread::scope(|scope| {
        let mut receivers = Vec::new();
        for input in inputs.iter_mut() {
            let (tx, rx): (StreamSender<Payload, ()>, _) = stream_channel(2);
            receivers.push(rx);
            let batches = std::mem::take(&mut input.batches);
            scope.spawn(move || {
                for batch in batches.into_iter().filter(|b| !b.is_empty()) {
                    if tx.send_batch(batch).is_err() {
                        return;
                    }
                }
            });
        }
        consume(receivers)
    })
}

/// No watermark passes a tuple emitted after it, and watermarks only rise.
fn watermark_violation(seen: &[Seen]) -> Option<String> {
    let mut watermark = None;
    for (position, element) in seen.iter().enumerate() {
        match element {
            Seen::Tuple(ts, _) if watermark.is_some_and(|w| *ts < w) => {
                return Some(format!(
                    "{element:?} at {position} is below watermark {watermark:?}"
                ));
            }
            Seen::Watermark(w) if watermark.is_some_and(|last| *w <= last) => {
                return Some(format!(
                    "watermark {w} at {position} does not pass {watermark:?}"
                ));
            }
            Seen::Watermark(w) => watermark = Some(*w),
            _ => {}
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exactly-once, release order `(timestamp, input, arrival)` within an epoch, one
    /// barrier per epoch after every pre-barrier tuple of every input, sound
    /// watermarks — for two and for three inputs.
    #[test]
    fn merge_emits_each_epoch_sorted_then_its_barrier(
        raw in proptest::collection::vec(raw_input(), 2..4),
        epochs in 0usize..4,
    ) {
        let mut inputs: Vec<Input> = raw
            .into_iter()
            .enumerate()
            .map(|(index, raw)| build_input(index, raw, epochs))
            .collect();
        let mut expected = Vec::new();
        for epoch in 0..=epochs as u64 {
            let mut segment = Vec::new();
            for (index, input) in inputs.iter().enumerate() {
                let in_epoch = input.tuples.iter().enumerate().filter(|(_, t)| t.1 == epoch);
                segment.extend(in_epoch.map(|(seq, &(ts, _))| (ts, (index, seq))));
            }
            segment.sort();
            expected.extend(segment.into_iter().map(|(ts, payload)| Seen::Tuple(ts, payload)));
            if epoch < epochs as u64 {
                expected.push(Seen::Barrier(epoch + 1));
            }
        }

        let seen = deliver(&mut inputs, |receivers| {
            let mut merge = DeterministicMerge::new(receivers);
            let mut seen = Vec::new();
            loop {
                seen.push(match merge.next() {
                    MergedElement::Tuple(t, input) => {
                        assert_eq!(t.data.0, input);
                        Seen::Tuple(t.ts.as_millis(), t.data)
                    }
                    MergedElement::Watermark(ts) => Seen::Watermark(ts.as_millis()),
                    MergedElement::Barrier(epoch) => Seen::Barrier(epoch),
                    MergedElement::End => return seen,
                });
            }
        });
        prop_assert_eq!(watermark_violation(&seen), None);
        let without_watermarks: Vec<_> = seen
            .into_iter()
            .filter(|element| !matches!(element, Seen::Watermark(_)))
            .collect();
        prop_assert_eq!(without_watermarks, expected);
    }

    /// The same schedules through a checkpointed Join: the pairs are the nested-loop
    /// join's whatever the skew between the sides and wherever the cuts fall (a side
    /// held at a barrier must not let the other purge its partners), one barrier per
    /// epoch goes downstream, and the output watermarks are sound.
    #[test]
    fn checkpointed_join_equals_the_nested_loop_join(
        left in raw_input(),
        right in raw_input(),
        epochs in 0usize..4,
        window_ms in 1u64..4_000,
    ) {
        let mut inputs = [build_input(0, left, epochs), build_input(1, right, epochs)];
        let key = |payload: &Payload| payload.1 % 3;
        let mut expected = Vec::new();
        for (l, &(l_ts, _)) in inputs[0].tuples.iter().enumerate() {
            for (r, &(r_ts, _)) in inputs[1].tuples.iter().enumerate() {
                if l % 3 == r % 3 && l_ts.abs_diff(r_ts) <= window_ms {
                    expected.push((l_ts.max(r_ts), (l, r)));
                }
            }
        }
        expected.sort_unstable();

        let checkpoints = CheckpointHandle::default();
        let config = CheckpointConfig::new(1, CheckpointStore::in_memory());
        checkpoints.set(config).expect("fresh handle");
        let seen = deliver(&mut inputs, |mut receivers| {
            let output = OutputSlot::<Payload, ()>::new();
            let (out_tx, mut out_rx) = stream_channel(64);
            output.connect(out_tx);
            let right = receivers.pop().expect("two inputs");
            let left = receivers.pop().expect("two inputs");
            let join = join::chain(
                "join",
                left,
                right,
                Duration::from_millis(window_ms),
                key,
                key,
                |_: &Payload, _: &Payload| true,
                |l: &Payload, r: &Payload| (l.1, r.1),
                NoProvenance,
                checkpoints,
            )
            .into_channel("join", output);
            thread::scope(|scope| {
                scope.spawn(|| {
                    join.run(OpCounters::detached("join"))
                        .expect("join runs to the end")
                });
                let mut seen = Vec::new();
                loop {
                    seen.push(match out_rx.recv() {
                        Element::Tuple(t) => Seen::Tuple(t.ts.as_millis(), t.data),
                        // The Join closes its output with a watermark at the end of time.
                        Element::Watermark(Timestamp::MAX) => continue,
                        Element::Watermark(ts) => Seen::Watermark(ts.as_millis()),
                        Element::Barrier(epoch) => Seen::Barrier(epoch),
                        Element::End => return seen,
                    });
                }
            })
        });
        prop_assert_eq!(watermark_violation(&seen), None);
        let barriers: Vec<u64> = seen
            .iter()
            .filter_map(|element| match element {
                Seen::Barrier(epoch) => Some(*epoch),
                _ => None,
            })
            .collect();
        prop_assert_eq!(barriers, (1..=epochs as u64).collect::<Vec<_>>());
        let mut pairs: Vec<(u64, Payload)> = seen
            .into_iter()
            .filter_map(|element| match element {
                Seen::Tuple(ts, pair) => Some((ts, pair)),
                _ => None,
            })
            .collect();
        pairs.sort_unstable();
        prop_assert_eq!(pairs, expected);
    }
}
