//! Single-layer measurements of the traced pass: each times one layer's public
//! functions alone, with no engine running around them, so a line of the ledger
//! can move without the rest moving.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use genealog::{erase, find_provenance, GeneaLog, GlMeta};
use genealog_distributed::{
    FrameSink, FrameSource, NetworkConfig, TcpLink, TupleFrameBuilder, WireDecode, WireFrame,
    WireTag,
};
use genealog_spe::channel::{batch_budget, stream_channel, Batch};
use genealog_spe::operator::source::SourceGenerator;
use genealog_spe::provenance::{ProvenanceSystem, SourceContext};
use genealog_spe::tuple::{Element, GTuple, TupleId};
use genealog_spe::{PlannerConfig, Timestamp};

use crate::inputs::Reading;
use crate::runs::BATCH;
use crate::stats::median;

/// Tuples of a frame in the codec measurements (one full transport batch).
const FRAME_TUPLES: usize = BATCH;

/// Nanoseconds per call of `next_tuple` over at most `limit` tuples.
pub fn generator_ns_per_tuple<G: SourceGenerator>(mut generator: G, limit: u64) -> f64 {
    let start = Instant::now();
    let mut produced = 0u64;
    while produced < limit {
        match generator.next_tuple() {
            Some(tuple) => {
                black_box(tuple);
                produced += 1;
            }
            None => break,
        }
    }
    start.elapsed().as_nanos() as f64 / produced.max(1) as f64
}

/// Nanoseconds per tuple to move `tuples` pre-built tuples from one thread to
/// another over a `stream_channel` sized as the planner sizes its edges, in
/// batches of `batch`.
pub fn channel_hop_ns_per_tuple(tuples: usize, batch: usize) -> f64 {
    let capacity = batch_budget(PlannerConfig::default().channel_capacity, batch);
    let (tx, mut rx) = stream_channel::<Reading, ()>(capacity);
    let payload: Vec<Arc<GTuple<Reading, ()>>> = (0..batch)
        .map(|i| {
            Arc::new(GTuple::new(
                Timestamp::from_millis(i as u64),
                0,
                (i as u32, 1),
                (),
            ))
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut sent = 0;
            while sent < tuples {
                let mut run = Batch::with_capacity(batch);
                run.extend(payload.iter().cloned().map(Element::Tuple));
                sent += batch;
                if tx.send_batch(run).is_err() {
                    return;
                }
            }
            let _ = tx.send(Element::End);
        });
        let mut received = 0usize;
        loop {
            let mut ended = false;
            for element in rx.recv_batch() {
                match element {
                    Element::Tuple(tuple) => {
                        black_box(&tuple);
                        received += 1;
                    }
                    Element::End => ended = true,
                    _ => {}
                }
            }
            if ended {
                break;
            }
        }
        black_box(received);
    });
    start.elapsed().as_nanos() as f64 / tuples as f64
}

/// `(encode, decode)` nanoseconds per tuple through `TupleFrameBuilder` and
/// `WireFrame::from_bytes`, over `frames` frames of one batch each.
pub fn codec_ns_per_tuple(frames: usize) -> (f64, f64) {
    let tag = WireTag {
        id: TupleId::new(1, 42),
        was_source: true,
    };
    let mut builder = TupleFrameBuilder::new();
    let mut encoded = Vec::with_capacity(frames);
    let start = Instant::now();
    for frame in 0..frames {
        for i in 0..FRAME_TUPLES {
            let seq = (frame * FRAME_TUPLES + i) as u64;
            builder.push(
                Timestamp::from_millis(seq),
                seq,
                tag,
                &(i as u32, seq as i64),
            );
        }
        encoded.push(builder.take().expect("a full frame"));
    }
    let encode_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    for frame in &encoded {
        let decoded = WireFrame::<Reading>::from_bytes(frame).expect("frames built above decode");
        black_box(decoded);
    }
    let decode_ns = start.elapsed().as_nanos() as f64;
    let tuples = (frames * FRAME_TUPLES) as f64;
    (encode_ns / tuples, decode_ns / tuples)
}

/// Median round trip, in microseconds, of one small frame over two loopback
/// `TcpLink`s (there and back), over `rounds` ping-pongs.
///
/// # Errors
/// Returns the socket error when a loopback link cannot be established.
pub fn tcp_rtt_us(rounds: usize) -> Result<f64, String> {
    let config = NetworkConfig::unlimited();
    let (ping_tx, ping_rx, _) = TcpLink::pair(config).map_err(|e| e.to_string())?;
    let (pong_tx, pong_rx, _) = TcpLink::pair(config).map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(rounds);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Some(frame) = ping_rx.recv_frame() {
                if !pong_tx.send_frame(frame) {
                    break;
                }
            }
        });
        for _ in 0..rounds {
            let start = Instant::now();
            if !ping_tx.send_frame(vec![0u8; 64]) || pong_rx.recv_frame().is_none() {
                break;
            }
            samples.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        // Dropping the sender says goodbye; the echo thread then ends.
        drop(ping_tx);
    });
    if samples.len() < rounds {
        return Err(format!("ping-pong stopped after {} rounds", samples.len()));
    }
    Ok(median(&samples))
}

/// Nanoseconds per source tuple of `find_provenance` on the graph of one
/// aggregate output over `sources` source tuples (Q1's alerts have 4, Q3's 192).
pub fn traversal_ns_per_source(sources: usize, repeats: usize) -> f64 {
    let gl = GeneaLog::new();
    let window: Vec<Arc<GTuple<Reading, GlMeta>>> = (0..sources as u64)
        .map(|seq| {
            let data = (seq as u32, seq as i64);
            let ts = Timestamp::from_millis(seq);
            let ctx = SourceContext {
                source_id: 0,
                seq,
                ts,
            };
            Arc::new(GTuple::new(ts, 0, data, gl.source_meta(&ctx, &data)))
        })
        .collect();
    let root = Arc::new(GTuple::new(
        Timestamp::MIN,
        0,
        (0u32, 0i64),
        gl.aggregate_meta(&window),
    ));
    let root = erase(&root);
    let start = Instant::now();
    for _ in 0..repeats {
        let origins = find_provenance(black_box(&root));
        assert_eq!(origins.len(), sources, "the graph has one leaf per source");
        black_box(origins);
    }
    start.elapsed().as_nanos() as f64 / (repeats * sources) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{zipf_stream, SliceSource};

    #[test]
    fn every_layer_measurement_yields_a_positive_time() {
        assert!(generator_ns_per_tuple(SliceSource::new(zipf_stream(1, 1_000)), 5_000) > 0.0);
        assert!(channel_hop_ns_per_tuple(4 * BATCH, BATCH) > 0.0);
        assert!(channel_hop_ns_per_tuple(64, 1) > 0.0);
        let (encode, decode) = codec_ns_per_tuple(4);
        assert!(encode > 0.0 && decode > 0.0);
        assert!(tcp_rtt_us(5).unwrap() > 0.0);
        assert!(traversal_ns_per_source(4, 10) > 0.0);
        assert!(traversal_ns_per_source(192, 2) > 0.0);
    }
}
