//! End-to-end behaviour of the durable backend over a real directory: survive
//! reopen (the cross-process shape), pin complete epochs in the manifest,
//! compact on `remove_after`, reconstruct incremental chains — and, the PR's
//! crash-safety satellite, a proptest that truncates the segment log at a
//! *random byte offset* and asserts recovery keeps every record before the
//! torn one and cleanly rejects the torn one (no panic, no zero-fill).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use genealog_spe::persist::ContainerWriter;
use genealog_spe::state::{CheckpointStore, Snapshot, StateBackend};
use genealog_store::segment::{encode_record, Record, RecordKind};
use genealog_store::{DurableBackend, ScopedBackend, StoreOptions};

static DIRS: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "store-{tag}-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn snapshots_survive_reopen() {
    let dir = temp_dir("reopen");
    {
        let backend = DurableBackend::open(&dir).unwrap();
        backend.put("src", 0, Snapshot::u64(10));
        backend.put("agg", 0, Snapshot::bytes(vec![1, 2, 3]));
        backend.put("src", 1, Snapshot::u64(20));
        backend.note_complete_epoch(0);
        assert!(backend.is_durable());
        assert_eq!(backend.snapshot_count(), 3);
    }
    // A second open models the restarted process.
    let backend = DurableBackend::open(&dir).unwrap();
    assert_eq!(backend.get("src", 0).unwrap().as_u64(), Some(10));
    assert_eq!(
        backend.get("agg", 0).unwrap().as_bytes(),
        Some(&[1u8, 2, 3][..])
    );
    assert_eq!(backend.get("src", 1).unwrap().as_u64(), Some(20));
    assert_eq!(backend.latest_complete_epoch(), Some(0));
    assert!(!backend.torn_tail_recovered());
    assert!(!backend.previous_clean_shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inline_snapshots_stay_volatile() {
    let dir = temp_dir("inline");
    {
        let backend = DurableBackend::open(&dir).unwrap();
        backend.put("agg", 0, Snapshot::inline(vec![7i64]));
        assert!(backend.get("agg", 0).is_some());
    }
    let backend = DurableBackend::open(&dir).unwrap();
    assert!(
        backend.get("agg", 0).is_none(),
        "inline snapshots are process-local by contract"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_marks_a_clean_shutdown() {
    let dir = temp_dir("flush");
    {
        let backend = DurableBackend::open(&dir).unwrap();
        backend.put("src", 0, Snapshot::u64(1));
        backend.flush().unwrap();
    }
    let backend = DurableBackend::open(&dir).unwrap();
    assert!(backend.previous_clean_shutdown());
    // The reopened store is dirty again until its own flush.
    drop(backend);
    let backend = DurableBackend::open(&dir).unwrap();
    assert!(!backend.previous_clean_shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cut only ever moves below a pinned epoch on a worker, whose engine
/// completes epochs locally through a [`ScopedBackend`] (which pins without
/// retiring) and then adopts an older cut from the origin.
#[test]
fn remove_after_compacts_and_clamps_the_cut() {
    let dir = temp_dir("compact");
    let shared = DurableBackend::open(&dir).unwrap();
    let backend = ScopedBackend::new(Arc::clone(&shared), "shard0");
    for epoch in 0..6u64 {
        backend.put("src", epoch, Snapshot::u64(epoch * 10));
        backend.put("agg", epoch, Snapshot::bytes(vec![epoch as u8; 64]));
        backend.note_complete_epoch(epoch);
    }
    assert_eq!(shared.latest_complete_epoch(), Some(5));
    backend.remove_after(2);
    assert_eq!(shared.compactions(), 1);
    assert_eq!(backend.snapshot_count(), 6);
    assert_eq!(shared.latest_complete_epoch(), Some(2));
    assert!(backend.get("src", 3).is_none());
    assert_eq!(backend.get("src", 2).unwrap().as_u64(), Some(20));
    drop((backend, shared));
    // The compacted generation is what a restarted process sees.
    let shared = DurableBackend::open(&dir).unwrap();
    let backend = ScopedBackend::new(Arc::clone(&shared), "shard0");
    assert_eq!(backend.snapshot_count(), 6);
    assert_eq!(
        backend.get("agg", 1).unwrap().as_bytes(),
        Some(&[1u8; 64][..])
    );
    assert_eq!(shared.latest_complete_epoch(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A completed epoch retires every older snapshot from memory; the disk keeps
/// every record, so a reopened directory still reads them back. Two cuts that
/// complete back to back may be announced in either order.
#[test]
fn a_complete_epoch_retires_older_snapshots_from_memory_only() {
    let dir = temp_dir("retire");
    {
        let backend = DurableBackend::open(&dir).unwrap();
        for epoch in 0..6u64 {
            backend.put("src", epoch, Snapshot::u64(epoch * 10));
            backend.put("agg", epoch, Snapshot::inline(epoch));
        }
        backend.note_complete_epoch(4);
        backend.note_complete_epoch(3);
        assert_eq!(backend.latest_complete_epoch(), Some(4));
        assert!(backend.get("src", 3).is_none());
        assert!(backend.get("agg", 3).is_none());
        assert_eq!(backend.get("src", 4).unwrap().as_u64(), Some(40));
        assert!(backend.get("agg", 5).is_some());
        assert_eq!(backend.snapshot_count(), 4);
    }
    let backend = DurableBackend::open(&dir).unwrap();
    assert_eq!(backend.latest_complete_epoch(), Some(4));
    assert_eq!(backend.get("src", 0).unwrap().as_u64(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker's engine completes epochs 1–5 on its own, then the origin pins the
/// deployment-global cut at 2: the scoped store must still serve epoch 2.
#[test]
fn a_scoped_engine_restores_an_origin_cut_below_its_own_completions() {
    let dir = temp_dir("scoped-restore");
    let shared = DurableBackend::open(&dir).unwrap();
    let store = CheckpointStore::new(ScopedBackend::new(Arc::clone(&shared), "shard1"));
    store.register("sum");
    store.register("send");
    for epoch in 1..=5u64 {
        store.commit("sum", epoch, Snapshot::u64(epoch * 100));
        store.commit("send", epoch, Snapshot::u64(epoch));
    }
    assert_eq!(store.latest_complete_epoch(), Some(5));
    assert_eq!(shared.latest_complete_epoch(), Some(5));

    store.restore_to(2);
    assert_eq!(store.restore_snapshot("sum").unwrap().as_u64(), Some(200));
    assert_eq!(store.restore_snapshot("send").unwrap().as_u64(), Some(2));
    assert_eq!(shared.latest_complete_epoch(), Some(2));
    assert!(store.backend().get("sum", 3).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segments_roll_at_the_size_threshold() {
    let dir = temp_dir("roll");
    let backend = DurableBackend::open_with(
        &dir,
        StoreOptions {
            segment_bytes: 256,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    for epoch in 0..20u64 {
        backend.put("agg", epoch, Snapshot::bytes(vec![epoch as u8; 100]));
    }
    assert!(backend.segment_count() > 2, "appends must roll segments");
    drop(backend);
    let backend = DurableBackend::open(&dir).unwrap();
    for epoch in 0..20u64 {
        assert_eq!(
            backend.get("agg", epoch).unwrap().as_bytes(),
            Some(&vec![epoch as u8; 100][..])
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The window container participant `p` commits at `epoch`: every buffer grows
/// by one occurrence per epoch and the oldest window start retires every fourth
/// epoch, so incremental mode writes deltas and periodic rebases.
fn growing_container(p: u64, epoch: u64) -> Vec<u8> {
    let mut writer = ContainerWriter::new(epoch * 1_000, 0);
    for start in (epoch / 4)..=(epoch / 4 + 2) {
        for key in 0..3u32 {
            let occs: Vec<Vec<u8>> = (0..=epoch)
                .map(|i| vec![(p + start + i) as u8; 8 + key as usize])
                .collect();
            writer.entry(start * 4_000, &key.to_le_bytes(), &occs);
        }
    }
    writer.finish()
}

/// **Puts of different participants overlap** — their diff, checksum and fsync
/// run outside the store's mutex, segments roll underneath them — and the log
/// they leave behind still replays to exactly what each of them committed.
#[test]
fn concurrent_puts_replay_to_what_each_participant_committed() {
    const PARTICIPANTS: u64 = 4;
    const EPOCHS: u64 = 24;
    let dir = temp_dir("concurrent");
    let options = StoreOptions {
        segment_bytes: 4 << 10,
        ..StoreOptions::incremental()
    };
    {
        let backend = DurableBackend::open_with(&dir, options).unwrap();
        let start = std::sync::Barrier::new(PARTICIPANTS as usize);
        std::thread::scope(|scope| {
            for p in 0..PARTICIPANTS {
                let (backend, start) = (&backend, &start);
                scope.spawn(move || {
                    start.wait();
                    for epoch in 0..EPOCHS {
                        let bytes = growing_container(p, epoch);
                        backend.put(&format!("agg[{p}]"), epoch, Snapshot::bytes(bytes));
                    }
                });
            }
        });
        assert_eq!(backend.records_appended(), PARTICIPANTS * EPOCHS);
        assert!(backend.segment_count() > 4, "appends must have rolled");
        let full: u64 = (0..PARTICIPANTS)
            .flat_map(|p| (0..EPOCHS).map(move |e| growing_container(p, e).len() as u64))
            .sum();
        assert!(
            backend.bytes_written() < full,
            "deltas must have been written"
        );
    }
    let backend = DurableBackend::open_with(&dir, options).unwrap();
    assert!(!backend.torn_tail_recovered());
    for p in 0..PARTICIPANTS {
        for epoch in 0..EPOCHS {
            assert_eq!(
                backend.get(&format!("agg[{p}]"), epoch).unwrap().as_bytes(),
                Some(&growing_container(p, epoch)[..]),
                "agg[{p}]@{epoch}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Strategy: a sequence of `(participant, body)` snapshot commits with
/// monotonically increasing epochs.
fn commits() -> impl Strategy<Value = Vec<(String, Vec<u8>)>> {
    proptest::collection::vec(
        (0u8..4, proptest::collection::vec(any::<u8>(), 0..48)),
        1..24,
    )
    .prop_map(|steps| {
        steps
            .into_iter()
            .map(|(p, body)| (format!("op{p}"), body))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// **Crash at a random byte offset.** Commit a random snapshot sequence,
    /// truncate the segment log mid-record, reopen: every epoch whose frame
    /// lies before the cut is intact and byte-identical, the torn record is
    /// rejected (absent, not zero-filled), and nothing panics.
    #[test]
    fn truncated_log_recovers_the_clean_prefix(
        commits in commits(),
        cut_seed in 0u64..10_000,
    ) {
        let dir = temp_dir("torn");
        {
            let backend = DurableBackend::open(&dir).unwrap();
            for (epoch, (participant, body)) in commits.iter().enumerate() {
                backend.put(participant, epoch as u64, Snapshot::bytes(body.clone()));
            }
        }
        // Reconstruct the exact frame layout to know what survives a cut.
        let mut boundaries = vec![0usize];
        let mut log_len = 0usize;
        for (epoch, (participant, body)) in commits.iter().enumerate() {
            log_len += encode_record(&Record {
                participant: participant.clone(),
                epoch: epoch as u64,
                kind: RecordKind::Full,
                body: body.clone(),
            })
            .len();
            boundaries.push(log_len);
        }
        // Every put of a fresh store lands in the first segment file.
        let segment = dir.join("seg-000000-000000.log");
        prop_assert_eq!(std::fs::metadata(&segment).unwrap().len() as usize, log_len);
        let cut = (cut_seed as usize) % (log_len + 1);
        let bytes = std::fs::read(&segment).unwrap();
        std::fs::write(&segment, &bytes[..cut]).unwrap();

        let backend = DurableBackend::open(&dir).unwrap();
        let intact = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        for (epoch, (participant, body)) in commits.iter().enumerate() {
            // Same (participant, epoch) is committed once, so survival is
            // exactly "my frame fits in the clean prefix".
            let got = backend.get(participant, epoch as u64);
            if epoch < intact {
                let got = got.expect("record before the torn frame must survive");
                prop_assert_eq!(got.as_bytes(), Some(&body[..]));
            } else {
                prop_assert!(got.is_none(), "torn record must be rejected, not zero-filled");
            }
        }
        prop_assert_eq!(backend.torn_tail_recovered(), cut != boundaries[intact]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn incremental_chains_survive_reopen_and_truncation_of_the_tail() {
    use genealog_spe::persist::{PlainWindowPersister, WindowPersister};
    use genealog_spe::time::{Duration, Timestamp};
    use genealog_spe::tuple::GTuple;
    use genealog_spe::window::{WindowSpec, WindowStore};
    use std::sync::Arc;

    // Drive a real window store through several epochs of container snapshots.
    let spec = WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap();
    let mut store: WindowStore<u32, (u32, i64), ()> = WindowStore::new(spec);
    let persister = PlainWindowPersister;
    let mut containers = Vec::new();
    let mut i = 0u64;
    for _ in 0..10 {
        for _ in 0..6 {
            let t = Arc::new(GTuple::new(
                Timestamp::from_secs(i),
                i,
                ((i % 3) as u32, i as i64),
                (),
            ));
            store.insert((i % 3) as u32, t);
            i += 1;
        }
        store.close_up_to(Timestamp::from_secs(i.saturating_sub(6)));
        containers.push(
            WindowPersister::<u32, (u32, i64), ()>::encode(&persister, &store.snapshot()).unwrap(),
        );
    }

    let dir = temp_dir("chain");
    {
        let backend = DurableBackend::open_with(&dir, StoreOptions::incremental()).unwrap();
        for (epoch, container) in containers.iter().enumerate() {
            backend.put("agg", epoch as u64, Snapshot::bytes(container.clone()));
        }
        // The log must actually contain deltas: cumulative appended bytes are
        // well below what full containers would cost.
        let full: u64 = containers.iter().map(|c| c.len() as u64 + 64).sum();
        assert!(
            backend.bytes_written() < full,
            "incremental log ({}) must beat full snapshots ({full})",
            backend.bytes_written()
        );
    }
    // Reopen replays the delta chain; every epoch reconstructs byte-identical.
    let backend = DurableBackend::open_with(&dir, StoreOptions::incremental()).unwrap();
    for (epoch, container) in containers.iter().enumerate() {
        assert_eq!(
            backend.get("agg", epoch as u64).unwrap().as_bytes(),
            Some(&container[..]),
            "epoch {epoch}"
        );
    }
    drop(backend);

    // Truncate the tail mid-frame: the clean prefix of the chain survives.
    let segment = dir.join("seg-000000-000000.log");
    let bytes = std::fs::read(&segment).unwrap();
    std::fs::write(&segment, &bytes[..bytes.len() - 7]).unwrap();
    let backend = DurableBackend::open_with(&dir, StoreOptions::incremental()).unwrap();
    assert!(backend.torn_tail_recovered());
    let survived = (0..containers.len())
        .take_while(|&e| backend.get("agg", e as u64).is_some())
        .count();
    assert!(
        survived >= containers.len() - 1,
        "only the torn tail record may be lost"
    );
    for (epoch, container) in containers.iter().enumerate().take(survived) {
        assert_eq!(
            backend.get("agg", epoch as u64).unwrap().as_bytes(),
            Some(&container[..])
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scoped_backends_keep_same_named_participants_distinct() {
    let dir = temp_dir("scoped");
    let shared = DurableBackend::open(&dir).unwrap();
    let shard0 = ScopedBackend::new(Arc::clone(&shared), "shard0");
    let shard1 = ScopedBackend::new(Arc::clone(&shared), "shard1");
    shard0.put("sum", 0, Snapshot::u64(100));
    shard1.put("sum", 0, Snapshot::u64(200));
    assert_eq!(shard0.get("sum", 0).unwrap().as_u64(), Some(100));
    assert_eq!(shard1.get("sum", 0).unwrap().as_u64(), Some(200));
    drop((shard0, shard1));
    drop(shared);
    let shared = DurableBackend::open(&dir).unwrap();
    let shard1 = ScopedBackend::new(shared, "shard1");
    assert_eq!(shard1.get("sum", 0).unwrap().as_u64(), Some(200));
    let _ = std::fs::remove_dir_all(&dir);
}
