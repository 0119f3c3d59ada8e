//! Byte persistence of provenance-instrumented window state.
//!
//! A GeneaLog aggregate buffers `GTuple<T, GlMeta>` occurrences whose `U1`/`U2`
//! meta-attributes point into the provenance graph. [`GlWindowPersister`]
//! encodes such a buffer into the canonical `GLWS` container of
//! [`genealog_spe::persist`] so a durable checkpoint store can carry it —
//! provenance included — across a process death.
//!
//! An occurrence is only byte-encodable when its upstream pointers stop at
//! **terminal** nodes (`SOURCE`/`REMOTE` tuples, §4/§6 of the paper) of the
//! expected source schema `U`: the terminal's kind, id, timestamps and payload
//! reproduce the pointer exactly in the restored process. A pointer into a
//! *non-terminal* tuple would need that tuple's own upstreams transitively, so
//! [`WindowPersister::encode`] returns `None` and the operator falls back to
//! the process-local inline snapshot (the analyzer's GL014 diagnostic flags
//! deployments where that fallback would make recovery lossy).
//!
//! The container walk itself — entry loop, occurrence framing, `ts | stimulus |
//! payload` — is [`genealog_spe::persist`]'s, shared with the provenance-free
//! persister; this module supplies only the hook that writes an occurrence's
//! kind, id and terminal `U1`/`U2` behind its payload, every field through the one
//! value codec ([`genealog_spe::codec`]). So any payload that can be shipped over a
//! link (`Encode + Decode`) can be buffered durably under GL.
//!
//! The `N` chain pointer is deliberately **not** encoded: it is the only
//! meta-attribute written after tuple creation (when a window closes), and a
//! buffered occurrence belongs to a window that had not closed at the
//! checkpoint cut — [`GlMeta::detach`] resets it on restore anyway. Excluding
//! `N` also keeps an occurrence's bytes immutable across epochs, which is what
//! the incremental snapshot diff's prefix property relies on.
//!
//! ```text
//! occurrence: ts_ms u64 | stimulus u64 | data T | kind u8 | origin u32 | seq u64
//!             | u1 tag u8 (0 = none, 1 = terminal) [terminal]
//!             | u2 tag u8 (0 = none, 1 = terminal) [terminal]
//! terminal:   kind u8 | origin u32 | seq u64 | ts_ms u64 | stimulus u64 | data U
//! ```

use std::marker::PhantomData;
use std::sync::Arc;

use genealog_spe::codec::{CodecError, Decode, Encode, Reader};
use genealog_spe::persist::{decode_snapshot, encode_snapshot, WindowPersister};
use genealog_spe::time::Timestamp;
use genealog_spe::tuple::{GTuple, TupleData, TupleId};
use genealog_spe::window::WindowStoreSnapshot;

use crate::meta::{erase, GlMeta, OpKind, ProvRef};

/// Persister for GeneaLog-instrumented window state: occurrences of payload
/// `T` whose `U1`/`U2` pointers terminate in `SOURCE`/`REMOTE` tuples of
/// payload `U`.
pub struct GlWindowPersister<K, T, U> {
    #[allow(clippy::type_complexity)]
    _marker: PhantomData<fn() -> (K, T, U)>,
}

impl<K, T, U> GlWindowPersister<K, T, U> {
    /// Creates the persister (stateless; all knowledge is in the types).
    pub fn new() -> Self {
        GlWindowPersister {
            _marker: PhantomData,
        }
    }
}

impl<K, T, U> Default for GlWindowPersister<K, T, U> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, T, U> std::fmt::Debug for GlWindowPersister<K, T, U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GlWindowPersister")
    }
}

fn encode_upstream<U: Encode + TupleData>(
    upstream: Option<&ProvRef>,
    out: &mut Vec<u8>,
) -> Option<()> {
    let Some(node) = upstream else {
        false.encode(out);
        return Some(());
    };
    if !node.kind().is_terminal() {
        return None; // needs the transitive graph; not byte-encodable
    }
    let payload = node.payload::<U>()?;
    true.encode(out);
    node.kind().encode(out);
    node.id().encode(out);
    node.ts().encode(out);
    node.stimulus().encode(out);
    payload.encode(out);
    Some(())
}

fn decode_upstream<U: Decode + TupleData>(
    r: &mut Reader<'_>,
) -> Result<Option<ProvRef>, CodecError> {
    if !bool::decode(r)? {
        return Ok(None);
    }
    let kind = OpKind::decode(r)?;
    if !kind.is_terminal() {
        return Err(CodecError::Invalid(
            "upstream pointer into a non-terminal tuple",
        ));
    }
    let id = TupleId::decode(r)?;
    let tuple = Arc::new(GTuple::new(
        Timestamp::decode(r)?,
        u64::decode(r)?,
        U::decode(r)?,
        GlMeta::leaf(kind, id),
    ));
    Ok(Some(erase(&tuple)))
}

impl<K, T, U> WindowPersister<K, T, GlMeta> for GlWindowPersister<K, T, U>
where
    K: Encode + Decode + Ord,
    T: Encode + Decode,
    U: Encode + Decode + TupleData,
{
    fn encode(&self, snapshot: &WindowStoreSnapshot<K, T, GlMeta>) -> Option<Vec<u8>> {
        encode_snapshot(snapshot, |meta: &GlMeta, out| {
            meta.kind.encode(out);
            meta.id.encode(out);
            encode_upstream::<U>(meta.u1.as_ref(), out)?;
            encode_upstream::<U>(meta.u2.as_ref(), out)
        })
    }

    fn decode(&self, bytes: &[u8]) -> Option<WindowStoreSnapshot<K, T, GlMeta>> {
        decode_snapshot(bytes, |r| {
            let kind = OpKind::decode(r)?;
            let id = TupleId::decode(r)?;
            match (decode_upstream::<U>(r)?, decode_upstream::<U>(r)?) {
                (None, None) => Ok(GlMeta::leaf(kind, id)),
                (Some(u1), None) => Ok(GlMeta::unary(kind, id, u1)),
                (Some(u1), Some(u2)) => Ok(GlMeta::binary(kind, id, u1, u2)),
                // `U2` without `U1` never occurs (§4.1 sets them in order).
                (None, Some(_)) => Err(CodecError::Invalid("U2 set without U1")),
            }
        })
        .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genealog_spe::persist::is_container;
    use genealog_spe::time::Duration;
    use genealog_spe::window::{WindowSpec, WindowStore};

    type Reading = (u32, i64);
    type Persister = GlWindowPersister<u32, Reading, Reading>;

    fn source_tuple(i: u64) -> Arc<GTuple<Reading, GlMeta>> {
        Arc::new(GTuple::new(
            Timestamp::from_secs(i),
            i * 1000,
            ((i % 3) as u32, i as i64),
            GlMeta::leaf(OpKind::Source, TupleId::new(7, i)),
        ))
    }

    /// A window store of Map-kind occurrences, each pointing `U1` at a
    /// distinct terminal source tuple — the shape a distributed shard holds.
    fn sample_store() -> WindowStore<u32, Reading, GlMeta> {
        let spec = WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap();
        let mut store = WindowStore::new(spec);
        for i in 0..20u64 {
            let src = source_tuple(i);
            let t = Arc::new(GTuple::new(
                src.ts,
                src.stimulus,
                (src.data.0, src.data.1 * 10),
                GlMeta::unary(OpKind::Map, TupleId::new(9, i), erase(&src)),
            ));
            store.insert(t.data.0, t);
        }
        store.close_up_to(Timestamp::from_secs(9));
        store
    }

    #[test]
    fn roundtrips_provenance_pointers_byte_identically() {
        let snapshot = sample_store().snapshot();
        let p = Persister::new();
        let bytes = p.encode(&snapshot).unwrap();
        assert!(is_container(&bytes));
        let decoded = p.decode(&bytes).unwrap();
        assert_eq!(decoded.buffered_tuples(), snapshot.buffered_tuples());
        assert_eq!(decoded.watermark(), snapshot.watermark());
        // Re-encoding the decoded snapshot reproduces the exact bytes — what
        // lets incremental diffs treat restored and live state alike.
        assert_eq!(p.encode(&decoded).unwrap(), bytes);
        // The restored occurrences carry their kind, id and terminal lineage.
        for ((start, key, a), (bstart, bkey, b)) in snapshot.entries().zip(decoded.entries()) {
            assert_eq!((start, key), (bstart, bkey));
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.meta.kind, y.meta.kind);
                assert_eq!(x.meta.id, y.meta.id);
                let (xu, yu) = (x.meta.u1.as_ref().unwrap(), y.meta.u1.as_ref().unwrap());
                assert_eq!(xu.id(), yu.id());
                assert_eq!(xu.kind(), yu.kind());
                assert_eq!(xu.ts(), yu.ts());
                assert_eq!(xu.stimulus(), yu.stimulus());
                assert_eq!(xu.payload::<Reading>(), yu.payload::<Reading>());
            }
        }
    }

    #[test]
    fn remote_terminals_are_encodable() {
        let spec = WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap();
        let mut store: WindowStore<u32, Reading, GlMeta> = WindowStore::new(spec);
        let remote = Arc::new(GTuple::new(
            Timestamp::from_secs(1),
            5,
            (1u32, 10i64),
            GlMeta::leaf(OpKind::Remote, TupleId::new(3, 0)),
        ));
        store.insert(1, Arc::clone(&remote));
        let p = Persister::new();
        let bytes = p.encode(&store.snapshot()).unwrap();
        let decoded = p.decode(&bytes).unwrap();
        let (_, _, occs) = decoded.entries().next().unwrap();
        assert_eq!(occs[0].meta.kind, OpKind::Remote);
        assert_eq!(occs[0].meta.id, TupleId::new(3, 0));
    }

    #[test]
    fn non_terminal_upstream_refuses_to_encode() {
        let spec = WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap();
        let mut store: WindowStore<u32, Reading, GlMeta> = WindowStore::new(spec);
        let src = source_tuple(0);
        let mapped = Arc::new(GTuple::new(
            src.ts,
            src.stimulus,
            src.data,
            GlMeta::unary(OpKind::Map, TupleId::new(8, 0), erase(&src)),
        ));
        // A second Map stage: its upstream is itself non-terminal.
        let twice = Arc::new(GTuple::new(
            mapped.ts,
            mapped.stimulus,
            mapped.data,
            GlMeta::unary(OpKind::Map, TupleId::new(9, 0), erase(&mapped)),
        ));
        store.insert(0, twice);
        let p = Persister::new();
        assert!(
            p.encode(&store.snapshot()).is_none(),
            "a pointer into a non-terminal tuple must force the inline fallback"
        );
    }

    #[test]
    fn torn_occurrence_bytes_are_rejected() {
        let snapshot = sample_store().snapshot();
        let p = Persister::new();
        let bytes = p.encode(&snapshot).unwrap();
        for cut in 0..bytes.len() {
            assert!(p.decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
    }
}
