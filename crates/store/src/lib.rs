//! Log-structured durable checkpoint store for the GeneaLog reproduction.
//!
//! Implements [`StateBackend`](genealog_spe::state::StateBackend) over real
//! files so checkpointed operator state — including each operator's slice of
//! the provenance graph, byte-encoded through a
//! [`WindowPersister`](genealog_spe::persist::WindowPersister) — survives a
//! process death. The moving parts:
//!
//! * [`segment`] — append-only segments of length-delimited, CRC-checksummed
//!   snapshot records, scanned with torn-tail tolerance;
//! * [`manifest`] — the atomically-replaced commit point pinning the segment
//!   generation and the latest complete epoch;
//! * [`incremental`] — cross-epoch `GLWS` container diffs (a streaming lock-step
//!   walk of the two containers) with periodic full rebase, reconstructed
//!   byte-identical to full snapshots;
//! * [`backend`] — [`DurableBackend`] tying it together (write → fsync →
//!   manifest flip, the mutex held for bookkeeping and the append only;
//!   compaction on `remove_after`), plus [`ScopedBackend`] for multi-engine
//!   nodes sharing one directory.
//!
//! ```text
//! state-dir/
//! ├── MANIFEST            generation · latest complete epoch · clean-shutdown
//! ├── MANIFEST.tmp        (transient; rename target is the atomic flip)
//! ├── seg-000000-000000.log
//! └── seg-000000-000001.log   ← active, fsynced on every put
//! ```

pub mod backend;
pub mod codec;
pub mod incremental;
pub mod manifest;
pub mod segment;

pub use backend::{DurableBackend, ScopedBackend, StoreOptions};
pub use manifest::Manifest;
pub use segment::{Record, RecordKind};
