//! The wire codec's historical names.
//!
//! Tuples crossing an SPE-instance boundary are serialised by the engine's one
//! value codec, [`genealog_spe::codec`] — the same `Encode`/`Decode` pair and the
//! same bounds-checked reader that write window-state containers and store
//! records. This module only keeps the `Wire*` names this crate's callers import.

pub use genealog_spe::codec::{
    CodecError as WireError, Decode as WireDecode, Encode as WireEncode, Reader as WireReader,
};
