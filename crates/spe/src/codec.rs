//! The one value codec: how a value becomes bytes, decided once.
//!
//! Every byte that leaves a process — a wire frame towards another SPE instance,
//! a `GLWS` window-state container, a `GLWD` delta, a segment record of the
//! durable store — is written by an [`Encode`] impl and read back through one
//! bounds-checked [`Reader`] by a [`Decode`] impl. The layout is deliberately
//! dumb: little-endian fixed-width integers, one byte per `bool`/`Option` tag
//! (`0` or `1`), a `u32` count in front of strings and sequences, struct fields
//! in declaration order. Equal values encode to equal bytes.
//!
//! Where impls live (the orphan rule decides): primitives, `String`, `Option`,
//! `Vec`, tuples, [`Timestamp`], [`TupleId`] and the metrics samples a remote
//! instance ships to its origin (`genealog-metrics` sits below this crate) here;
//! `OpKind` and the provenance records in `genealog`; a payload struct next to
//! its definition — one [`impl_codec_struct!`](crate::impl_codec_struct) line
//! makes a type both shippable over a link and durable in a checkpoint.
//!
//! Decoding never trusts its input: every read is bounds-checked, a count prefix
//! is checked against the bytes that remain before anything is reserved for it,
//! unknown tags are rejected, and every failure is a [`CodecError`] — no panic,
//! no zero-fill.

use std::fmt;

use genealog_metrics::{HistogramSnapshot, Sample, SampleValue};

use crate::time::Timestamp;
use crate::tuple::TupleId;

/// Why bytes did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended inside a value.
    Truncated {
        /// Bytes the value still needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A count prefix claims more items than the remaining bytes can hold.
    Length {
        /// The claimed item count.
        len: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A tag byte names no variant of the type being decoded.
    Tag {
        /// The type whose tag was read.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// Bytes were left over where the value had to fill its buffer exactly.
    Trailing(usize),
    /// The bytes parsed, but the value breaks a rule of its type.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodecError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "decode error: needed {needed} bytes, only {remaining} remaining"
                )
            }
            CodecError::Length { len, remaining } => write!(
                f,
                "decode error: sequence length {len} exceeds the {remaining} bytes remaining"
            ),
            CodecError::Tag { what, tag } => write!(f, "decode error: unknown {what} tag {tag}"),
            CodecError::Trailing(n) => write!(f, "decode error: {n} trailing bytes"),
            CodecError::Invalid(why) => write!(f, "decode error: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, tail) = self
            .bytes
            .split_at_checked(n)
            .ok_or(CodecError::Truncated {
                needed: n,
                remaining: self.bytes.len(),
            })?;
        self.bytes = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, tail) = self
            .bytes
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated {
                needed: N,
                remaining: self.bytes.len(),
            })?;
        self.bytes = tail;
        Ok(*head)
    }

    /// Takes one `u32`-length-prefixed byte string (what [`put_bytes`] wrote),
    /// borrowing it from the input.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when the prefix or the bytes it announces are cut.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = u32::decode(self)? as usize;
        self.take(len)
    }

    /// Reads a `u32` item count whose items each occupy at least
    /// `min_item_bytes` encoded bytes. A count the remaining input cannot hold is
    /// corruption: it is rejected on the prefix alone, before any loop or
    /// reservation is sized from it.
    ///
    /// # Errors
    /// [`CodecError::Length`] for an impossible count.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let len = u32::decode(self)? as usize;
        if len.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(CodecError::Length {
                len,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Ends a read that must have consumed its whole buffer: trailing bytes in a
    /// stored record are corruption, not slack.
    ///
    /// # Errors
    /// [`CodecError::Trailing`] when bytes are left.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }
}

/// Appends `bytes` behind a `u32` length prefix (read back by [`Reader::bytes`]).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    (bytes.len() as u32).encode(out);
    out.extend_from_slice(bytes);
}

/// Appends whatever `write` produces behind a `u32` length prefix, in place: the
/// prefix is reserved first and patched once the length is known, so framing a
/// value costs no buffer of its own. Reads back like [`put_bytes`] output.
pub fn put_framed<R>(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    let result = write(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    result
}

/// Upper bound on what a decoder reserves up front from a count prefix.
const MAX_RESERVE: usize = 1_024;

/// Types with a canonical byte encoding.
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Types that can be read back from their [`Encode`] bytes.
pub trait Decode: Sized {
    /// Decodes one value, consuming exactly what [`Encode::encode`] wrote.
    ///
    /// # Errors
    /// Returns [`CodecError`] if the input is truncated or malformed.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Convenience: decodes a value from the front of `bytes`.
    ///
    /// # Errors
    /// Returns [`CodecError`] if the input is truncated or malformed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(&mut Reader::new(bytes))
    }
}

macro_rules! impl_codec_int {
    ($($ty:ty),*) => {
        $(
            impl Encode for $ty {
                #[inline]
                fn encode(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
            }
            impl Decode for $ty {
                #[inline]
                fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
                    Ok(<$ty>::from_le_bytes(reader.array()?))
                }
            }
        )*
    };
}

impl_codec_int!(u8, u16, u32, u64, i64);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(reader)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::Tag { what: "bool", tag }),
        }
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
}

impl Decode for String {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        std::str::from_utf8(reader.bytes()?)
            .map(str::to_owned)
            .map_err(|_| CodecError::Invalid("invalid utf-8"))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(value) = self {
            value.encode(out);
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        bool::decode(reader)?.then(|| T::decode(reader)).transpose()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        // Every non-zero-sized element occupies at least one encoded byte.
        let len = reader.count(usize::from(std::mem::size_of::<T>() != 0))?;
        let mut items = Vec::with_capacity(len.min(MAX_RESERVE));
        for _ in 0..len {
            items.push(T::decode(reader)?);
        }
        Ok(items)
    }
}

impl Encode for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
}

impl Decode for () {
    fn decode(_reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

macro_rules! impl_codec_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {
        $(
            impl<$($name: Encode),+> Encode for ($($name,)+) {
                fn encode(&self, out: &mut Vec<u8>) {
                    $(self.$idx.encode(out);)+
                }
            }
            impl<$($name: Decode),+> Decode for ($($name,)+) {
                fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
                    Ok(($($name::decode(reader)?,)+))
                }
            }
        )+
    };
}

// Keyed payloads such as `(key, value)` readings cross shard-group links and sit
// in window buffers directly.
impl_codec_tuple!((A: 0), (A: 0, B: 1), (A: 0, B: 1, C: 2), (A: 0, B: 1, C: 2, D: 3));

/// Implements [`Encode`] and [`Decode`] for a struct as its listed fields in
/// order, or (`enum` form) for an enum of one-field variants as a `u8` tag
/// followed by the variant's field.
///
/// ```
/// use genealog_spe::codec::{Decode, Encode};
///
/// #[derive(Debug, PartialEq)]
/// struct Reading { meter: u32, value: i64 }
/// genealog_spe::impl_codec_struct!(Reading { meter, value });
///
/// #[derive(Debug, PartialEq)]
/// enum Relay { Reading(Reading), Tick(u64) }
/// genealog_spe::impl_codec_struct!(enum Relay { Reading(Reading) = 0, Tick(u64) = 1 });
///
/// let relay = Relay::Reading(Reading { meter: 3, value: -1 });
/// assert_eq!(Relay::from_bytes(&relay.to_bytes()), Ok(relay));
/// ```
#[macro_export]
macro_rules! impl_codec_struct {
    (enum $ty:ident { $($variant:ident($inner:ty) = $tag:literal),+ $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant(inner) => {
                        $crate::codec::Encode::encode(&($tag as u8), out);
                        $crate::codec::Encode::encode(inner, out);
                    })+
                }
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(
                reader: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                match <u8 as $crate::codec::Decode>::decode(reader)? {
                    $($tag => Ok($ty::$variant(<$inner as $crate::codec::Decode>::decode(reader)?)),)+
                    tag => Err($crate::codec::CodecError::Tag { what: stringify!($ty), tag }),
                }
            }
        }
    };
    ($ty:ident $(<$($g:ident),+>)? { $($field:ident),+ $(,)? }) => {
        impl<$($($g: $crate::codec::Encode),+)?> $crate::codec::Encode for $ty<$($($g),+)?> {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::codec::Encode::encode(&self.$field, out);)+
            }
        }
        impl<$($($g: $crate::codec::Decode),+)?> $crate::codec::Decode for $ty<$($($g),+)?> {
            fn decode(
                reader: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(Self {
                    $($field: $crate::codec::Decode::decode(reader)?,)+
                })
            }
        }
    };
}

impl Encode for Timestamp {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_millis().encode(out);
    }
}

impl Decode for Timestamp {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Timestamp::from_millis(u64::decode(reader)?))
    }
}

impl_codec_struct!(TupleId { origin, seq });

// The metrics frame a remote shard or `spe-node` ships to the origin is a
// `Vec<Sample>`: what `MetricsRegistry::local_samples` returns, installed on the
// other side with `MetricsRegistry::install_remote`.
impl_codec_struct!(Sample {
    name,
    labels,
    value
});
impl_codec_struct!(
    enum SampleValue {
        Counter(u64) = 0,
        Gauge(u64) = 1,
        Histogram(HistogramSnapshot) = 2,
    }
);

/// More buckets than any histogram this engine builds (65): a frame claiming more
/// is not one of ours.
const MAX_HISTOGRAM_BUCKETS: usize = 1_024;

impl Encode for HistogramSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.buckets().len() as u32).encode(out);
        for bucket in self.buckets() {
            bucket.encode(out);
        }
        self.count().encode(out);
        self.sum().encode(out);
    }
}

impl Decode for HistogramSnapshot {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let buckets = Vec::<u64>::decode(reader)?;
        if buckets.len() > MAX_HISTOGRAM_BUCKETS {
            return Err(CodecError::Invalid("histogram with more than 1024 buckets"));
        }
        Ok(HistogramSnapshot::from_parts(
            buckets,
            u64::decode(reader)?,
            u64::decode(reader)?,
        ))
    }
}
