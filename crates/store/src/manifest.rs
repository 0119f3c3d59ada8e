//! The manifest: the store's single atomically-replaced commit point.
//!
//! Segment appends are only *potentially* live until the manifest says which
//! generation of segment files is current and which epoch completed last. The
//! manifest is replaced atomically — write `MANIFEST.tmp`, fsync it, `rename`
//! over `MANIFEST`, fsync the directory — so a crash leaves either the old or
//! the new manifest, never a torn one; a corrupt or missing manifest falls back
//! to defaults (generation 0, nothing complete), which a fresh directory
//! satisfies trivially.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

use genealog_spe::codec::{CodecError, Decode, Encode, Reader};

use crate::codec::crc32;

const MAGIC: [u8; 4] = *b"GLMF";
const VERSION: u8 = 1;
const FILE: &str = "MANIFEST";
const TMP: &str = "MANIFEST.tmp";

/// The durable metadata of a store directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Compaction generation: only segment files of this generation are live.
    pub generation: u64,
    /// The greatest epoch every participant committed (the recoverable cut).
    pub latest_complete: Option<u64>,
    /// Whether the previous process flushed the store on a clean shutdown.
    pub clean_shutdown: bool,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(32);
        payload.extend_from_slice(&MAGIC);
        VERSION.encode(&mut payload);
        self.generation.encode(&mut payload);
        self.latest_complete.encode(&mut payload);
        self.clean_shutdown.encode(&mut payload);
        let checksum = crc32(&payload);
        checksum.encode(&mut payload);
        payload
    }

    fn decode(bytes: &[u8]) -> Option<Manifest> {
        let (payload, checksum) = bytes.split_last_chunk::<4>()?;
        if crc32(payload) != u32::from_le_bytes(*checksum) {
            return None;
        }
        let parse = || -> Result<Manifest, CodecError> {
            let mut r = Reader::new(payload);
            if r.take(4)? != MAGIC || u8::decode(&mut r)? != VERSION {
                return Err(CodecError::Invalid("not a GLMF version 1 manifest"));
            }
            let manifest = Manifest {
                generation: u64::decode(&mut r)?,
                latest_complete: Option::decode(&mut r)?,
                clean_shutdown: bool::decode(&mut r)?,
            };
            r.finish()?;
            Ok(manifest)
        };
        parse().ok()
    }

    /// Loads the manifest of `dir`; `None` when missing or corrupt (the caller
    /// falls back to [`Manifest::default`]).
    pub fn load(dir: &Path) -> Option<Manifest> {
        let mut bytes = Vec::new();
        File::open(dir.join(FILE))
            .ok()?
            .read_to_end(&mut bytes)
            .ok()?;
        Manifest::decode(&bytes)
    }

    /// Atomically replaces the manifest of `dir`: tmp write → fsync → rename →
    /// directory fsync. This is the store's commit point.
    ///
    /// # Errors
    /// Propagates any I/O failure; the previous manifest stays in place.
    pub fn store(&self, dir: &Path) -> io::Result<()> {
        let tmp = dir.join(TMP);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&self.encode())?;
        file.sync_data()?;
        drop(file);
        std::fs::rename(&tmp, dir.join(FILE))?;
        // Persist the rename itself.
        File::open(dir)?.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrips_via_the_filesystem() {
        let dir = temp_dir("roundtrip");
        assert_eq!(Manifest::load(&dir), None);
        let manifest = Manifest {
            generation: 3,
            latest_complete: Some(17),
            clean_shutdown: true,
        };
        manifest.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir), Some(manifest));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_rejected_not_trusted() {
        let dir = temp_dir("corrupt");
        let manifest = Manifest {
            generation: 1,
            latest_complete: Some(5),
            clean_shutdown: false,
        };
        manifest.store(&dir).unwrap();
        // Flip one byte on disk: the CRC must reject the whole manifest.
        let path = dir.join(FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[6] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(Manifest::load(&dir), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_manifest_is_rejected() {
        let manifest = Manifest {
            generation: 2,
            latest_complete: None,
            clean_shutdown: true,
        };
        let bytes = manifest.encode();
        for cut in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
        assert_eq!(Manifest::decode(&bytes), Some(manifest));
    }
}
