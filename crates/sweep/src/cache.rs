//! Content-addressed artifact cache.
//!
//! Every expensive pipeline stage (training/reorder, measurement) is
//! keyed by a 64-bit FNV-1a hash over *everything that determines its
//! result*: a stage tag, a format version, the printed IR of the input
//! module, the relevant option strings, and the raw input bytes. Two
//! sweep cells that agree on all of those produce the same artifact, so
//! the stage is computed once and replayed from disk everywhere else —
//! including across separate sweep invocations.
//!
//! Artifacts are small versioned text files (see [`crate::artifact`]);
//! anything that fails to parse is treated as a miss and recomputed, so
//! a stale or truncated cache can only cost time, never correctness.
//! They fan out over 256 subdirectories named by the key's top byte
//! (`ab/ab….art`). A lookup that misses takes its directory's lock, and
//! a store holds it while it creates and renames, so in one flat
//! directory every miss of a busy daemon would wait behind every store;
//! with the fan-out it waits only for stores into its own subdirectory.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Incremented whenever an artifact format or a stage's semantics
/// change, so old cache directories are silently invalidated.
/// (`v2`: reorder artifacts carry proof certificates. `v3`: sequence
/// records carry the deployed dispatch structure — Set IV. `v4`: a
/// sequence whose reordering was refused or refuted reads `refused
/// STAGE`, no longer `never`. `v5`: sequence records drop the leading
/// kind word, which only ever read `range`.)
pub const FORMAT_VERSION: &str = "v5";

/// 64-bit FNV-1a over a sequence of length-delimited parts.
///
/// Parts are length-delimited (the length bytes are hashed before the
/// part) so `["ab", "c"]` and `["a", "bc"]` cannot collide by
/// concatenation.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for part in parts {
        eat(&(part.len() as u64).to_le_bytes());
        eat(part);
    }
    h
}

/// An on-disk artifact store with hit/miss counters.
///
/// `None` as the directory disables the store (every lookup misses and
/// stores go nowhere) — used by `--no-cache` and by tests that want
/// cold-path behaviour.
pub struct ArtifactCache {
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// A cache rooted at `dir`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn at(dir: &Path) -> io::Result<ArtifactCache> {
        fs::create_dir_all(dir)?;
        Ok(ArtifactCache {
            dir: Some(dir.to_path_buf()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// A disabled cache: every lookup is a miss, nothing is written.
    pub fn disabled() -> ArtifactCache {
        ArtifactCache {
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn path(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{:02x}/{key:016x}.art", key >> 56)))
    }

    /// Look up an artifact; counts a hit or a miss.
    pub fn get(&self, key: u64) -> Option<String> {
        let text = self.path(key).and_then(|p| fs::read_to_string(p).ok());
        match &text {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        text
    }

    /// Store an artifact. Write failures are deliberately swallowed: a
    /// read-only or full cache directory degrades to recomputation.
    pub fn put(&self, key: u64, text: &str) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let Some(path) = self.path(key) else { return };
        // Write-then-rename so concurrent writers of the same key (or a
        // reader racing a writer) never observe a torn artifact. The
        // temp name must be unique per *attempt*, not per content: two
        // writers racing identical bytes would otherwise share a temp
        // file and could publish a torn interleaving of two writes.
        let tmp = path.with_extension(format!(
            "tmp{:x}-{:x}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut written = fs::write(&tmp, text);
        if matches!(&written, Err(e) if e.kind() == io::ErrorKind::NotFound) {
            // First store into this key's subdirectory.
            if let Some(shard) = path.parent() {
                let _ = fs::create_dir_all(shard);
            }
            written = fs::write(&tmp, text);
        }
        if written.is_ok() && fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// A hit/miss counter can be recorded retroactively when a cached
    /// artifact turns out to be unparseable (counted as a hit by
    /// [`ArtifactCache::get`] but actually recomputed).
    pub fn demote_hit(&self) {
        self.hits.fetch_sub(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_length_delimited() {
        assert_ne!(fnv1a(&[b"ab", b"c"]), fnv1a(&[b"a", b"bc"]));
        assert_ne!(fnv1a(&[b"ab"]), fnv1a(&[b"ab", b""]));
        assert_eq!(fnv1a(&[b"ab", b"c"]), fnv1a(&[b"ab", b"c"]));
    }

    #[test]
    fn disabled_cache_always_misses() {
        let c = ArtifactCache::disabled();
        c.put(1, "text");
        assert_eq!(c.get(1), None);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn roundtrip_and_counters() {
        let dir = std::env::temp_dir().join(format!("br-sweep-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let c = ArtifactCache::at(&dir).expect("cache dir");
        assert_eq!(c.get(42), None);
        c.put(42, "hello\n");
        assert_eq!(c.get(42).as_deref(), Some("hello\n"));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        let top = 0xab12_3456_789a_bcde_u64;
        c.put(top, "fanned out\n");
        assert!(dir.join("ab").join(format!("{top:016x}.art")).is_file());
        assert_eq!(c.get(top).as_deref(), Some("fanned out\n"));
        let _ = fs::remove_dir_all(&dir);
    }
}
