//! Content-addressed module interning — the server half of `brs2`
//! delta upload.
//!
//! A repeat client sends the 8-byte FNV-1a hash of a module's printed
//! IR instead of the IR itself ([`crate::proto2::module_hash`]); the
//! shard resolves the hash here. The table is two-level:
//!
//! * an in-memory map for the hot path (one lock, `Arc<str>` bodies so
//!   resolution never copies module text), and
//! * a write-through to the shard's [`ArtifactCache`] directory, so an
//!   interned module survives a daemon restart and is visible to any
//!   process sharing the cache directory — the same shared read path
//!   the sweep engine and the response cache already use.
//!
//! A hash that resolves nowhere is *not* an error at this layer: the
//! endpoint turns it into a `need-module` response and the client
//! re-uploads the body once. Every full body that passes through a
//! shard is interned on sight, so a client that sent the body once can
//! refer to it by hash from then on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use br_sweep::cache::{fnv1a, ArtifactCache};

use crate::proto2::module_hash;

/// Disk key for an interned module body: distinct domain from response
/// artifacts, keyed only by the content hash itself.
fn disk_key(hash: u64) -> u64 {
    fnv1a(&[b"intern", &hash.to_le_bytes()])
}

/// The intern table. One per daemon, shared by every worker.
pub struct ModuleIntern {
    map: Mutex<HashMap<u64, Arc<str>>>,
    /// Hash resolutions served from memory or disk.
    pub hits: AtomicU64,
    /// Hash resolutions that failed (answered `need-module`).
    pub misses: AtomicU64,
}

impl Default for ModuleIntern {
    fn default() -> ModuleIntern {
        ModuleIntern {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl ModuleIntern {
    /// Intern a module body, returning its content hash. Idempotent;
    /// the disk write happens only on first sight.
    pub fn insert(&self, text: &str, cache: &ArtifactCache) -> u64 {
        let hash = module_hash(text.as_bytes());
        let mut map = self.map.lock().expect("intern map poisoned");
        if map.contains_key(&hash) {
            return hash;
        }
        map.insert(hash, Arc::from(text));
        drop(map);
        cache.put(disk_key(hash), text);
        hash
    }

    /// Resolve a content hash to its module body, falling back to the
    /// shared cache directory (and promoting the body into memory).
    pub fn resolve(&self, hash: u64, cache: &ArtifactCache) -> Option<Arc<str>> {
        if let Some(text) = self
            .map
            .lock()
            .expect("intern map poisoned")
            .get(&hash)
            .cloned()
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(text);
        }
        // The disk lookup must verify content: the cache directory is
        // shared and a torn or foreign file must not impersonate a
        // module.
        if let Some(text) = cache.get(disk_key(hash)) {
            if module_hash(text.as_bytes()) == hash {
                let text: Arc<str> = Arc::from(text.as_str());
                self.map
                    .lock()
                    .expect("intern map poisoned")
                    .insert(hash, Arc::clone(&text));
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(text);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interned_modules_resolve_from_memory_and_disk() {
        let dir = std::env::temp_dir().join(format!("br-serve-intern-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::at(&dir).expect("cache dir");
        let intern = ModuleIntern::default();
        let text = "func main() {\n}\n";
        let hash = intern.insert(text, &cache);
        assert_eq!(hash, module_hash(text.as_bytes()));
        assert_eq!(intern.resolve(hash, &cache).as_deref(), Some(text));
        assert!(intern.resolve(hash ^ 1, &cache).is_none());

        // A fresh table (simulating a restart) resolves via the shared
        // cache directory.
        let reborn = ModuleIntern::default();
        assert_eq!(reborn.resolve(hash, &cache).as_deref(), Some(text));
        // And a second resolve is served from memory (hit counter 2).
        assert_eq!(reborn.resolve(hash, &cache).as_deref(), Some(text));
        assert_eq!(reborn.hits.load(Ordering::Relaxed), 2);
        assert_eq!(reborn.misses.load(Ordering::Relaxed), 0);

        // A tampered disk entry is rejected, not trusted.
        let tampered = ModuleIntern::default();
        cache.put(super::disk_key(hash), "func evil() {\n}\n");
        assert!(tampered.resolve(hash, &cache).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
