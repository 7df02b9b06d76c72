//! The response cache with its disk writes taken off the request path.
//!
//! Storing a response in the cache directory takes a temp file and a
//! rename. On a journaling filesystem the cost of those metadata
//! operations swings with the journal's commit cycle: on ext4 the
//! daemon's workers spent from 5% to 40% of their time in the kernel
//! over a few seconds, and the 90th-percentile latency of a first-seen
//! request moved by a factor of two with it. So a fresh response goes
//! into an in-memory table of pending entries and the answer goes out at
//! once; one writer thread persists the pending entries in the order
//! they came and drops each from the table once it is on disk. A lookup
//! reads the table first, then the directory, so a repeat request hits
//! whether or not its entry has reached the disk. Dropping the store
//! flushes every pending entry, so a drained daemon leaves every
//! response it answered in the directory.
//!
//! The queue is bounded: past `MAX_PENDING` queued writes a put goes
//! straight to disk, so a disk slower than the request rate costs
//! latency, not memory.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use br_sweep::cache::ArtifactCache;

/// Queued writes beyond which [`ResponseStore::put`] writes in place.
const MAX_PENDING: usize = 4096;

type Pending = Arc<Mutex<HashMap<u64, Arc<str>>>>;

/// An [`ArtifactCache`] whose stores are written behind the caller.
pub struct ResponseStore {
    disk: Arc<ArtifactCache>,
    /// Entries stored but not yet on disk.
    pending: Pending,
    /// Keys for the writer; `None` when disabled.
    queue: Option<SyncSender<u64>>,
    writer: Option<JoinHandle<()>>,
}

impl ResponseStore {
    /// A store over the cache directory `dir`, created if needed, with
    /// its writer thread started; `None` disables the store (every
    /// lookup misses, nothing is kept).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created.
    pub fn new(dir: Option<&Path>) -> io::Result<ResponseStore> {
        let pending: Pending = Arc::default();
        let Some(dir) = dir else {
            return Ok(ResponseStore {
                disk: Arc::new(ArtifactCache::disabled()),
                pending,
                queue: None,
                writer: None,
            });
        };
        let disk = Arc::new(ArtifactCache::at(dir)?);
        let (queue, keys) = mpsc::sync_channel::<u64>(MAX_PENDING);
        let writer = {
            let (disk, pending) = (Arc::clone(&disk), Arc::clone(&pending));
            std::thread::spawn(move || {
                for key in keys {
                    let text = lock(&pending).get(&key).cloned();
                    if let Some(text) = text {
                        disk.put(key, &text);
                        lock(&pending).remove(&key);
                    }
                }
            })
        };
        Ok(ResponseStore {
            disk,
            pending,
            queue: Some(queue),
            writer: Some(writer),
        })
    }

    /// The directory store itself, for the module intern table's
    /// write-through.
    pub fn disk(&self) -> &ArtifactCache {
        &self.disk
    }

    /// Look up an entry: pending first, then the directory.
    pub fn get(&self, key: u64) -> Option<String> {
        if let Some(text) = lock(&self.pending).get(&key) {
            return Some(text.to_string());
        }
        self.disk.get(key)
    }

    /// Store an entry; it reaches the directory from the writer thread,
    /// or in place when `MAX_PENDING` writes are already queued.
    pub fn put(&self, key: u64, text: &str) {
        let Some(queue) = &self.queue else { return };
        lock(&self.pending).insert(key, Arc::from(text));
        if queue.try_send(key).is_err() {
            self.disk.put(key, text);
            lock(&self.pending).remove(&key);
        }
    }
}

impl Drop for ResponseStore {
    /// Flush: the writer drains the queue and exits.
    fn drop(&mut self) {
        drop(self.queue.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

fn lock(pending: &Pending) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<str>>> {
    pending.lock().expect("pending table poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("br-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_put_is_visible_at_once_and_on_disk_after_drop() {
        let dir = dir("flush");
        let store = ResponseStore::new(Some(&dir)).expect("cache dir");
        for key in 0..100u64 {
            store.put(key, &format!("entry {key}\n"));
            assert_eq!(
                store.get(key).as_deref(),
                Some(format!("entry {key}\n").as_str())
            );
        }
        assert_eq!(store.get(1000), None);
        drop(store);
        let reborn = ArtifactCache::at(&dir).expect("cache dir");
        for key in 0..100u64 {
            assert_eq!(reborn.get(key), Some(format!("entry {key}\n")));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_disabled_directory_stores_nothing() {
        let store = ResponseStore::new(None).expect("no directory to create");
        store.put(7, "seven\n");
        assert_eq!(store.get(7), None);
    }
}
