//! Concurrent cache sharing: two [`ArtifactCache`] handles — as two
//! sweep processes or the serve daemon and a sweep would hold — race on
//! one directory. The write-then-rename discipline must guarantee that
//! a reader never observes a torn artifact, and that the loser of a
//! rename race still finds a complete entry under the key.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

use br_sweep::cache::ArtifactCache;

/// An artifact body large enough that a torn write would be observable:
/// a self-describing header plus a page-crossing payload whose content
/// is derived from the key.
fn artifact(key: u64) -> String {
    let line = format!("artifact {key:016x} ");
    let mut text = format!("begin {key:016x}\n");
    for i in 0..256 {
        text.push_str(&line);
        text.push_str(&i.to_string());
        text.push('\n');
    }
    text.push_str(&format!("end {key:016x}\n"));
    text
}

/// A read value must be exactly the complete artifact — any prefix,
/// suffix, or interleaving is a torn read.
fn assert_intact(key: u64, got: &str) {
    assert_eq!(
        got,
        artifact(key),
        "torn artifact read back for key {key:016x}"
    );
}

#[test]
fn two_handles_racing_on_one_directory_never_tear() {
    let dir = std::env::temp_dir().join(format!("br-sweep-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    const KEYS: u64 = 32;
    const ROUNDS: u64 = 20;
    let reads = AtomicU64::new(0);
    let writers_live = AtomicUsize::new(2);
    let barrier = Barrier::new(4);
    std::thread::scope(|scope| {
        // Two writers with independent handles keep rewriting the same
        // small key set, so renames of the same destination collide.
        for _ in 0..2 {
            let dir = &dir;
            let barrier = &barrier;
            let writers_live = &writers_live;
            scope.spawn(move || {
                let cache = ArtifactCache::at(dir).expect("cache dir");
                barrier.wait();
                for round in 0..ROUNDS {
                    for key in 0..KEYS {
                        cache.put(key, &artifact(key));
                        // The rename-race loser must still read a
                        // complete entry written by *somebody*.
                        if round > 0 {
                            let got = cache.get(key).expect("key written every round");
                            assert_intact(key, &got);
                        }
                    }
                }
                writers_live.fetch_sub(1, Ordering::Release);
            });
        }
        // Two readers with their own handles poll the same keys for as
        // long as the writers keep racing (plus one final sweep, which
        // is guaranteed to find every key); every successful read must
        // be complete.
        for _ in 0..2 {
            let dir = &dir;
            let barrier = &barrier;
            let reads = &reads;
            let writers_live = &writers_live;
            scope.spawn(move || {
                let cache = ArtifactCache::at(dir).expect("cache dir");
                barrier.wait();
                let sweep = |reads: &AtomicU64| {
                    for key in 0..KEYS {
                        if let Some(got) = cache.get(key) {
                            assert_intact(key, &got);
                            reads.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                };
                while writers_live.load(Ordering::Acquire) > 0 {
                    sweep(reads);
                }
                sweep(reads);
            });
        }
    });
    assert!(
        reads.load(Ordering::Relaxed) >= KEYS,
        "the final reader sweep must find every key"
    );

    // After the dust settles every key holds one complete artifact and
    // no temporary files leak.
    let survivor = ArtifactCache::at(&dir).expect("cache dir");
    for key in 0..KEYS {
        assert_intact(key, &survivor.get(key).expect("entry survives"));
    }
    for shard in std::fs::read_dir(&dir).expect("cache dir listing") {
        let shard = shard.expect("dir entry").path();
        assert!(
            shard.is_dir(),
            "stray file in cache root: {}",
            shard.display()
        );
        for entry in std::fs::read_dir(&shard).expect("shard listing") {
            let name = entry.expect("dir entry").file_name();
            let name = name.to_string_lossy();
            assert!(
                name.ends_with(".art"),
                "leaked temporary file in cache dir: {name}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
