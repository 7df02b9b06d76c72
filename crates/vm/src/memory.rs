//! The interpreted program's data memory, shared by both engines.
//!
//! Memory is one word array: the globals at `[0, globals_end)`, then
//! [`crate::VmOptions::stack_words`] words of frame stack. That sum is
//! the *logical* size — every address below it is valid and reads 0
//! until written — but only the globals plus [`INITIAL_STACK_WORDS`] are
//! allocated up front. A frame push or a store that lands past the
//! allocated end (and below the logical size) grows the array
//! geometrically, zero-filled; a load there reads 0 without allocating.
//! Most runs never grow, so set-up costs the globals plus 32 KiB however
//! large the limit is.
//!
//! The in-bounds test on the hot path is one unsigned compare against
//! the allocated length (a negative address wraps to a huge index);
//! everything else — growth, zero reads, and the out-of-bounds trap —
//! sits on a cold out-of-line path.

use crate::trap::Trap;

/// Stack words allocated before the first growth (32 KiB).
const INITIAL_STACK_WORDS: usize = 1 << 12;

pub(crate) struct Memory {
    /// The allocated prefix of memory; words past it read as 0.
    words: Vec<i64>,
    /// Logical size, `globals_end + stack_words`: the first invalid
    /// address.
    limit: usize,
}

impl Memory {
    /// Memory for a program whose globals end at `globals_end`, with the
    /// given initialised globals (`(address, words)` pairs) copied in.
    pub(crate) fn new<'g>(
        globals_end: i64,
        stack_words: usize,
        globals: impl IntoIterator<Item = (usize, &'g [i64])>,
    ) -> Memory {
        let globals_end = globals_end as usize;
        let mut words = vec![0i64; globals_end + stack_words.min(INITIAL_STACK_WORDS)];
        for (at, init) in globals {
            words[at..at + init.len()].copy_from_slice(init);
        }
        Memory {
            words,
            limit: globals_end.saturating_add(stack_words),
        }
    }

    #[inline(always)]
    pub(crate) fn load(&self, addr: i64) -> Result<i64, Trap> {
        match self.words.get(addr as usize) {
            Some(&w) => Ok(w),
            None => self.load_cold(addr),
        }
    }

    #[inline(always)]
    pub(crate) fn store(&mut self, addr: i64, value: i64) -> Result<(), Trap> {
        match self.words.get_mut(addr as usize) {
            Some(w) => {
                *w = value;
                Ok(())
            }
            None => self.store_cold(addr, value),
        }
    }

    /// The `size` words of a frame starting at `base` (their contents
    /// left as they are), or `StackOverflow { depth }` when the frame
    /// would cross the logical size.
    pub(crate) fn frame(&mut self, base: i64, size: u32, depth: usize) -> Result<&mut [i64], Trap> {
        let (base, end) = (base as usize, base as usize + size as usize);
        if end > self.words.len() {
            if end > self.limit {
                return Err(Trap::StackOverflow { depth });
            }
            self.grow(end);
        }
        Ok(&mut self.words[base..end])
    }

    #[cold]
    #[inline(never)]
    fn load_cold(&self, addr: i64) -> Result<i64, Trap> {
        self.check(addr).map(|_| 0)
    }

    #[cold]
    #[inline(never)]
    fn store_cold(&mut self, addr: i64, value: i64) -> Result<(), Trap> {
        let at = self.check(addr)?;
        self.grow(at + 1);
        self.words[at] = value;
        Ok(())
    }

    fn check(&self, addr: i64) -> Result<usize, Trap> {
        usize::try_from(addr)
            .ok()
            .filter(|&at| at < self.limit)
            .ok_or(Trap::MemoryOutOfBounds { addr })
    }

    /// Grow to at least `min_len` words (at most the logical size),
    /// doubling so a deepening stack reallocates O(log n) times.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, min_len: usize) {
        let len = min_len.max(self.words.len() * 2).min(self.limit);
        self.words.resize(len, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unallocated_words_read_zero_and_grow_on_store() {
        let mut m = Memory::new(2, 1 << 20, [(0, &[7i64, 8][..])]);
        assert_eq!(m.words.len(), 2 + INITIAL_STACK_WORDS);
        assert_eq!(m.load(1), Ok(8));
        let last: usize = 2 + (1 << 20) - 1;
        assert_eq!(m.load(last as i64), Ok(0));
        assert_eq!(
            m.words.len(),
            2 + INITIAL_STACK_WORDS,
            "loads never allocate"
        );
        m.store(last as i64, 5).unwrap();
        assert_eq!(m.load(last as i64), Ok(5));
        assert_eq!(m.words.len(), last + 1, "growth stops at the logical size");
    }

    #[test]
    fn traps_at_exactly_the_logical_size() {
        let mut m = Memory::new(0, 16, []);
        assert_eq!(m.load(16), Err(Trap::MemoryOutOfBounds { addr: 16 }));
        assert_eq!(m.store(-1, 0), Err(Trap::MemoryOutOfBounds { addr: -1 }));
        assert_eq!(
            m.load(i64::MIN),
            Err(Trap::MemoryOutOfBounds { addr: i64::MIN })
        );
        assert_eq!(m.frame(10, 6, 3).map(|f| f.len()), Ok(6));
        assert_eq!(m.frame(10, 7, 3), Err(Trap::StackOverflow { depth: 3 }));
    }

    #[test]
    fn frames_grow_geometrically() {
        let mut m = Memory::new(0, 1 << 20, []);
        m.frame(INITIAL_STACK_WORDS as i64, 1, 1).unwrap();
        assert_eq!(m.words.len(), 2 * INITIAL_STACK_WORDS);
        m.frame(0, 3 * INITIAL_STACK_WORDS as u32, 1).unwrap();
        assert_eq!(m.words.len(), 4 * INITIAL_STACK_WORDS);
    }
}
