//! Allocation-free interning of `u32` slices into dense ids.
//!
//! Keys live back to back in one arena; an open-addressing table of
//! `u32` ids, probed linearly and hashed by a small multiplicative
//! hasher, maps a key to the id it was first interned under. A probe
//! borrows the caller's slice, so a hit allocates nothing and a miss
//! only appends to the arena. Ids are handed out in first-intern order,
//! so the numbering is independent of the hash function.

const EMPTY: u32 = u32::MAX;

fn hash(key: &[u32]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = key.len() as u64;
    for &w in key {
        h = (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(K);
    }
    h
}

/// Interns `u32` slices (of any lengths) into ids `0, 1, 2, …`.
pub struct SliceInterner {
    arena: Vec<u32>,
    /// Key `i` is `arena[off[i]..off[i + 1]]`.
    off: Vec<usize>,
    /// Hash per id, kept so growth never rehashes a key.
    hashes: Vec<u64>,
    /// Open-addressing slots holding ids, [`EMPTY`] when free; the
    /// length is a power of two kept at least twice the key count.
    slots: Vec<u32>,
    shift: u32,
}

impl Default for SliceInterner {
    fn default() -> SliceInterner {
        SliceInterner::new()
    }
}

impl SliceInterner {
    /// An empty interner.
    pub fn new() -> SliceInterner {
        SliceInterner {
            arena: Vec::new(),
            off: vec![0],
            hashes: Vec::new(),
            slots: vec![EMPTY; 16],
            shift: 64 - 4,
        }
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The key interned under `id`.
    pub fn get(&self, id: u32) -> &[u32] {
        &self.arena[self.off[id as usize]..self.off[id as usize + 1]]
    }

    /// The id of `key`, interning it if new; the flag is true when it
    /// was new.
    pub fn intern(&mut self, key: &[u32]) -> (u32, bool) {
        let h = hash(key);
        let mask = self.slots.len() - 1;
        let mut i = (h >> self.shift) as usize;
        loop {
            let id = self.slots[i];
            if id == EMPTY {
                break;
            }
            if self.hashes[id as usize] == h && self.get(id) == key {
                return (id, false);
            }
            i = (i + 1) & mask;
        }
        let id = self.hashes.len() as u32;
        assert!(id < EMPTY, "slice interner is full");
        self.slots[i] = id;
        self.hashes.push(h);
        self.arena.extend_from_slice(key);
        self.off.push(self.arena.len());
        if 2 * self.hashes.len() > self.slots.len() {
            self.grow();
        }
        (id, true)
    }

    fn grow(&mut self) {
        self.slots = vec![EMPTY; self.slots.len() * 2];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (id, &h) in self.hashes.iter().enumerate() {
            let mut i = (h >> self.shift) as usize;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = id as u32;
        }
    }

    /// The key arena, keys back to back in id order.
    pub fn into_arena(self) -> Vec<u32> {
        self.arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_first_intern_order() {
        let mut t = SliceInterner::new();
        assert_eq!(t.intern(&[3, 1]), (0, true));
        assert_eq!(t.intern(&[1, 3]), (1, true));
        assert_eq!(t.intern(&[3, 1]), (0, false));
        assert_eq!(t.intern(&[]), (2, true));
        assert_eq!(t.intern(&[7]), (3, true));
        assert_eq!(t.get(1), &[1, 3]);
        assert_eq!(t.get(2), &[] as &[u32]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn survives_growth() {
        let mut t = SliceInterner::new();
        for i in 0..10_000u32 {
            assert_eq!(t.intern(&[i, i ^ 5, i / 3]), (i, true));
        }
        for i in 0..10_000u32 {
            assert_eq!(t.intern(&[i, i ^ 5, i / 3]), (i, false));
            assert_eq!(t.get(i), &[i, i ^ 5, i / 3]);
        }
        assert_eq!(t.into_arena().len(), 30_000);
    }
}
