//! A log kept per reader: one bounded queue per key.
//!
//! The two logs a user reaches over HTTP — the perimeter's audit behind
//! `/audit` and the fault reports behind `/dev/faults` — are stored by the
//! key their reader asks for (a secrecy label, an app key). An entry is
//! evicted only by a newer entry under the same key, so what one reader
//! sees does not depend on how much anyone else logged (§3.5: a shared
//! evict-oldest ring would count other users' traffic for them). There is
//! deliberately no cap across keys, which would bring that channel back;
//! memory is the number of keys times [`CAP`] entries.

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Entries kept per key.
pub(crate) const CAP: usize = 64;

/// Bounded per-key queues, with one sequence across keys so that reads
/// spanning several keys come back in the order the entries were logged.
pub(crate) struct PartitionedLog<K, V> {
    next: u64,
    parts: HashMap<K, VecDeque<(u64, V)>>,
}

impl<K: Hash + Eq, V: Clone> PartitionedLog<K, V> {
    pub(crate) fn new() -> Self {
        PartitionedLog { next: 0, parts: HashMap::new() }
    }

    /// Append `value` under `key`, evicting that key's oldest entry when
    /// it already holds [`CAP`].
    pub(crate) fn push(&mut self, key: K, value: V) {
        let part = self.parts.entry(key).or_default();
        if part.len() == CAP {
            part.pop_front();
        }
        part.push_back((self.next, value));
        self.next += 1;
    }

    /// The entries under `keys`, oldest first. Each key is read once per
    /// time it is named, so the caller names distinct keys.
    pub(crate) fn read<'q, Q>(&self, keys: impl IntoIterator<Item = &'q Q>) -> Vec<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized + 'q,
    {
        merged(keys.into_iter().filter_map(|k| self.parts.get(k)))
    }

    /// Every entry under every key, oldest first (the operator's view).
    pub(crate) fn all(&self) -> Vec<V> {
        merged(self.parts.values())
    }
}

fn merged<'a, V: Clone + 'a>(parts: impl Iterator<Item = &'a VecDeque<(u64, V)>>) -> Vec<V> {
    let mut entries: Vec<&(u64, V)> = parts.flatten().collect();
    entries.sort_unstable_by_key(|&&(seq, _)| seq);
    entries.into_iter().map(|(_, v)| v.clone()).collect()
}
