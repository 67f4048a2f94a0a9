//! A prefix trie: the backing store for RIBs and FIBs.
//!
//! Supports the three operations interdomain routing needs:
//! exact-prefix insert/remove/get (BGP announcements and withdrawals are
//! keyed by exact prefix), longest-prefix match (data-plane lookup in the
//! border-router model), and ordered iteration (deterministic RIB dumps,
//! which keep every experiment reproducible).
//!
//! The structure is a multibit trie of stride 8: one level per octet, so
//! at most four nodes. The node at level `k` holds the prefixes of length
//! `8k + 1` to `8k + 8` under its path (the root also holds /0): a prefix
//! of local length `l` is bit `(1 << l) | (octet >> (8 - l))` of a 512-bit
//! presence bitmap, and the values sit in a vector in bit order. Children
//! are a 256-bit bitmap over the next octet plus a vector in the same
//! order. Each bitmap keeps the running popcount of its words, so the
//! position of a value or child is one popcount away. A longest-prefix
//! match therefore reads at most four nodes — three for a /24 among
//! thousands of siblings, where a trie of one node per bit reads 25.
//!
//! A node exists only while it holds a value or a child: removal prunes,
//! so two tries holding the same prefixes and values are equal node for
//! node. Correctness is cross-checked against a linear scan and a
//! `BTreeMap` by property tests.

use std::fmt;
use std::iter::Peekable;

use crate::ipv4::{Ipv4Addr, Prefix};

/// A map from IPv4 prefixes to values, with longest-prefix-match lookup.
///
/// ```
/// use sdx_net::{ip, prefix, PrefixTrie};
///
/// let mut fib = PrefixTrie::new();
/// fib.insert(prefix("10.0.0.0/8"), "coarse");
/// fib.insert(prefix("10.1.0.0/16"), "fine");
/// assert_eq!(fib.lookup(ip("10.1.2.3")).unwrap().1, &"fine");
/// assert_eq!(fib.lookup(ip("10.9.9.9")).unwrap().1, &"coarse");
/// assert!(fib.lookup(ip("11.0.0.1")).is_none());
/// ```
#[derive(Clone, PartialEq)]
pub struct PrefixTrie<T> {
    root: Node<T>,
    len: usize,
}

/// A set of bit positions below `64 * W`, with the number of members in
/// the words before each word, so a member's rank is one popcount.
#[derive(Clone, Copy, PartialEq)]
struct Bitmap<const W: usize> {
    words: [u64; W],
    before: [u16; W],
}

impl<const W: usize> Bitmap<W> {
    const EMPTY: Self = Bitmap {
        words: [0; W],
        before: [0; W],
    };

    /// `Ok(rank)` of a member, `Err(rank it would take)` of a non-member.
    fn rank(&self, i: usize) -> Result<usize, usize> {
        let (word, bit) = (self.words[i / 64], 1u64 << (i % 64));
        let rank = self.before[i / 64] as usize + (word & (bit - 1)).count_ones() as usize;
        if word & bit != 0 {
            Ok(rank)
        } else {
            Err(rank)
        }
    }

    /// Adds `i`, which is not a member.
    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
        for before in &mut self.before[i / 64 + 1..] {
            *before += 1;
        }
    }

    /// Drops `i`, which is a member.
    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
        for before in &mut self.before[i / 64 + 1..] {
            *before -= 1;
        }
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest.wrapping_sub(1);
                (bit < 64).then_some(w * 64 + bit)
            })
        })
    }
}

/// The node of one octet: see the module documentation.
#[derive(Clone, PartialEq)]
struct Node<T> {
    /// The prefixes held here, by [`slot`].
    prefixes: Bitmap<8>,
    /// Their values, in slot order.
    values: Vec<T>,
    /// The next octets under which a child exists.
    branches: Bitmap<4>,
    /// The children, in octet order.
    children: Vec<Node<T>>,
}

/// The presence bit of the prefix of local length `l` (0 to 8) whose
/// first `l` bits are those of `octet`.
fn slot(l: usize, octet: u8) -> usize {
    (1 << l) | (octet as usize >> (8 - l))
}

/// Where `prefix` is kept: the level of its node, whose path is the
/// address's first `level` octets, and its slot there.
fn locate(prefix: Prefix) -> (usize, usize) {
    let len = prefix.len() as usize;
    let level = len.saturating_sub(1) / 8;
    (level, slot(len - 8 * level, prefix.addr().octets()[level]))
}

impl<T> Node<T> {
    const EMPTY: Self = Node {
        prefixes: Bitmap::EMPTY,
        values: Vec::new(),
        branches: Bitmap::EMPTY,
        children: Vec::new(),
    };

    fn is_empty(&self) -> bool {
        self.values.is_empty() && self.children.is_empty()
    }

    fn value(&self, slot: usize) -> Option<&T> {
        let rank = self.prefixes.rank(slot).ok()?;
        Some(&self.values[rank])
    }

    fn child(&self, octet: u8) -> Option<&Node<T>> {
        let rank = self.branches.rank(octet as usize).ok()?;
        Some(&self.children[rank])
    }

    /// The node at the end of `path`, if it exists.
    fn reach(&self, path: &[u8]) -> Option<&Node<T>> {
        path.iter().try_fold(self, |node, &octet| node.child(octet))
    }

    fn reach_mut(&mut self, path: &[u8]) -> Option<&mut Node<T>> {
        path.iter().try_fold(self, |node, &octet| {
            let rank = node.branches.rank(octet as usize).ok()?;
            Some(&mut node.children[rank])
        })
    }

    /// The node at the end of `path`, created with the nodes leading to
    /// it where they are missing.
    fn reach_or_insert(&mut self, path: &[u8]) -> &mut Node<T> {
        path.iter().fold(self, |node, &octet| {
            let rank = node.branches.rank(octet as usize).unwrap_or_else(|rank| {
                node.branches.insert(octet as usize);
                node.children.insert(rank, Node::EMPTY);
                rank
            });
            &mut node.children[rank]
        })
    }

    /// Removes the value at `slot` of the node at the end of `path`,
    /// pruning the nodes the removal leaves empty below this one.
    fn remove(&mut self, path: &[u8], slot: usize) -> Option<T> {
        let Some((&octet, rest)) = path.split_first() else {
            let rank = self.prefixes.rank(slot).ok()?;
            self.prefixes.remove(slot);
            return Some(self.values.remove(rank));
        };
        let rank = self.branches.rank(octet as usize).ok()?;
        let out = self.children[rank].remove(rest, slot);
        if self.children[rank].is_empty() {
            self.branches.remove(octet as usize);
            self.children.remove(rank);
        }
        out
    }

    /// [`PrefixTrie::edit`] below this node: one descent, which creates
    /// the nodes a kept new value needs on the way down and prunes the
    /// ones a dropped value leaves empty on the way back up.
    fn edit<R>(
        &mut self,
        path: &[u8],
        slot: usize,
        len: &mut usize,
        vacant: impl FnOnce() -> T,
        f: impl FnOnce(&mut T) -> R,
        keep: impl FnOnce(&T) -> bool,
    ) -> R {
        let Some((&octet, rest)) = path.split_first() else {
            return self.edit_here(slot, len, vacant, f, keep);
        };
        match self.branches.rank(octet as usize) {
            Ok(rank) => {
                let out = self.children[rank].edit(rest, slot, len, vacant, f, keep);
                if self.children[rank].is_empty() {
                    self.branches.remove(octet as usize);
                    self.children.remove(rank);
                }
                out
            }
            Err(rank) => {
                let mut value = vacant();
                let out = f(&mut value);
                if keep(&value) {
                    self.branches.insert(octet as usize);
                    self.children.insert(rank, Node::EMPTY);
                    let node = self.children[rank].reach_or_insert(rest);
                    node.prefixes.insert(slot);
                    node.values.push(value);
                    *len += 1;
                }
                out
            }
        }
    }

    /// [`PrefixTrie::edit`] of the value at `slot` of this node.
    fn edit_here<R>(
        &mut self,
        slot: usize,
        len: &mut usize,
        vacant: impl FnOnce() -> T,
        f: impl FnOnce(&mut T) -> R,
        keep: impl FnOnce(&T) -> bool,
    ) -> R {
        match self.prefixes.rank(slot) {
            Ok(rank) => {
                let out = f(&mut self.values[rank]);
                if !keep(&self.values[rank]) {
                    self.prefixes.remove(slot);
                    self.values.remove(rank);
                    *len -= 1;
                }
                out
            }
            Err(rank) => {
                let mut value = vacant();
                let out = f(&mut value);
                if keep(&value) {
                    self.prefixes.insert(slot);
                    self.values.insert(rank, value);
                    *len += 1;
                }
                out
            }
        }
    }

    /// [`PrefixTrie::edit_run`] below this node, the one at `level` on
    /// `path`: edits the run's prefixes while they are kept in this
    /// subtree, each in its own node, and returns at the first one kept
    /// elsewhere. A child is entered once per stretch of the run below
    /// it, created if missing and pruned if the stretch left it empty.
    fn edit_run<X>(
        &mut self,
        (level, path): (usize, [u8; 4]),
        run: &mut Peekable<impl Iterator<Item = (Prefix, X)>>,
        len: &mut usize,
        vacant: &impl Fn() -> T,
        f: &mut impl FnMut(&mut T, Prefix, X),
        keep: &impl Fn(&T) -> bool,
    ) {
        while let Some(&(prefix, _)) = run.peek() {
            let (at, slot) = locate(prefix);
            let octets = prefix.addr().octets();
            if at < level || octets[..level] != path[..level] {
                return;
            }
            if at == level {
                let Some((_, x)) = run.next() else { return };
                self.edit_here(slot, len, vacant, |value| f(value, prefix, x), keep);
                continue;
            }
            let octet = octets[level] as usize;
            let rank = self.branches.rank(octet).unwrap_or_else(|rank| {
                self.branches.insert(octet);
                self.children.insert(rank, Node::EMPTY);
                rank
            });
            let below = (level + 1, octets);
            self.children[rank].edit_run(below, run, len, vacant, f, keep);
            if self.children[rank].is_empty() {
                self.branches.remove(octet);
                self.children.remove(rank);
            }
        }
    }

    /// Nodes in this subtree, this one included.
    fn count(&self) -> usize {
        1 + self.children.iter().map(Node::count).sum::<usize>()
    }

    /// Appends the values of this subtree in prefix order. The node is at
    /// `level`, and `path` is its address (the octets above it).
    fn collect<'a>(&'a self, level: usize, path: u32, out: &mut Vec<(Prefix, &'a T)>) {
        let shift = 24 - 8 * level;
        let at = |octet: usize, len: usize| {
            Prefix::new(
                Ipv4Addr(path | (octet as u32) << shift),
                (8 * level + len) as u8,
            )
        };
        // Slot order is length-major; prefix order is address-major.
        let mut own: Vec<(Prefix, usize)> = self
            .prefixes
            .iter()
            .enumerate()
            .map(|(rank, slot)| {
                let l = slot.ilog2() as usize;
                (at((slot - (1 << l)) << (8 - l), l), rank)
            })
            .collect();
        own.sort_unstable_by_key(|&(p, _)| p);
        let mut own = own.into_iter().peekable();
        for (octet, child) in self.branches.iter().zip(&self.children) {
            let below = at(octet, 8);
            // A prefix kept here starting at or before `below` sorts before
            // everything under it, which is longer.
            while let Some((p, rank)) = own.next_if(|&(p, _)| p <= below) {
                out.push((p, &self.values[rank]));
            }
            child.collect(level + 1, below.addr().0, out);
        }
        out.extend(own.map(|(p, rank)| (p, &self.values[rank])));
    }
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            root: Node::EMPTY,
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let (level, slot) = locate(prefix);
        let node = self.root.reach_or_insert(&prefix.addr().octets()[..level]);
        match node.prefixes.rank(slot) {
            Ok(rank) => Some(std::mem::replace(&mut node.values[rank], value)),
            Err(rank) => {
                node.prefixes.insert(slot);
                node.values.insert(rank, value);
                self.len += 1;
                None
            }
        }
    }

    /// Returns the value stored at exactly `prefix`, if any.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        let (level, slot) = locate(prefix);
        self.root
            .reach(&prefix.addr().octets()[..level])?
            .value(slot)
    }

    /// Mutable variant of [`get`](Self::get).
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut T> {
        let (level, slot) = locate(prefix);
        let node = self.root.reach_mut(&prefix.addr().octets()[..level])?;
        let rank = node.prefixes.rank(slot).ok()?;
        Some(&mut node.values[rank])
    }

    /// Returns the entry for `prefix`, inserting `default()` if absent.
    pub fn get_or_insert_with(&mut self, prefix: Prefix, default: impl FnOnce() -> T) -> &mut T {
        let (level, slot) = locate(prefix);
        let node = self.root.reach_or_insert(&prefix.addr().octets()[..level]);
        let rank = node.prefixes.rank(slot).unwrap_or_else(|rank| {
            node.prefixes.insert(slot);
            node.values.insert(rank, default());
            self.len += 1;
            rank
        });
        &mut node.values[rank]
    }

    /// Runs `f` on the value at exactly `prefix` — on `vacant()` if there
    /// is none — and keeps what `f` leaves only if `keep` holds for it: a
    /// new value is inserted, an existing one that fails it removed (and
    /// the nodes that leaves empty pruned). One walk of the trie, however
    /// it ends. Returns what `f` returns.
    pub fn edit<R>(
        &mut self,
        prefix: Prefix,
        vacant: impl FnOnce() -> T,
        f: impl FnOnce(&mut T) -> R,
        keep: impl FnOnce(&T) -> bool,
    ) -> R {
        let (level, slot) = locate(prefix);
        let path = prefix.addr().octets();
        (self.root).edit(&path[..level], slot, &mut self.len, vacant, f, keep)
    }

    /// [`edit`](Self::edit) at each prefix of `run` in turn — `f` also
    /// given the prefix and the item's payload — in one ordered walk: a
    /// node is entered once per stretch of the run kept below it, not once
    /// per prefix, so a run that names each prefix once, in prefix order,
    /// descends from the root once per node it reaches.
    pub fn edit_run<X>(
        &mut self,
        run: impl IntoIterator<Item = (Prefix, X)>,
        vacant: impl Fn() -> T,
        mut f: impl FnMut(&mut T, Prefix, X),
        keep: impl Fn(&T) -> bool,
    ) {
        let mut run = run.into_iter().peekable();
        let root = (0, [0; 4]);
        (self.root).edit_run(root, &mut run, &mut self.len, &vacant, &mut f, &keep);
    }

    /// Removes the value at exactly `prefix`, pruning now-empty nodes.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let (level, slot) = locate(prefix);
        let out = self.root.remove(&prefix.addr().octets()[..level], slot);
        self.len -= usize::from(out.is_some());
        out
    }

    /// Longest-prefix match: the most specific stored prefix containing
    /// `addr`, together with its value.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Prefix, &T)> {
        self.lookup_map(addr, Some)
    }

    /// Longest-prefix match among the stored values `f` answers for: the
    /// most specific stored prefix containing `addr` whose value `f` maps
    /// to `Some`, with that answer — the lookup of a table whose entries
    /// are visible to some readers and not to others.
    ///
    /// Like [`lookup`](Self::lookup) it walks down at most four nodes, then
    /// offers `f` the values of the prefixes containing `addr` from the
    /// most specific down, and stops at its first `Some`. So `f` should be
    /// a pure filter: it sees only the values up to the answer, most
    /// specific first.
    pub fn lookup_map<'a, U>(
        &'a self,
        addr: Ipv4Addr,
        mut f: impl FnMut(&'a T) -> Option<U>,
    ) -> Option<(Prefix, U)> {
        let octets = addr.octets();
        let mut path = [&self.root; 4];
        let mut depth = 1;
        while depth < 4 {
            match path[depth - 1].child(octets[depth - 1]) {
                Some(child) => path[depth] = child,
                None => break,
            }
            depth += 1;
        }
        for level in (0..depth).rev() {
            let node = path[level];
            if node.values.is_empty() {
                continue;
            }
            for l in (0..=8).rev() {
                if let Some(u) = node.value(slot(l, octets[level])).and_then(&mut f) {
                    return Some((Prefix::new(addr, (8 * level + l) as u8), u));
                }
            }
        }
        None
    }

    /// Approximate bytes the trie itself takes: the `size_of` of each of
    /// its nodes, and of each stored value (not what a value owns).
    pub fn approx_bytes(&self) -> usize {
        self.root.count() * std::mem::size_of::<Node<T>>() + self.len * std::mem::size_of::<T>()
    }

    /// Iterates over `(prefix, &value)` pairs in lexicographic prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> {
        let mut out = Vec::with_capacity(self.len);
        self.root.collect(0, 0, &mut out);
        out.into_iter()
    }

    /// Iterates over stored prefixes in lexicographic order.
    pub fn keys(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.iter().map(|(p, _)| p)
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        *self = Self::new();
    }
}

/// Prints `{prefix: value}` in prefix order, as a map would.
impl<T: fmt::Debug> fmt::Debug for PrefixTrie<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> FromIterator<(Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::{ip, prefix};

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(prefix("10.0.0.0/8"), "a"), None);
        assert_eq!(t.insert(prefix("10.0.0.0/8"), "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(prefix("10.0.0.0/8")), Some(&"b"));
        assert_eq!(t.get(prefix("10.0.0.0/16")), None);
        assert_eq!(t.remove(prefix("10.0.0.0/8")), Some("b"));
        assert_eq!(t.remove(prefix("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn default_route_lives_at_the_root() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::DEFAULT_ROUTE, 0);
        assert_eq!(t.get(Prefix::DEFAULT_ROUTE), Some(&0));
        assert_eq!(t.lookup(ip("8.8.8.8")).unwrap().1, &0);
        assert_eq!(t.remove(Prefix::DEFAULT_ROUTE), Some(0));
    }

    #[test]
    fn longest_prefix_match_prefers_specific() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("0.0.0.0/0"), "default");
        t.insert(prefix("10.0.0.0/8"), "eight");
        t.insert(prefix("10.1.0.0/16"), "sixteen");
        assert_eq!(t.lookup(ip("10.1.2.3")).unwrap().1, &"sixteen");
        assert_eq!(t.lookup(ip("10.9.2.3")).unwrap().1, &"eight");
        assert_eq!(t.lookup(ip("11.0.0.1")).unwrap().1, &"default");
        assert_eq!(t.lookup(ip("10.1.2.3")).unwrap().0, prefix("10.1.0.0/16"));
    }

    #[test]
    fn lookup_misses_when_nothing_covers() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("10.0.0.0/8"), ());
        assert!(t.lookup(ip("11.0.0.1")).is_none());
    }

    #[test]
    fn host_route_lookup() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("1.2.3.4/32"), "host");
        t.insert(prefix("1.2.3.0/24"), "net");
        assert_eq!(t.lookup(ip("1.2.3.4")).unwrap().1, &"host");
        assert_eq!(t.lookup(ip("1.2.3.5")).unwrap().1, &"net");
    }

    #[test]
    fn lookup_map_skips_what_f_refuses() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("10.0.0.0/8"), 8);
        t.insert(prefix("10.1.0.0/16"), 16);
        t.insert(prefix("10.1.2.0/24"), 24);
        let mut offered = Vec::new();
        let got = t.lookup_map(ip("10.1.2.3"), |&v| {
            offered.push(v);
            (v < 24).then_some(v)
        });
        assert_eq!(got, Some((prefix("10.1.0.0/16"), 16)));
        assert_eq!(
            offered,
            vec![24, 16],
            "most specific first, up to the answer"
        );
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let ps = [
            prefix("10.0.0.0/8"),
            prefix("0.0.0.0/0"),
            prefix("10.128.0.0/9"),
            prefix("192.168.0.0/16"),
            prefix("10.0.0.0/32"),
        ];
        let t: PrefixTrie<usize> = ps.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let keys: Vec<_> = t.keys().collect();
        let mut sorted = ps.to_vec();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn get_or_insert_with_counts_once() {
        let mut t: PrefixTrie<Vec<u32>> = PrefixTrie::new();
        t.get_or_insert_with(prefix("10.0.0.0/8"), Vec::new).push(1);
        t.get_or_insert_with(prefix("10.0.0.0/8"), Vec::new).push(2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(prefix("10.0.0.0/8")), Some(&vec![1, 2]));
    }

    #[test]
    fn one_node_per_octet_on_the_path() {
        let mut t: PrefixTrie<()> = PrefixTrie::new();
        assert_eq!(t.root.count(), 1, "empty trie is just the root");
        t.insert(prefix("128.0.0.0/1"), ());
        t.insert(prefix("128.0.0.0/8"), ());
        assert_eq!(t.root.count(), 1, "/1 to /8 live in the root");
        t.insert(prefix("128.0.0.0/9"), ());
        assert_eq!(t.root.count(), 2);
        t.insert(prefix("128.0.0.0/32"), ());
        assert_eq!(t.root.count(), 4, "a host route is three octets down");
        t.insert(prefix("128.0.0.128/25"), ());
        assert_eq!(t.root.count(), 4, "/25 to /32 share the last node");
        t.remove(prefix("128.0.0.0/32"));
        assert_eq!(t.root.count(), 4, "the /25 keeps the path");
        t.remove(prefix("128.0.0.128/25"));
        assert_eq!(t.root.count(), 2, "pruning frees nodes");
        let node = std::mem::size_of::<Node<()>>();
        assert_eq!(t.approx_bytes(), 2 * node);
    }

    #[test]
    fn remove_prunes_branches() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("10.1.2.0/24"), ());
        t.insert(prefix("10.1.2.3/32"), ());
        t.remove(prefix("10.1.2.3/32"));
        t.remove(prefix("10.1.2.0/24"));
        // After pruning, the trie is the empty one, node for node.
        assert_eq!(t, PrefixTrie::new());
        assert!(t.root.is_empty());
    }

    #[test]
    fn ranks_cross_bitmap_words() {
        // /24s under one /16 fill all four words of the last presence
        // quarter, and one child per octet fills every child word.
        let mut t = PrefixTrie::new();
        for c in (0..=255u8).rev() {
            t.insert(Prefix::new(Ipv4Addr::new(10, 1, c, 0), 24), c);
            t.insert(Prefix::new(Ipv4Addr::new(10, 1, c, 1), 32), c);
        }
        for c in 0..=255u8 {
            let addr = Ipv4Addr::new(10, 1, c, 7);
            assert_eq!(t.lookup(addr), Some((Prefix::new(addr, 24), &c)));
            let host = Ipv4Addr::new(10, 1, c, 1);
            assert_eq!(t.lookup(host), Some((Prefix::host(host), &c)));
        }
        assert_eq!(t.len(), 512);
        assert_eq!(t.root.count(), 3 + 256);
    }

    #[test]
    fn debug_prints_a_map() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("10.1.0.0/16"), 2);
        t.insert(prefix("10.0.0.0/8"), 1);
        assert_eq!(format!("{t:?}"), "{10.0.0.0/8: 1, 10.1.0.0/16: 2}");
    }
}
