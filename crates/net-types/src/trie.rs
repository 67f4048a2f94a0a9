//! A binary prefix trie: the backing store for RIBs and FIBs.
//!
//! Supports the three operations interdomain routing needs:
//! exact-prefix insert/remove/get (BGP announcements and withdrawals are
//! keyed by exact prefix), longest-prefix match (data-plane lookup in the
//! border-router model), and ordered iteration (deterministic RIB dumps,
//! which keep every experiment reproducible).
//!
//! The structure is a straightforward path-compressed-free binary trie —
//! one node per bit — which is simple, obviously correct, and plenty fast
//! for the ~25k-prefix workloads the paper's experiments sweep. Correctness
//! is cross-checked against a linear scan by property tests.

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
#[derive(Clone, PartialEq, Debug)]
pub struct PrefixTrie<T> {
    root: Node<T>,
    len: usize,
}

#[derive(Clone, PartialEq, Debug)]
struct Node<T> {
    value: Option<T>,
    children: [Option<Box<Node<T>>>; 2],
}

impl<T> Node<T> {
    fn new() -> Self {
        Node {
            value: None,
            children: [None, None],
        }
    }

    fn is_empty_leaf(&self) -> bool {
        self.value.is_none() && self.children[0].is_none() && self.children[1].is_none()
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
            root: Node::new(),
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
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = prefix.addr().bit(i) as usize;
            node = node.children[b].get_or_insert_with(|| Box::new(Node::new()));
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Returns the value stored at exactly `prefix`, if any.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        let mut node = &self.root;
        for i in 0..prefix.len() {
            let b = prefix.addr().bit(i) as usize;
            node = node.children[b].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Mutable variant of [`get`](Self::get).
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut T> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = prefix.addr().bit(i) as usize;
            node = node.children[b].as_deref_mut()?;
        }
        node.value.as_mut()
    }

    /// Returns the entry for `prefix`, inserting `default()` if absent.
    pub fn get_or_insert_with(&mut self, prefix: Prefix, default: impl FnOnce() -> T) -> &mut T {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = prefix.addr().bit(i) as usize;
            node = node.children[b].get_or_insert_with(|| Box::new(Node::new()));
        }
        if node.value.is_none() {
            node.value = Some(default());
            self.len += 1;
        }
        node.value.as_mut().expect("just inserted")
    }

    /// Removes the value at exactly `prefix`, pruning now-empty branches.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        fn rec<T>(node: &mut Node<T>, prefix: Prefix, depth: u8) -> Option<T> {
            if depth == prefix.len() {
                return node.value.take();
            }
            let b = prefix.addr().bit(depth) as usize;
            let child = node.children[b].as_deref_mut()?;
            let out = rec(child, prefix, depth + 1);
            if child.is_empty_leaf() {
                node.children[b] = None;
            }
            out
        }
        let out = rec(&mut self.root, prefix, 0);
        if out.is_some() {
            self.len -= 1;
        }
        out
    }

    /// Longest-prefix match: the most specific stored prefix containing
    /// `addr`, together with its value.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Prefix, &T)> {
        self.lookup_map(addr, Some)
    }

    /// Longest-prefix match among the stored values `f` answers for: the
    /// most specific stored prefix containing `addr` whose value `f` maps
    /// to `Some`, with that answer. One root-to-leaf walk, like
    /// [`lookup`](Self::lookup) — the lookup of a table whose entries are
    /// visible to some readers and not to others.
    pub fn lookup_map<'a, U>(
        &'a self,
        addr: Ipv4Addr,
        mut f: impl FnMut(&'a T) -> Option<U>,
    ) -> Option<(Prefix, U)> {
        let mut node = &self.root;
        let mut best: Option<(u8, U)> = None;
        for i in 0..=32u8 {
            if let Some(u) = node.value.as_ref().and_then(&mut f) {
                best = Some((i, u));
            }
            if i == 32 {
                break;
            }
            match node.children[addr.bit(i) as usize].as_deref() {
                Some(child) => node = child,
                None => break,
            }
        }
        best.map(|(len, u)| (Prefix::new(addr, len), u))
    }

    /// Visits **every** stored value whose prefix contains `addr`, from the
    /// least specific (the default route, if stored) to the most specific.
    ///
    /// Where [`lookup`](Self::lookup) answers "which single prefix wins
    /// longest-match", this answers "which prefixes are in play at all" —
    /// the question a priority-ordered matcher asks, where rule priority
    /// (not prefix length) decides the winner among covering prefixes.
    /// Walks the same root-to-leaf bit path as `lookup`, so it allocates
    /// nothing and does at most 33 node visits.
    pub fn for_each_match(&self, addr: Ipv4Addr, mut f: impl FnMut(&T)) {
        let mut node = &self.root;
        for i in 0..=32u8 {
            if let Some(v) = node.value.as_ref() {
                f(v);
            }
            if i == 32 {
                break;
            }
            match node.children[addr.bit(i) as usize].as_deref() {
                Some(child) => node = child,
                None => break,
            }
        }
    }

    /// Number of allocated trie nodes (including the root and interior
    /// nodes holding no value). A capacity metric for memory accounting:
    /// each node is one `Node<T>` allocation.
    pub fn node_count(&self) -> usize {
        fn rec<T>(node: &Node<T>) -> usize {
            1 + node
                .children
                .iter()
                .flatten()
                .map(|c| rec(c))
                .sum::<usize>()
        }
        rec(&self.root)
    }

    /// All stored prefixes covered by `covering` (including an exact match),
    /// in lexicographic order.
    pub fn covered_by(&self, covering: Prefix) -> Vec<(Prefix, &T)> {
        // Walk down to the covering prefix's node, then collect its subtree.
        let mut node = &self.root;
        for i in 0..covering.len() {
            match node.children[covering.addr().bit(i) as usize].as_deref() {
                Some(child) => node = child,
                None => return Vec::new(),
            }
        }
        let mut out = Vec::new();
        collect(node, covering, &mut out);
        out
    }

    /// Iterates over `(prefix, &value)` pairs in lexicographic prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> {
        let mut out = Vec::with_capacity(self.len);
        collect(&self.root, Prefix::DEFAULT_ROUTE, &mut out);
        out.into_iter()
    }

    /// Iterates over stored prefixes in lexicographic order.
    pub fn keys(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.iter().map(|(p, _)| p)
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.root = Node::new();
        self.len = 0;
    }
}

fn collect<'a, T>(node: &'a Node<T>, at: Prefix, out: &mut Vec<(Prefix, &'a T)>) {
    if let Some(v) = node.value.as_ref() {
        out.push((at, v));
    }
    if let Some((l, r)) = at.children() {
        if let Some(c) = node.children[0].as_deref() {
            collect(c, l, out);
        }
        if let Some(c) = node.children[1].as_deref() {
            collect(c, r, out);
        }
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
    fn covered_by_returns_subtree() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("10.0.0.0/8"), 1);
        t.insert(prefix("10.1.0.0/16"), 2);
        t.insert(prefix("10.1.2.0/24"), 3);
        t.insert(prefix("11.0.0.0/8"), 4);
        let covered: Vec<_> = t
            .covered_by(prefix("10.1.0.0/16"))
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert_eq!(covered, vec![prefix("10.1.0.0/16"), prefix("10.1.2.0/24")]);
        assert!(t.covered_by(prefix("12.0.0.0/8")).is_empty());
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
    fn for_each_match_visits_all_covering_prefixes() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("0.0.0.0/0"), "default");
        t.insert(prefix("10.0.0.0/8"), "eight");
        t.insert(prefix("10.1.0.0/16"), "sixteen");
        t.insert(prefix("11.0.0.0/8"), "other");
        let mut seen = Vec::new();
        t.for_each_match(ip("10.1.2.3"), |v| seen.push(*v));
        assert_eq!(seen, vec!["default", "eight", "sixteen"]);
        seen.clear();
        t.for_each_match(ip("12.0.0.1"), |v| seen.push(*v));
        assert_eq!(seen, vec!["default"]);
    }

    #[test]
    fn node_count_tracks_allocations() {
        let mut t: PrefixTrie<()> = PrefixTrie::new();
        assert_eq!(t.node_count(), 1, "empty trie is just the root");
        t.insert(prefix("128.0.0.0/1"), ());
        assert_eq!(t.node_count(), 2);
        t.insert(prefix("128.0.0.0/2"), ());
        assert_eq!(t.node_count(), 3);
        t.remove(prefix("128.0.0.0/2"));
        assert_eq!(t.node_count(), 2, "pruning frees nodes");
    }

    #[test]
    fn remove_prunes_branches() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("10.1.2.0/24"), ());
        t.remove(prefix("10.1.2.0/24"));
        // After pruning, the root must be an empty leaf again.
        assert!(t.root.is_empty_leaf());
    }
}
