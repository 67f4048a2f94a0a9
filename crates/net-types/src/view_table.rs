//! One prefix-major table read by many viewers: a base value per prefix
//! plus the few per-viewer exceptions.
//!
//! A route server advertises almost every prefix identically to almost
//! every peer, and the peers' border routers end up with almost identical
//! FIBs. Materialising one table per viewer stores viewers × prefixes
//! values to represent what is, per prefix, one value and a handful of
//! deviations. [`ViewTable`] stores exactly that: per prefix a **base** —
//! what a subscribed viewer with nothing of its own sees — and a sorted
//! list of **slots**, one per viewer that sees something else (another
//! value, or nothing). Exact-prefix reads, longest-prefix match and
//! ordered iteration are all "the base as amended by the viewer's own
//! slot", answered in one walk of one trie.
//!
//! Every mutation is a [`Write`], and [`ViewTable::apply`] returns the
//! write that undoes it — the previous value moved out, never copied — so
//! a transaction log over the table is a list of writes replayed
//! backwards. [`ViewTable::apply`] stores what it is told; the reconciling
//! writes ([`ViewTable::write_base`], [`ViewTable::write_run`]) decide
//! whether a viewer's value is worth a slot (it differs from the base)
//! and write it in the same walk of the trie, handing back each inverse.

use std::fmt;
use std::hash::Hash;

use crate::hash::WordSet;

use crate::ipv4::{Ipv4Addr, Prefix};
use crate::trie::PrefixTrie;

/// What one viewer's own slot at a prefix holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Slot<V> {
    /// Nothing of its own: a subscriber sees the prefix's base.
    Inherit,
    /// The prefix is withheld from this viewer, whatever the base is.
    Withheld,
    /// The viewer sees this value instead of the base.
    Own(V),
}

impl<V> Slot<V> {
    /// The slot with its own value, if it has one, passed through `f`.
    pub fn map<U>(self, f: impl FnOnce(V) -> U) -> Slot<U> {
        match self {
            Slot::Inherit => Slot::Inherit,
            Slot::Withheld => Slot::Withheld,
            Slot::Own(v) => Slot::Own(f(v)),
        }
    }

    /// As an entry keeps it: no slot, a slot holding nothing, a value.
    fn stored(self) -> Option<Option<V>> {
        match self {
            Slot::Inherit => None,
            Slot::Withheld => Some(None),
            Slot::Own(v) => Some(Some(v)),
        }
    }

    fn of(stored: Option<Option<V>>) -> Self {
        match stored {
            None => Slot::Inherit,
            Some(None) => Slot::Withheld,
            Some(Some(v)) => Slot::Own(v),
        }
    }
}

/// One mutation of a [`ViewTable`]. Applying a write returns its inverse.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Write<K, V> {
    /// Sets (or, with `None`, clears) the base of `prefix`.
    Base {
        /// The prefix written.
        prefix: Prefix,
        /// Its new base.
        value: Option<V>,
    },
    /// Sets `viewer`'s own slot at `prefix`.
    Slot {
        /// Whose slot.
        viewer: K,
        /// The prefix written.
        prefix: Prefix,
        /// Its new content.
        slot: Slot<V>,
    },
    /// Starts or stops `viewer` seeing the bases. Its own slots stay.
    Subscription {
        /// Whose subscription.
        viewer: K,
        /// Whether it sees the bases from now on.
        subscribed: bool,
    },
}

#[derive(Clone, PartialEq, Debug)]
struct Entry<K, V> {
    base: Option<V>,
    /// Sorted by viewer; `None` is [`Slot::Withheld`].
    slots: Vec<(K, Option<V>)>,
}

impl<K: Ord + Copy, V> Entry<K, V> {
    fn new() -> Self {
        Entry {
            base: None,
            slots: Vec::new(),
        }
    }

    fn position(&self, viewer: K) -> Result<usize, usize> {
        self.slots.binary_search_by(|(k, _)| k.cmp(&viewer))
    }

    fn slot(&self, viewer: K) -> Slot<&V> {
        Slot::of(self.position(viewer).ok().map(|i| self.slots[i].1.as_ref()))
    }

    fn seen_by(&self, viewer: K, subscribed: bool) -> Option<&V> {
        match self.position(viewer) {
            Ok(i) => self.slots[i].1.as_ref(),
            Err(_) if subscribed => self.base.as_ref(),
            Err(_) => None,
        }
    }

    /// Whether the entry holds anything: one that does not is pruned.
    fn says_something(&self) -> bool {
        self.base.is_some() || !self.slots.is_empty()
    }

    /// Puts `slot` in `viewer`'s place and returns what was there.
    fn set_slot(&mut self, viewer: K, slot: Slot<V>) -> Slot<V> {
        Slot::of(match (self.position(viewer), slot.stored()) {
            (Ok(i), Some(own)) => Some(std::mem::replace(&mut self.slots[i].1, own)),
            (Ok(i), None) => Some(self.slots.remove(i).1),
            (Err(i), Some(own)) => {
                self.slots.insert(i, (viewer, own));
                None
            }
            (Err(_), None) => None,
        })
    }

    /// The slot after which a subscribed viewer sees `want` with the
    /// least stored: none where the base already shows it `want`.
    fn wanted<'w, W>(&self, want: Option<&'w W>, same: impl Fn(&V, &W) -> bool) -> Slot<&'w W> {
        match (want, &self.base) {
            (Some(want), Some(base)) if same(base, want) => Slot::Inherit,
            (Some(want), _) => Slot::Own(want),
            (None, Some(_)) => Slot::Withheld,
            (None, None) => Slot::Inherit,
        }
    }

    /// Whether `viewer`'s slot already is `slot`.
    fn holds<W>(&self, viewer: K, slot: Slot<&W>, same: impl Fn(&V, &W) -> bool) -> bool {
        match (self.slot(viewer), slot) {
            (Slot::Inherit, Slot::Inherit) | (Slot::Withheld, Slot::Withheld) => true,
            (Slot::Own(have), Slot::Own(want)) => same(have, want),
            _ => false,
        }
    }

    /// Makes `slot` `viewer`'s unless it already is, keeping the table's
    /// slot count, and hands what it replaced to `undo`. Returns whether
    /// it wrote.
    fn write_slot<W>(
        &mut self,
        viewer: K,
        slot: Slot<&W>,
        same: impl Fn(&V, &W) -> bool,
        build: impl Fn(&W) -> V,
        undo: impl FnOnce(Slot<V>),
        slots: &mut usize,
    ) -> bool {
        if self.holds(viewer, slot, same) {
            return false;
        }
        let previous = self.set_slot(viewer, slot.map(build));
        *slots = *slots + stored(&slot) - stored(&previous);
        undo(previous);
        true
    }
}

/// 1 for a slot an entry stores, 0 for [`Slot::Inherit`].
fn stored<V>(slot: &Slot<V>) -> usize {
    usize::from(!matches!(slot, Slot::Inherit))
}

/// A prefix → value table with per-viewer exceptions (see the module
/// documentation).
///
/// ```
/// use sdx_net::{ip, prefix, Slot, ViewTable, Write};
///
/// let mut t: ViewTable<u8, &str> = ViewTable::new();
/// for viewer in [1, 2] {
///     t.apply(Write::Subscription { viewer, subscribed: true });
/// }
/// t.apply(Write::Base { prefix: prefix("10.0.0.0/8"), value: Some("best") });
/// t.apply(Write::Slot { viewer: 2, prefix: prefix("10.0.0.0/8"), slot: Slot::Own("tagged") });
/// assert_eq!(t.lookup(1, ip("10.1.2.3")).unwrap().1, &"best");
/// assert_eq!(t.lookup(2, ip("10.1.2.3")).unwrap().1, &"tagged");
/// assert!(t.lookup(3, ip("10.1.2.3")).is_none(), "not subscribed");
/// assert_eq!(t.stored(), 2, "one base, one exception");
/// ```
#[derive(Clone, Debug)]
pub struct ViewTable<K, V> {
    /// Hashed: every read asks whether its viewer is subscribed.
    subscribers: WordSet<K>,
    entries: PrefixTrie<Entry<K, V>>,
    bases: usize,
    slots: usize,
}

impl<K: Eq + Hash, V: PartialEq> PartialEq for ViewTable<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.subscribers == other.subscribers
            && self.entries == other.entries
            && (self.bases, self.slots) == (other.bases, other.slots)
    }
}

impl<K, V> Default for ViewTable<K, V> {
    fn default() -> Self {
        ViewTable {
            subscribers: WordSet::default(),
            entries: PrefixTrie::new(),
            bases: 0,
            slots: 0,
        }
    }
}

impl<K: Ord + Hash + Copy, V> ViewTable<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the table holds nothing: no subscriber, base or slot.
    pub fn is_empty(&self) -> bool {
        self.subscribers.is_empty() && self.entries.is_empty()
    }

    /// Values stored: bases plus slots. What a materialised table per
    /// viewer would spend `viewers × prefixes` on.
    pub fn stored(&self) -> usize {
        self.bases + self.slots
    }

    /// The prefixes with a base or a slot, in prefix order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.entries.keys()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Whether `viewer` sees the bases.
    pub fn is_subscribed(&self, viewer: K) -> bool {
        self.subscribers.contains(&viewer)
    }

    /// The subscribed viewers, in order. Sorts them: for the rare
    /// caller that walks them all, not for a read.
    pub fn subscribers(&self) -> impl Iterator<Item = K> {
        let mut viewers: Vec<K> = self.subscribers.iter().copied().collect();
        viewers.sort_unstable();
        viewers.into_iter()
    }

    /// The base of `prefix`, if it has one.
    pub fn base(&self, prefix: Prefix) -> Option<&V> {
        self.entries.get(prefix)?.base.as_ref()
    }

    /// `viewer`'s own slot at `prefix`.
    pub fn slot(&self, viewer: K, prefix: Prefix) -> Slot<&V> {
        self.entries
            .get(prefix)
            .map_or(Slot::Inherit, |e| e.slot(viewer))
    }

    /// The viewers holding a slot of their own at `prefix`, in order.
    pub fn holders(&self, prefix: Prefix) -> impl Iterator<Item = K> + '_ {
        self.entries
            .get(prefix)
            .into_iter()
            .flat_map(|e| e.slots.iter().map(|(k, _)| *k))
    }

    /// The writes after which `viewer` sees nothing: each slot it holds
    /// dropped, its subscription ended. A scan of the table, for the rare
    /// departure of a viewer.
    pub fn forget(&self, viewer: K) -> Vec<Write<K, V>> {
        let slots = self
            .entries
            .iter()
            .filter(|(_, e)| e.position(viewer).is_ok());
        slots
            .map(|(prefix, _)| Write::Slot {
                viewer,
                prefix,
                slot: Slot::Inherit,
            })
            .chain([Write::Subscription {
                viewer,
                subscribed: false,
            }])
            .collect()
    }

    /// What `viewer` sees at exactly `prefix`.
    pub fn get(&self, viewer: K, prefix: Prefix) -> Option<&V> {
        self.entries
            .get(prefix)?
            .seen_by(viewer, self.is_subscribed(viewer))
    }

    /// Longest-prefix match over what `viewer` sees: a prefix withheld
    /// from it does not shadow a less specific one it does see.
    pub fn lookup(&self, viewer: K, addr: Ipv4Addr) -> Option<(Prefix, &V)> {
        let subscribed = self.is_subscribed(viewer);
        self.entries
            .lookup_map(addr, |e| e.seen_by(viewer, subscribed))
    }

    /// The write, if one is needed, that makes `want` the base of
    /// `prefix`.
    ///
    /// `want` is the value in whatever form the writer has it: `same`
    /// compares it with a stored value without building one, and `build`
    /// builds it only if it has to be stored.
    pub fn reconcile_base<W>(
        &self,
        prefix: Prefix,
        want: Option<W>,
        same: impl Fn(&V, &W) -> bool,
        build: impl FnOnce(W) -> V,
    ) -> Option<Write<K, V>> {
        match (self.base(prefix), want) {
            (None, None) => None,
            (Some(have), Some(want)) if same(have, &want) => None,
            (_, want) => Some(Write::Base {
                prefix,
                value: want.map(build),
            }),
        }
    }

    /// The write, if one is needed, after which a subscribed `viewer`
    /// sees `want` at `prefix` with the least stored: no slot of its own
    /// where the base already shows it `want`, a slot where it does not.
    /// `want`, `same` and `build` as for
    /// [`reconcile_base`](Self::reconcile_base).
    pub fn reconcile_slot<W>(
        &self,
        viewer: K,
        prefix: Prefix,
        want: Option<W>,
        same: impl Fn(&V, &W) -> bool,
        build: impl FnOnce(W) -> V,
    ) -> Option<Write<K, V>> {
        let entry = self.entries.get(prefix);
        let base = entry.and_then(|e| e.base.as_ref());
        let slot = match want {
            Some(want) if base.is_some_and(|base| same(base, &want)) => Slot::Inherit,
            Some(want) => Slot::Own(want),
            None if base.is_some() => Slot::Withheld,
            None => Slot::Inherit,
        };
        let held = entry.map_or(Slot::Inherit, |e| e.slot(viewer));
        let unchanged = match (held, &slot) {
            (Slot::Inherit, Slot::Inherit) | (Slot::Withheld, Slot::Withheld) => true,
            (Slot::Own(have), Slot::Own(want)) => same(have, want),
            _ => false,
        };
        (!unchanged).then(|| Write::Slot {
            viewer,
            prefix,
            slot: slot.map(build),
        })
    }

    /// Makes the write [`reconcile_base`](Self::reconcile_base) would
    /// plan, in one walk of the trie, and hands its inverse to `undo`.
    /// Returns whether it wrote.
    pub fn write_base<W>(
        &mut self,
        prefix: Prefix,
        want: Option<W>,
        same: impl Fn(&V, &W) -> bool,
        build: impl FnOnce(W) -> V,
        undo: impl FnOnce(Write<K, V>),
    ) -> bool {
        let bases = &mut self.bases;
        let write = |e: &mut Entry<K, V>| {
            let unchanged = match (&e.base, &want) {
                (None, None) => true,
                (Some(have), Some(want)) => same(have, want),
                _ => false,
            };
            if unchanged {
                return false;
            }
            let value = want.map(build);
            *bases += usize::from(value.is_some());
            let previous = std::mem::replace(&mut e.base, value);
            *bases -= usize::from(previous.is_some());
            undo(Write::Base {
                prefix,
                value: previous,
            });
            true
        };
        (self.entries).edit(prefix, Entry::new, write, Entry::says_something)
    }

    /// Makes, at each prefix of `run` in turn, the write
    /// [`reconcile_slot`](Self::reconcile_slot) would plan for `viewer`,
    /// and hands each write's inverse to `undo` in the order written, all
    /// in one ordered walk of the trie ([`PrefixTrie::edit_run`]) —
    /// cheapest for a run in prefix order. `build` runs once per prefix
    /// where the viewer needs a value of its own. Returns how many writes
    /// it made.
    pub fn write_run<W>(
        &mut self,
        viewer: K,
        run: impl IntoIterator<Item = (Prefix, Option<W>)>,
        same: impl Fn(&V, &W) -> bool,
        build: impl Fn(&W) -> V,
        mut undo: impl FnMut(Write<K, V>),
    ) -> usize {
        let slots = &mut self.slots;
        let mut writes = 0;
        let write = |e: &mut Entry<K, V>, prefix, want: Option<W>| {
            let slot = e.wanted(want.as_ref(), &same);
            let undo = |slot| {
                undo(Write::Slot {
                    viewer,
                    prefix,
                    slot,
                })
            };
            writes += usize::from(e.write_slot(viewer, slot, &same, &build, undo, slots));
        };
        (self.entries).edit_run(run, Entry::new, write, Entry::says_something);
        writes
    }

    /// `viewer`'s side of the table.
    pub fn view(&self, viewer: K) -> View<'_, K, V> {
        View {
            table: self,
            viewer,
        }
    }

    /// Performs `write` and returns the write that undoes it: the table
    /// afterwards equals the table before, trie structure included.
    pub fn apply(&mut self, write: Write<K, V>) -> Write<K, V> {
        match write {
            Write::Subscription { viewer, subscribed } => {
                let was = if subscribed {
                    !self.subscribers.insert(viewer)
                } else {
                    self.subscribers.remove(&viewer)
                };
                Write::Subscription {
                    viewer,
                    subscribed: was,
                }
            }
            Write::Base { prefix, value } => {
                let set = usize::from(value.is_some());
                let previous = self.edit(prefix, |e| std::mem::replace(&mut e.base, value));
                self.bases = self.bases + set - usize::from(previous.is_some());
                Write::Base {
                    prefix,
                    value: previous,
                }
            }
            Write::Slot {
                viewer,
                prefix,
                slot,
            } => {
                let set = stored(&slot);
                let previous = self.edit(prefix, |e| e.set_slot(viewer, slot));
                self.slots = self.slots + set - stored(&previous);
                Write::Slot {
                    viewer,
                    prefix,
                    slot: previous,
                }
            }
        }
    }

    /// Runs `f` on `prefix`'s entry — an empty one if there is none — in
    /// one walk, keeping the entry only if that leaves it saying something.
    fn edit<R>(&mut self, prefix: Prefix, f: impl FnOnce(&mut Entry<K, V>) -> R) -> R {
        (self.entries).edit(prefix, Entry::new, f, Entry::says_something)
    }
}

/// One viewer's side of a [`ViewTable`]: the table it would hold if every
/// viewer had its own. Two views are equal when they show the same values
/// at the same prefixes, however their tables store them.
pub struct View<'a, K, V> {
    table: &'a ViewTable<K, V>,
    viewer: K,
}

impl<K, V> Clone for View<'_, K, V>
where
    K: Copy,
{
    fn clone(&self) -> Self {
        *self
    }
}

impl<K: Copy, V> Copy for View<'_, K, V> {}

impl<'a, K: Ord + Hash + Copy, V> View<'a, K, V> {
    /// What the viewer sees at exactly `prefix`.
    pub fn get(&self, prefix: Prefix) -> Option<&'a V> {
        self.table.get(self.viewer, prefix)
    }

    /// Longest-prefix match over what the viewer sees.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Prefix, &'a V)> {
        self.table.lookup(self.viewer, addr)
    }

    /// Everything the viewer sees, in prefix order. Walks the whole
    /// table, not just the viewer's share of it.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &'a V)> + 'a {
        let (viewer, subscribed) = (self.viewer, self.table.is_subscribed(self.viewer));
        self.table
            .entries
            .iter()
            .filter_map(move |(p, e)| Some((p, e.seen_by(viewer, subscribed)?)))
    }

    /// Number of prefixes the viewer sees (a walk, like [`iter`](Self::iter)).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when the viewer sees nothing.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

impl<K: Ord + Hash + Copy, V: PartialEq> PartialEq for View<'_, K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<K: Ord + Hash + Copy, V: fmt::Debug> fmt::Debug for View<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::{ip, prefix};

    type T = ViewTable<u8, &'static str>;

    fn subscribed(viewers: &[u8]) -> T {
        let mut t = T::new();
        for &viewer in viewers {
            t.apply(Write::Subscription {
                viewer,
                subscribed: true,
            });
        }
        t
    }

    fn base(p: &str, value: Option<&'static str>) -> Write<u8, &'static str> {
        Write::Base {
            prefix: prefix(p),
            value,
        }
    }

    fn slot(viewer: u8, p: &str, slot: Slot<&'static str>) -> Write<u8, &'static str> {
        Write::Slot {
            viewer,
            prefix: prefix(p),
            slot,
        }
    }

    #[test]
    fn subscribers_see_the_base_as_amended_by_their_slot() {
        let mut t = subscribed(&[1, 2, 3]);
        t.apply(base("10.0.0.0/8", Some("best")));
        t.apply(slot(2, "10.0.0.0/8", Slot::Own("tagged")));
        t.apply(slot(3, "10.0.0.0/8", Slot::Withheld));
        let p = prefix("10.0.0.0/8");
        assert_eq!(t.get(1, p), Some(&"best"));
        assert_eq!(t.get(2, p), Some(&"tagged"));
        assert_eq!(t.get(3, p), None);
        assert_eq!(t.get(4, p), None, "4 never subscribed");
        assert_eq!(t.holders(p).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(t.slot(1, p), Slot::Inherit);
        assert_eq!(t.slot(3, p), Slot::Withheld);
        assert_eq!(t.stored(), 3);
        // A slot outlives the base and shows without a subscription.
        t.apply(base("10.0.0.0/8", None));
        t.apply(Write::Subscription {
            viewer: 2,
            subscribed: false,
        });
        assert_eq!(t.get(1, p), None);
        assert_eq!(t.get(2, p), Some(&"tagged"));
        assert_eq!(t.stored(), 2);
    }

    #[test]
    fn a_withheld_prefix_does_not_shadow_a_covering_one() {
        let mut t = subscribed(&[1, 2]);
        t.apply(base("10.0.0.0/8", Some("coarse")));
        t.apply(base("10.1.0.0/16", Some("fine")));
        t.apply(slot(2, "10.1.0.0/16", Slot::Withheld));
        assert_eq!(
            t.lookup(1, ip("10.1.2.3")),
            Some((prefix("10.1.0.0/16"), &"fine"))
        );
        assert_eq!(
            t.lookup(2, ip("10.1.2.3")),
            Some((prefix("10.0.0.0/8"), &"coarse"))
        );
        assert_eq!(t.lookup(1, ip("11.0.0.1")), None);
        let seen: Vec<_> = t.view(2).iter().collect();
        assert_eq!(seen, vec![(prefix("10.0.0.0/8"), &"coarse")]);
        assert_eq!(t.view(1).len(), 2);
    }

    #[test]
    fn entries_that_say_nothing_are_pruned() {
        let mut t = subscribed(&[1]);
        let empty = t.clone();
        t.apply(base("10.0.0.0/8", Some("a")));
        t.apply(slot(1, "10.0.0.0/8", Slot::Withheld));
        t.apply(base("10.0.0.0/8", None));
        assert_eq!(t.prefixes().count(), 1, "the slot keeps the entry");
        t.apply(slot(1, "10.0.0.0/8", Slot::Inherit));
        assert_eq!(t, empty);
        // Clearing what was never set creates nothing.
        t.apply(base("20.0.0.0/8", None));
        t.apply(slot(1, "20.0.0.0/8", Slot::Inherit));
        assert_eq!(t, empty);
        assert!(!t.is_empty(), "a subscriber is content");
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn views_compare_by_what_they_show() {
        // One table stores viewer 1's value as the base, the other as a
        // slot over a different base.
        let mut a = subscribed(&[1]);
        a.apply(base("10.0.0.0/8", Some("x")));
        let mut b = subscribed(&[1]);
        b.apply(base("10.0.0.0/8", Some("y")));
        b.apply(slot(1, "10.0.0.0/8", Slot::Own("x")));
        assert_ne!(a, b);
        assert_eq!(a.view(1), b.view(1));
        b.apply(slot(1, "10.0.0.0/8", Slot::Inherit));
        assert_ne!(a.view(1), b.view(1));
    }

    /// A prefix from a small nested pool, so that a run reaches the same
    /// nodes as the writes before it, creates new ones and empties old
    /// ones, at every level of the trie.
    fn arb_prefix() -> impl proptest::strategy::Strategy<Value = Prefix> {
        use proptest::prelude::*;
        const POOL: [&str; 12] = [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.0.0.0/9",
            "10.128.0.0/9",
            "10.0.0.0/16",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.3.0/24",
            "10.1.2.128/25",
            "10.1.2.3/32",
            "11.0.0.0/8",
            "192.168.0.0/16",
        ];
        (0..POOL.len()).prop_map(|i| prefix(POOL[i]))
    }

    fn arb_write() -> impl proptest::strategy::Strategy<Value = Write<u8, u16>> {
        use proptest::prelude::*;
        let slot = prop_oneof![
            Just(Slot::Inherit),
            Just(Slot::Withheld),
            (0u16..3).prop_map(Slot::Own),
        ];
        prop_oneof![
            (arb_prefix(), proptest::option::of(0u16..3))
                .prop_map(|(prefix, value)| Write::Base { prefix, value }),
            (0u8..3, arb_prefix(), slot).prop_map(|(viewer, prefix, slot)| Write::Slot {
                viewer,
                prefix,
                slot
            }),
            (0u8..3, proptest::prelude::any::<bool>())
                .prop_map(|(viewer, subscribed)| Write::Subscription { viewer, subscribed }),
        ]
    }

    proptest::proptest! {
        /// A run write is the writes `reconcile_slot` plans for the one
        /// viewer, applied one pair at a time: the same table, trie
        /// structure and counts included, the same inverses in the same
        /// order, and the same number of writes; replaying its inverses
        /// backwards gives back the pre-image. Runs in prefix order and
        /// runs in any order, repeats included, alike.
        #[test]
        fn a_run_write_is_its_writes_one_pair_at_a_time(
            writes in proptest::collection::vec(arb_write(), 0..40),
            viewer in 0u8..3,
            run in proptest::collection::vec(
                (arb_prefix(), proptest::option::of(0u16..3)),
                0..16,
            ),
            sorted in proptest::prelude::any::<bool>(),
        ) {
            let mut run = run;
            if sorted {
                run.sort_by_key(|&(p, _)| p);
                run.dedup_by_key(|&mut (p, _)| p);
            }
            let mut table: ViewTable<u8, u16> = ViewTable::new();
            for write in writes {
                table.apply(write);
            }
            let before = (table.clone(), format!("{table:?}"));
            let mut one_by_one = table.clone();
            let mut expected = Vec::new();
            for &(prefix, want) in &run {
                if let Some(write) = one_by_one.reconcile_slot(viewer, prefix, want, u16::eq, |v| v) {
                    expected.push(one_by_one.apply(write));
                }
            }
            let mut inverses = Vec::new();
            let wrote = table.write_run(viewer, run, u16::eq, |v| *v, |w| inverses.push(w));
            proptest::prop_assert_eq!(&table, &one_by_one);
            proptest::prop_assert_eq!(table.stored(), one_by_one.stored());
            proptest::prop_assert_eq!(table.prefixes().count(), one_by_one.prefixes().count());
            proptest::prop_assert_eq!(wrote, inverses.len());
            proptest::prop_assert_eq!(&inverses, &expected);
            for inverse in inverses.into_iter().rev() {
                table.apply(inverse);
            }
            proptest::prop_assert_eq!(format!("{table:?}"), before.1);
            proptest::prop_assert_eq!(table, before.0);
        }
    }
}
