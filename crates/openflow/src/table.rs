//! The flow table: prioritized match/action entries with counters.
//!
//! Entries are matched highest-priority-first (insertion order breaks
//! ties, matching OpenFlow's behaviour of overwriting equal-priority
//! identical matches). Each entry carries *buckets*: independent action
//! lists, each applied to its own copy of the packet (group semantics).
//! An entry with no buckets drops.
//!
//! A compiled [`sdx_policy::Classifier`] converts directly: rule `i` of `n`
//! gets priority `n - i`, preserving first-match order.
//!
//! Classification semantics are *defined* by the priority-ordered linear
//! walk ([`FlowTable::classify_linear`]); the hot path
//! ([`FlowTable::classify`]) answers through a [`CompiledMatcher`] kept
//! coherent with every mutation via epoch tagging, and resolves the winning
//! priority band in table order so the two are index-for-index identical
//! (the differential oracle asserts exactly that).

use std::collections::BTreeMap;

use sdx_net::{HeaderMatch, LocatedPacket, Mod};
use sdx_policy::Classifier;

use crate::matcher::{CompiledMatcher, MatcherStats};

/// One flow entry.
#[derive(Clone, PartialEq, Debug)]
pub struct FlowEntry {
    /// Higher matches first.
    pub priority: u32,
    /// Match pattern (the `in_port` field of the pattern matches the port
    /// the packet arrived on).
    pub pattern: HeaderMatch,
    /// Action buckets; each is a modification list applied to a fresh copy
    /// of the packet (the final `SetLoc` is the output port). Empty = drop.
    pub buckets: Vec<Vec<Mod>>,
    /// Opaque controller tag, as in OpenFlow: the SDX stamps the owning
    /// FEC-group identity here so rules can be counted and retired by
    /// group without pattern inspection. `0` = infrastructure rule.
    pub cookie: u64,
    /// Packets that hit this entry.
    pub packet_count: u64,
    /// Bytes that hit this entry.
    pub byte_count: u64,
}

impl FlowEntry {
    /// A new entry with zeroed counters and no cookie.
    pub fn new(priority: u32, pattern: HeaderMatch, buckets: Vec<Vec<Mod>>) -> Self {
        FlowEntry {
            priority,
            pattern,
            buckets,
            cookie: 0,
            packet_count: 0,
            byte_count: 0,
        }
    }

    /// The same entry stamped with `cookie`.
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }

    /// True if the entry drops matching packets.
    pub fn is_drop(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// A single flow table.
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    /// The entries, sorted by descending priority (stable for equal
    /// priorities), are `slots[head..]`. The `head` slots in front are
    /// placeholders: free room above the highest-priority entry, so that
    /// a run landing at (or leaving from) the head of the table moves
    /// only itself. Never more of them than [`SLACK_MIN`] or the live
    /// count, whichever is larger.
    slots: Vec<FlowEntry>,
    /// The priority of each slot, slot for slot: band searches read this
    /// instead of the entries, so a lookup finds its band in a few cache
    /// lines even when the entries are cold. Every layout change moves
    /// both alike.
    prios: Vec<u32>,
    head: usize,
    /// Live entry count per cookie — the controller's per-FEC-group rule
    /// index, maintained on every mutation.
    cookie_index: BTreeMap<u64, usize>,
    /// Mutation generation: bumped on every state change, stamped onto the
    /// matcher in lockstep so staleness is a checkable invariant.
    epoch: u64,
    /// The compiled fast path. Derived state — rebuilt or incrementally
    /// updated by every mutator, never authoritative.
    matcher: CompiledMatcher,
}

/// The free slots a table may keep in front of its head whatever its
/// size; past this, no more than it has live entries.
const SLACK_MIN: usize = 16;

/// What fills a slot with no entry in it. Allocates nothing.
fn placeholder() -> FlowEntry {
    FlowEntry::new(0, HeaderMatch::any(), Vec::new())
}

/// Moves the items of `block` that follow its first `free` slots — free
/// ones — to its front, and the free slots behind them.
fn slide_down<T>(block: &mut [T], free: usize) {
    if free <= 2 {
        // A memmove, through a stack buffer of the one or two slots.
        block.rotate_left(free);
        return;
    }
    // Block swaps: the free run walks through the entries `free` at a
    // time; a wider run moves in fewer, larger copies.
    let mut gap = 0;
    while gap + free < block.len() {
        let n = free.min(block.len() - gap - free);
        let (slots, entries) = block[gap..].split_at_mut(free);
        slots[..n].swap_with_slice(&mut entries[..n]);
        gap += n;
    }
}

/// The mirror image of [`slide_down`]: moves the items in front of the
/// last `free` slots of `block` to its back, and the free slots in front.
fn slide_up<T>(block: &mut [T], free: usize) {
    if free <= 2 {
        block.rotate_right(free);
        return;
    }
    let mut end = block.len();
    while end > free {
        let n = free.min(end - free);
        let (entries, slots) = block[..end].split_at_mut(end - free);
        let m = entries.len();
        slots[free - n..].swap_with_slice(&mut entries[m - n..]);
        end -= n;
    }
}

/// Tables are equal iff their entries are: the cookie index is derived
/// from the entries, and the matcher/epoch are derived + observability
/// state (same pattern as the telemetry registry) — two tables reached by
/// different mutation histories still compare equal.
impl PartialEq for FlowTable {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl FlowTable {
    /// An empty table (table-miss drops).
    pub fn new() -> Self {
        FlowTable::default()
    }

    fn index_add(&mut self, cookie: u64) {
        *self.cookie_index.entry(cookie).or_insert(0) += 1;
    }

    fn index_remove(&mut self, cookie: u64) {
        if let Some(n) = self.cookie_index.get_mut(&cookie) {
            *n -= 1;
            if *n == 0 {
                self.cookie_index.remove(&cookie);
            }
        }
    }

    /// The half-open index range of entries with exactly `priority`.
    /// Entries are sorted by descending priority, so this is two binary
    /// searches of `prios` — the whole table is never scanned.
    fn priority_range(&self, priority: u32) -> std::ops::Range<usize> {
        let prios = &self.prios[self.head..];
        let lo = prios.partition_point(|&p| p > priority);
        let hi = prios.partition_point(|&p| p >= priority);
        lo..hi
    }

    /// Index of the entry at exactly (priority, pattern), if present.
    pub(crate) fn position_of(&self, priority: u32, pattern: &HeaderMatch) -> Option<usize> {
        self.locate(priority, pattern).0
    }

    /// [`position_of`](Self::position_of), and the end of the priority
    /// band: where an entry of that priority would be inserted.
    pub(crate) fn locate(&self, priority: u32, pattern: &HeaderMatch) -> (Option<usize>, usize) {
        let range = self.priority_range(priority);
        let pos = self.entries()[range.clone()]
            .iter()
            .position(|e| &e.pattern == pattern)
            .map(|i| range.start + i);
        (pos, range.end)
    }

    /// Installs an entry. An existing entry with identical (priority,
    /// pattern) is replaced in place, as OpenFlow `ADD` does.
    pub fn install(&mut self, entry: FlowEntry) {
        self.install_inner(entry, true);
    }

    /// The install worker. `index: false` defers matcher maintenance to a
    /// caller-side [`rebuild_matcher`](Self::rebuild_matcher) — the bulk
    /// path for classifier installs, where n incremental inserts would
    /// just re-derive what one rebuild produces.
    fn install_inner(&mut self, entry: FlowEntry, index: bool) {
        self.epoch += 1;
        if let Some(pos) = self.position_of(entry.priority, &entry.pattern) {
            let old_cookie = self.entries()[pos].cookie;
            self.index_remove(old_cookie);
            self.index_add(entry.cookie);
            self.slots[self.head + pos] = entry;
            if index {
                // (priority, pattern) unchanged: classification cannot
                // move, the matcher only needs the new stamp.
                self.matcher.touch(self.epoch);
            }
            return;
        }
        // Insert before the first strictly-lower priority (stable order).
        let idx = self.priority_range(entry.priority).end;
        self.index_add(entry.cookie);
        if index {
            self.matcher
                .insert(entry.priority, &entry.pattern, self.epoch);
        }
        self.place_run(std::iter::once(entry), &[idx]);
    }

    // The in-place primitives under [`apply_batch`](Self::apply_batch) and
    // its undo journal. Each keeps entries, cookie index and matcher
    // contents coherent but leaves the epoch alone: the batch stamps it
    // once, through `set_epoch`, when it commits or rolls back. Positions
    // are indexes into `entries()`.

    /// Swaps in new buckets and cookie at `pos`, keeping the traffic
    /// counters; returns the old pair. Buckets and cookie don't take part
    /// in matching, so the matcher needs no structural change.
    pub(crate) fn replace_at(
        &mut self,
        pos: usize,
        buckets: Vec<Vec<Mod>>,
        cookie: u64,
    ) -> (Vec<Vec<Mod>>, u64) {
        let old_cookie = self.entries()[pos].cookie;
        self.index_remove(old_cookie);
        self.index_add(cookie);
        let e = &mut self.slots[self.head + pos];
        e.cookie = cookie;
        (std::mem::replace(&mut e.buckets, buckets), old_cookie)
    }

    /// Removes the entries at `at` — ascending positions — in one pass,
    /// handing each to `sink` in table order.
    pub(crate) fn remove_run(&mut self, at: &[usize], sink: impl FnMut(FlowEntry)) {
        for &pos in at {
            let e = &self.slots[self.head + pos];
            self.matcher.remove(e.priority, &e.pattern, self.epoch);
            let cookie = e.cookie;
            self.index_remove(cookie);
        }
        self.take_run(at, sink);
    }

    /// Inserts `run` — entries in table order — so that they end up at
    /// `at`, ascending positions in the table as it is afterwards: the
    /// exact inverse of [`remove_run`](Self::remove_run), counters and
    /// band order included.
    pub(crate) fn insert_run<I>(&mut self, run: I, at: &[usize])
    where
        I: DoubleEndedIterator<Item = FlowEntry> + ExactSizeIterator,
    {
        self.place_run(run, at);
        for &pos in at {
            let e = &self.slots[self.head + pos];
            self.matcher.insert(e.priority, &e.pattern, self.epoch);
            let cookie = e.cookie;
            self.index_add(cookie);
        }
    }

    /// The layout half of [`remove_run`](Self::remove_run): takes the
    /// entries out, then closes the holes from whichever side of them is
    /// shorter — the entries in front of the last hole slide toward the
    /// tail (the head advances), or those behind the first toward the
    /// head (the tail shrinks). Each stretch between two holes slides
    /// once, past every hole already gathered next to it.
    fn take_run(&mut self, at: &[usize], mut sink: impl FnMut(FlowEntry)) {
        let (Some(&first), Some(&last)) = (at.first(), at.last()) else {
            return;
        };
        let k = at.len();
        let head = self.head;
        for &pos in at {
            sink(std::mem::replace(
                &mut self.slots[head + pos],
                placeholder(),
            ));
        }
        let above = last + 1 - k;
        let below = self.len() - first - k;
        if above < below {
            let mut end = head + last + 1;
            for j in (0..k).rev() {
                let start = head + j.checked_sub(1).map_or(0, |i| at[i] + 1);
                slide_up(&mut self.slots[start..end], k - j);
                slide_up(&mut self.prios[start..end], k - j);
                end = start + k - j;
            }
            self.head += k;
        } else {
            let mut start = head + first;
            for j in 0..k {
                let end = at.get(j + 1).map_or(self.slots.len(), |&next| head + next);
                slide_down(&mut self.slots[start..end], j + 1);
                slide_down(&mut self.prios[start..end], j + 1);
                start = end - (j + 1);
            }
            self.slots.truncate(self.slots.len() - k);
            self.prios.truncate(self.slots.len());
        }
        self.trim_slack();
        self.debug_check_prios();
    }

    /// The layout half of [`insert_run`](Self::insert_run): opens the
    /// gaps from whichever side of the landing points is shorter — the
    /// entries in front of the last one slide toward the head, into free
    /// slots there, or those behind the first toward a grown tail. Each
    /// stretch between two landing points slides once.
    fn place_run<I>(&mut self, run: I, at: &[usize])
    where
        I: DoubleEndedIterator<Item = FlowEntry> + ExactSizeIterator,
    {
        let (Some(&first), Some(&last)) = (at.first(), at.last()) else {
            return;
        };
        let k = at.len();
        debug_assert_eq!(run.len(), k);
        let above = last + 1 - k;
        let below = self.len() - first;
        if above < below {
            self.reserve_front(k);
            self.head -= k;
            let head = self.head;
            // Before each landing, the gap in front of the entries that
            // go ahead of it is as wide as the entries left to place.
            let mut start = head;
            for (j, (entry, &pos)) in run.zip(at).enumerate() {
                slide_down(&mut self.slots[start..head + k + pos - j], k - j);
                slide_down(&mut self.prios[start..head + k + pos - j], k - j);
                self.prios[head + pos] = entry.priority;
                self.slots[head + pos] = entry;
                start = head + pos + 1;
            }
        } else {
            let head = self.head;
            let mut end = self.slots.len() + k;
            self.slots.resize_with(end, placeholder);
            self.prios.resize(end, 0);
            for (j, (entry, &pos)) in (0..k).rev().zip(run.rev().zip(at.iter().rev())) {
                slide_up(&mut self.slots[head + pos - j..end], j + 1);
                slide_up(&mut self.prios[head + pos - j..end], j + 1);
                self.prios[head + pos] = entry.priority;
                self.slots[head + pos] = entry;
                end = head + pos;
            }
        }
        self.debug_check_prios();
    }

    /// Debug builds check, after every change of layout, that `prios`
    /// shadows the slots.
    fn debug_check_prios(&self) {
        debug_assert_eq!(self.prios.len(), self.slots.len());
        debug_assert!(
            self.prios[self.head..]
                .iter()
                .eq(self.entries().iter().map(|e| &e.priority)),
            "priority index out of step with the entries"
        );
    }

    /// Makes room for at least `k` entries in front of the head. When it
    /// has to grow, it leaves half the live count (at least
    /// [`SLACK_MIN`]) to spare, so that runs landing at the head pay for
    /// the move of the table once per that many entries.
    fn reserve_front(&mut self, k: usize) {
        if self.head >= k {
            return;
        }
        let grow = k + (self.len() / 2).max(SLACK_MIN) - self.head;
        self.slots
            .splice(0..0, std::iter::repeat_with(placeholder).take(grow));
        self.prios.splice(0..0, std::iter::repeat_n(0, grow));
        self.head += grow;
    }

    /// Gives back free slots in front of the head once there are more of
    /// them than live entries (and [`SLACK_MIN`]), down to half the live
    /// count: the table moves once per that many entries retired.
    fn trim_slack(&mut self) {
        let keep = (self.len() / 2).max(SLACK_MIN);
        if self.head > self.len().max(SLACK_MIN) {
            self.slots.drain(..self.head - keep);
            self.prios.drain(..self.head - keep);
            self.head = keep;
        }
    }

    /// Stamps table and matcher with `epoch` in lockstep.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.matcher.touch(epoch);
    }

    /// Removes every entry with priority `>= min_priority` — how the SDX
    /// retires the fast-path delta rules once background re-optimization
    /// lands (§4.3.2).
    pub fn remove_at_or_above(&mut self, min_priority: u32) -> usize {
        self.take_at_or_above(min_priority).len()
    }

    /// [`remove_at_or_above`](Self::remove_at_or_above), handing back the
    /// removed entries — the head of the table, in table order, counters
    /// included — so that [`restore_at_or_above`](Self::restore_at_or_above)
    /// can put them back. They leave as one run from the head: the rest of
    /// the table does not move, and the matcher loses just their entries.
    pub fn take_at_or_above(&mut self, min_priority: u32) -> Vec<FlowEntry> {
        let k = self.prios[self.head..].partition_point(|&p| p >= min_priority);
        let mut taken = Vec::with_capacity(k);
        if k > 0 {
            self.remove_run(&(0..k).collect::<Vec<_>>(), |e| taken.push(e));
            self.set_epoch(self.epoch + 1);
        }
        taken
    }

    /// The exact inverse of [`take_at_or_above`](Self::take_at_or_above),
    /// epoch included, given that every mutation made since has been
    /// undone: `taken` lands as one run at the head of the table again.
    pub fn restore_at_or_above(&mut self, taken: Vec<FlowEntry>) {
        if taken.is_empty() {
            return;
        }
        let at: Vec<usize> = (0..taken.len()).collect();
        self.insert_run(taken.into_iter(), &at);
        self.set_epoch(self.epoch - 1);
    }

    /// Live entries stamped with `cookie`, via the maintained index —
    /// O(log c) for the count, no table scan.
    pub fn cookie_count(&self, cookie: u64) -> usize {
        self.cookie_index.get(&cookie).copied().unwrap_or(0)
    }

    /// The entries stamped with `cookie`, in priority order.
    pub fn entries_with_cookie(&self, cookie: u64) -> impl Iterator<Item = &FlowEntry> {
        self.entries().iter().filter(move |e| e.cookie == cookie)
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.prios.clear();
        self.head = 0;
        self.cookie_index.clear();
        self.epoch += 1;
        self.matcher.clear(self.epoch);
    }

    /// Mutation generation of the table: every state change bumps it, and
    /// the compiled matcher carries the epoch it was updated for — the
    /// coherence handshake the fast path debug-asserts.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Shape and hit-distribution snapshot of the compiled matcher (for
    /// the `dataplane.matcher.*` telemetry gauges and the benchmark's
    /// `openflow.matcher.*` rows).
    pub fn matcher_stats(&self) -> MatcherStats {
        self.matcher.stats()
    }

    /// Forces a full recompile of the matcher indexes. Mutators already
    /// keep the matcher coherent — this exists so benchmarks can measure
    /// build cost and so bulk installs have one shared maintenance path.
    pub fn rebuild_matcher(&mut self) {
        self.matcher.rebuild(&self.slots[self.head..], self.epoch);
    }

    /// True if an entry exists at exactly (priority, pattern).
    pub fn contains_exact(&self, priority: u32, pattern: &HeaderMatch) -> bool {
        self.position_of(priority, pattern).is_some()
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.slots.len() - self.head
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read-only view of the entries, priority order.
    pub fn entries(&self) -> &[FlowEntry] {
        &self.slots[self.head..]
    }

    /// Classifies a packet: the highest-priority matching entry, with
    /// counters updated. `None` = table miss (drop). Delegates the scan to
    /// [`classify`](Self::classify) — counter touching is the only thing
    /// this adds, so the matcher fast path has a single seam.
    pub fn lookup(&mut self, lp: &LocatedPacket) -> Option<&FlowEntry> {
        let idx = self.head + self.classify(lp)?.0;
        let e = &mut self.slots[idx];
        e.packet_count += 1;
        e.byte_count += lp.pkt.payload_len as u64;
        Some(&self.slots[idx])
    }

    /// Single stepping for inspection: the highest-priority matching entry
    /// and its index, **without** touching the counters. This is the API
    /// the differential oracle uses to replay a packet through a deployed
    /// table stage by stage and render which rule fired at each hop —
    /// a diagnostic walk must not perturb the traffic statistics the
    /// telemetry layer reports.
    ///
    /// Answers through the [`CompiledMatcher`]: the matcher returns the
    /// exact winning priority (its candidate sets are complete — see the
    /// matcher module docs), and the winner inside that priority band is
    /// resolved in table order, so the result is index-for-index identical
    /// to [`classify_linear`](Self::classify_linear). The oracle
    /// dual-runs both on every probe to enforce that.
    pub fn classify(&self, lp: &LocatedPacket) -> Option<(usize, &FlowEntry)> {
        debug_assert_eq!(
            self.matcher.epoch(),
            self.epoch,
            "matcher stale: a mutator skipped maintenance"
        );
        let priority = self.matcher.best_priority(lp)?;
        for i in self.priority_range(priority) {
            let e = &self.entries()[i];
            if e.pattern.matches(lp) {
                return Some((i, e));
            }
        }
        // Unreachable if the matcher is coherent; fall back to the
        // specification rather than mis-forward.
        debug_assert!(
            false,
            "matcher returned priority {priority} with no match in band"
        );
        self.classify_linear(lp)
    }

    /// The reference semantics: a priority-ordered linear first-match walk
    /// over the whole table. [`classify`](Self::classify) must agree with
    /// this index-for-index; it exists as the differential baseline (and
    /// the benchmark's `classify_linear_ns` leg).
    pub fn classify_linear(&self, lp: &LocatedPacket) -> Option<(usize, &FlowEntry)> {
        self.entries()
            .iter()
            .enumerate()
            .find(|(_, e)| e.pattern.matches(lp))
    }

    /// Applies `entry`'s buckets to `lp`: one output packet per bucket,
    /// mods applied in order to a fresh copy. Raw application — hairpin
    /// suppression and dedup stay in [`switch
    /// processing`](crate::switch); a stepping caller decides itself what
    /// to filter. Pure — pairs with [`classify`](Self::classify) for
    /// counter-free stepping.
    pub fn apply_entry(entry: &FlowEntry, lp: &LocatedPacket) -> Vec<LocatedPacket> {
        entry
            .buckets
            .iter()
            .map(|mods| {
                let mut copy = *lp;
                for &m in mods {
                    m.apply(&mut copy);
                }
                copy
            })
            .collect()
    }

    /// Installs a compiled classifier wholesale, replacing the table.
    /// Rule `i` of `n` receives priority `base + n - i`, so rule order is
    /// priority order and higher `base` layers shadow lower ones.
    pub fn install_classifier(&mut self, c: &Classifier, base: u32) {
        let n = c.rules().len() as u32;
        for (i, r) in c.rules().iter().enumerate() {
            let buckets = r.actions.iter().map(|a| a.mods.clone()).collect::<Vec<_>>();
            self.install_inner(
                FlowEntry::new(base + n - i as u32, r.matches, buckets),
                false,
            );
        }
        self.rebuild_matcher();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowmod::{FlowMod, FlowModBatch};
    use sdx_net::{ip, FieldMatch, Packet, ParticipantId, PortId};
    use sdx_policy::{compile, Policy};

    /// `m` applied as a batch of its own; whether it was accepted.
    fn apply_one(t: &mut FlowTable, m: FlowMod) -> bool {
        t.apply_batch(&FlowModBatch {
            epoch: 0,
            mods: vec![m],
        })
        .is_ok()
    }

    fn delete(priority: u32, pattern: HeaderMatch) -> FlowMod {
        FlowMod::Delete { priority, pattern }
    }

    fn port(n: u32) -> PortId {
        PortId::Phys(ParticipantId(n), 1)
    }

    fn web(loc: PortId) -> LocatedPacket {
        LocatedPacket::at(
            loc,
            Packet::tcp(ip("10.0.0.1"), ip("20.0.0.1"), 5, 80).with_len(100),
        )
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(
            1,
            HeaderMatch::any(),
            vec![vec![Mod::SetLoc(port(9))]],
        ));
        t.install(FlowEntry::new(
            10,
            HeaderMatch::of(FieldMatch::TpDst(80)),
            vec![vec![Mod::SetLoc(port(2))]],
        ));
        let hit = t.lookup(&web(port(1))).unwrap();
        assert_eq!(hit.priority, 10);
        // installation order does not matter
        assert_eq!(t.entries()[0].priority, 10);
    }

    #[test]
    fn identical_priority_pattern_replaces() {
        let mut t = FlowTable::new();
        let m = HeaderMatch::of(FieldMatch::TpDst(80));
        t.install(FlowEntry::new(5, m, vec![vec![Mod::SetLoc(port(2))]]));
        t.install(FlowEntry::new(5, m, vec![vec![Mod::SetLoc(port(3))]]));
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].buckets[0], vec![Mod::SetLoc(port(3))]);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(
            1,
            HeaderMatch::any(),
            vec![vec![Mod::SetLoc(port(2))]],
        ));
        t.lookup(&web(port(1)));
        t.lookup(&web(port(1)));
        assert_eq!(t.entries()[0].packet_count, 2);
        assert_eq!(t.entries()[0].byte_count, 200);
    }

    #[test]
    fn table_miss_is_none() {
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(
            5,
            HeaderMatch::of(FieldMatch::TpDst(443)),
            vec![],
        ));
        assert!(t.lookup(&web(port(1))).is_none());
    }

    #[test]
    fn remove_by_pattern_and_priority_band() {
        let mut t = FlowTable::new();
        let m = HeaderMatch::of(FieldMatch::TpDst(80));
        t.install(FlowEntry::new(5, m, vec![]));
        t.install(FlowEntry::new(1000, HeaderMatch::any(), vec![]));
        assert!(apply_one(&mut t, delete(5, m)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove_at_or_above(1000), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn classifier_installation_preserves_first_match() {
        let p = (Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(2)))
            + (Policy::match_(FieldMatch::TpDst(443)) >> Policy::fwd(port(3)));
        let c = compile(&p);
        let mut t = FlowTable::new();
        t.install_classifier(&c, 0);
        assert_eq!(t.len(), c.rules().len());
        let forwarding = t.entries().iter().filter(|e| !e.is_drop()).count();
        assert_eq!(forwarding, c.forwarding_rule_count());
        // First-match equivalence on a sample.
        let hit = t.lookup(&web(port(1))).unwrap();
        assert_eq!(hit.buckets, vec![vec![Mod::SetLoc(port(2))]]);
    }

    #[test]
    fn classify_steps_without_touching_counters() {
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(
            1,
            HeaderMatch::any(),
            vec![vec![Mod::SetLoc(port(9))]],
        ));
        t.install(FlowEntry::new(
            10,
            HeaderMatch::of(FieldMatch::TpDst(80)),
            vec![vec![Mod::SetTpDst(8080), Mod::SetLoc(port(2))]],
        ));
        let (idx, entry) = t.classify(&web(port(1))).expect("match");
        assert_eq!(idx, 0, "highest priority entry sits first");
        assert_eq!(entry.priority, 10);
        assert_eq!(entry.packet_count, 0, "classify must not count");
        let out = FlowTable::apply_entry(entry, &web(port(1)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, port(2));
        assert_eq!(out[0].pkt.tp_dst, 8080);
        // lookup on the same packet agrees with classify and does count.
        let hit = t.lookup(&web(port(1))).expect("match");
        assert_eq!(hit.priority, 10);
        assert_eq!(t.entries()[0].packet_count, 1);
    }

    #[test]
    fn cookie_index_tracks_every_mutation() {
        let mut t = FlowTable::new();
        let m80 = HeaderMatch::of(FieldMatch::TpDst(80));
        let m443 = HeaderMatch::of(FieldMatch::TpDst(443));
        t.install(FlowEntry::new(5, m80, vec![]).with_cookie(7));
        t.install(FlowEntry::new(6, m443, vec![]).with_cookie(7));
        t.install(FlowEntry::new(9, HeaderMatch::any(), vec![]).with_cookie(8));
        assert_eq!(t.cookie_count(7), 2);
        assert_eq!(t.cookie_count(8), 1);
        assert_eq!(t.entries_with_cookie(7).count(), 2);
        // Replacing an entry moves its count between cookies.
        t.install(FlowEntry::new(5, m80, vec![]).with_cookie(8));
        assert_eq!(t.cookie_count(7), 1);
        assert_eq!(t.cookie_count(8), 2);
        // Removal by priority band and by exact slot both maintain the
        // index.
        assert_eq!(t.remove_at_or_above(6), 2);
        assert_eq!(t.cookie_count(7), 0);
        assert_eq!(t.cookie_count(8), 1);
        assert!(apply_one(&mut t, delete(5, m80)));
        assert!(t.is_empty());
        assert_eq!(t.cookie_count(8), 0);
    }

    #[test]
    fn layered_classifier_install_shadows_lower_base() {
        let low = compile(&(Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(2))));
        let high = compile(&(Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(7))));
        let mut t = FlowTable::new();
        t.install_classifier(&low, 0);
        t.install_classifier(&high, 1000);
        let hit = t.lookup(&web(port(1))).unwrap();
        assert_eq!(hit.buckets, vec![vec![Mod::SetLoc(port(7))]]);
    }

    #[test]
    fn layered_classifier_shadows_rule_for_rule() {
        // A multi-rule policy: two disjoint forwarding classes + fallthrough.
        let policy = |web: u32, tls: u32| {
            (Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(web)))
                + (Policy::match_(FieldMatch::TpDst(443)) >> Policy::fwd(port(tls)))
        };
        let low = compile(&policy(2, 3));
        let high = compile(&policy(7, 8));
        assert_eq!(low.rules().len(), high.rules().len());
        let n = high.rules().len();
        let mut t = FlowTable::new();
        t.install_classifier(&low, 0);
        t.install_classifier(&high, 1000);
        assert_eq!(t.len(), 2 * n);
        // Every high-layer rule sits above the entire low layer, in rule
        // order: entry i IS high rule i, at priority 1000 + n - i.
        for (i, r) in high.rules().iter().enumerate() {
            let e = &t.entries()[i];
            assert_eq!(e.pattern, r.matches, "high rule {i} out of order");
            assert_eq!(e.priority, 1000 + (n - i) as u32);
        }
        for (i, r) in low.rules().iter().enumerate() {
            let e = &t.entries()[n + i];
            assert_eq!(e.pattern, r.matches, "low rule {i} out of order");
            assert_eq!(e.priority, (n - i) as u32);
        }
        // Batch-installed order equals priority order (strictly decreasing
        // within each layer's base).
        let prios: Vec<u32> = t.entries().iter().map(|e| e.priority).collect();
        let mut sorted = prios.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(prios, sorted, "entries() must be priority-sorted");
        // And each probe lands on the high layer, class by class.
        let mut tls = web(port(1));
        tls.pkt.tp_dst = 443;
        assert_eq!(
            t.lookup(&web(port(1))).unwrap().buckets,
            vec![vec![Mod::SetLoc(port(7))]]
        );
        assert_eq!(
            t.lookup(&tls).unwrap().buckets,
            vec![vec![Mod::SetLoc(port(8))]]
        );
    }

    #[test]
    fn epoch_bumps_on_every_mutation_and_matcher_follows() {
        let mut t = FlowTable::new();
        assert_eq!(t.epoch(), 0);
        let m = HeaderMatch::of(FieldMatch::TpDst(80));
        t.install(FlowEntry::new(5, m, vec![]));
        let e1 = t.epoch();
        assert!(e1 > 0);
        apply_one(
            &mut t,
            FlowMod::Modify {
                priority: 5,
                pattern: m,
                buckets: vec![vec![Mod::SetLoc(port(2))]],
                cookie: 9,
            },
        );
        let e2 = t.epoch();
        assert!(e2 > e1);
        apply_one(&mut t, delete(5, m));
        assert!(t.epoch() > e2);
        assert_eq!(t.matcher_stats().epoch, t.epoch(), "matcher in lockstep");
        // Failed mutations don't bump.
        let before = t.epoch();
        assert!(!apply_one(&mut t, delete(5, m)));
        assert_eq!(t.epoch(), before);
    }

    /// Runs at the head land in the free slots in front of it and leave
    /// into them; the free slots never outnumber the live entries (or
    /// `SLACK_MIN`), and every run lands where one-at-a-time mutation
    /// would have put it.
    #[test]
    fn head_runs_use_the_slack_and_the_slack_stays_bounded() {
        let entry = |p: u32| {
            FlowEntry::new(p, HeaderMatch::of(FieldMatch::TpDst(p as u16)), vec![]).with_cookie(1)
        };
        let adds = |ps: &mut dyn Iterator<Item = u32>| FlowModBatch {
            epoch: 0,
            mods: ps.map(|p| FlowMod::Add(entry(p))).collect(),
        };
        let deletes = |t: &FlowTable, ps: &mut dyn Iterator<Item = u32>| FlowModBatch {
            epoch: 0,
            mods: ps
                .map(|p| FlowMod::Delete {
                    priority: p,
                    pattern: entry(p).pattern,
                })
                .filter(|m| match m {
                    FlowMod::Delete { priority, pattern } => t.contains_exact(*priority, pattern),
                    _ => true,
                })
                .collect(),
        };
        let bounded = |t: &FlowTable| {
            assert!(
                t.head <= t.len().max(SLACK_MIN),
                "{} free, {} live",
                t.head,
                t.len()
            );
            let prios: Vec<u32> = t.entries().iter().map(|e| e.priority).collect();
            let mut sorted = prios.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(prios, sorted);
            assert_eq!(t.cookie_count(1), t.len());
        };
        let mut t = FlowTable::new();
        t.apply_batch(&adds(&mut (1..=200).rev())).expect("base");
        bounded(&t);
        for round in 0..6u32 {
            // Overlays above everything, each burst above the last.
            let lo = 1_000 + round * 400;
            for burst in 0..4u32 {
                let from = lo + burst * 100;
                t.apply_batch(&adds(&mut (from..from + 100).rev()))
                    .expect("overlays");
                bounded(&t);
                assert_eq!(t.entries()[0].priority, from + 99);
            }
            // A scattered base change, then the retirement of them all.
            t.apply_batch(&deletes(&t, &mut (1..=200).filter(|p| p % 7 == round)))
                .expect("base deletes");
            bounded(&t);
            t.apply_batch(&deletes(&t, &mut (lo..lo + 400).rev()))
                .expect("retire");
            bounded(&t);
            assert!(t.entries()[0].priority <= 200);
            t.apply_batch(&adds(&mut (1..=200).rev().filter(|p| p % 7 == round)))
                .expect("base re-adds");
            bounded(&t);
            assert_eq!(t.len(), 200);
        }
    }

    /// The fast path must agree with the linear walk index-for-index,
    /// across the whole mutation surface (the proptest in
    /// `tests/matcher_props.rs` fuzzes this; here is the deterministic
    /// spine).
    #[test]
    fn classify_agrees_with_linear_across_mutations() {
        use sdx_net::MacAddr;

        let probes: Vec<LocatedPacket> = (0..8u32)
            .map(|i| {
                let mut lp = web(port(i % 3));
                lp.pkt.tp_dst = if i % 2 == 0 { 80 } else { 443 };
                lp.pkt.dl_dst = MacAddr::vmac(i % 4);
                lp
            })
            .collect();
        let agree = |t: &FlowTable| {
            for lp in &probes {
                let fast = t.classify(lp).map(|(i, e)| (i, e.priority));
                let lin = t.classify_linear(lp).map(|(i, e)| (i, e.priority));
                assert_eq!(fast, lin, "diverged on {lp:?}");
            }
        };
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(
            9,
            HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(1))),
            vec![vec![Mod::SetLoc(port(5))]],
        ));
        agree(&t);
        t.install(FlowEntry::new(
            9,
            HeaderMatch::of(FieldMatch::TpDst(443)),
            vec![],
        ));
        t.install(FlowEntry::new(1, HeaderMatch::any(), vec![]));
        agree(&t);
        apply_one(
            &mut t,
            FlowMod::Modify {
                priority: 9,
                pattern: HeaderMatch::of(FieldMatch::TpDst(443)),
                buckets: vec![vec![Mod::SetLoc(port(6))]],
                cookie: 3,
            },
        );
        agree(&t);
        apply_one(
            &mut t,
            delete(9, HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(1)))),
        );
        agree(&t);
        let c = compile(&(Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(2))));
        t.install_classifier(&c, 1000);
        agree(&t);
        t.remove_at_or_above(1000);
        agree(&t);
        t.clear();
        agree(&t);
    }
}
