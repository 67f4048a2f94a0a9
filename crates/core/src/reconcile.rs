//! Rule-level reconciliation: turn "the newly compiled classifier" into
//! the **minimal flow-mod batch** that patches the deployed table.
//!
//! The paper's §4.3.2 frames re-optimization as a background computation
//! whose result *replaces* the fast-path overlays. Replacing the whole
//! table is semantically fine but operationally hostile: on a hardware
//! switch every rule swap costs flow-mod bandwidth, TCAM writes, and a
//! window of inconsistency. Because FEC identity is churn-stable
//! ([`crate::vnh::VnhAllocator::reserve_keyed`]), most rules of the new
//! compilation are *byte-identical* to rules already installed — so the
//! controller should send only the difference.
//!
//! ## Priority assignment
//!
//! A naive diff is defeated by priorities: `install_classifier` numbers
//! rule `i` of `n` as `n - i`, so inserting one rule shifts every priority
//! below it. Reconciliation instead treats priorities as an
//! order-maintenance structure over the *base band* `(0, DELTA_BASE)`:
//!
//! * a full (re)base spreads `n` rules evenly, leaving gaps of
//!   `DELTA_BASE / (n + 1)` between neighbours;
//! * an inserted rule takes a midpoint priority between its surviving
//!   neighbours, so **no existing rule moves**;
//! * only when a gap is exhausted (pathological after ~30 same-spot
//!   insertions) does the engine fall back to a full rebase, and reports
//!   it, so the caller can count how rare that is.
//!
//! Matching is positional *by pattern*: the classifier emits rules in
//! first-match order, deployed entries sit in priority (= first-match)
//! order, and a greedy in-order walk pairs them up. A pattern that kept
//! its actions is untouched (counters survive); one whose actions changed
//! becomes a `Modify` (counters still survive — OpenFlow semantics);
//! patterns only in the old table are deleted; patterns only in the new
//! classifier are added at midpoints.

use std::collections::HashMap;

use sdx_net::HeaderMatch;
use sdx_openflow::flowmod::{FlowMod, FlowModBatch};
use sdx_openflow::table::{FlowEntry, FlowTable};
use sdx_policy::{Classifier, Rule};

/// Priority floor for fast-path delta overlays; the reconciled base table
/// lives strictly below this. Wide (2^30) so midpoint insertion
/// essentially never runs out of gaps.
pub const DELTA_BASE: u32 = 1 << 30;

/// The cookie stamped on a rule: its FEC-group id + 1 (from the VMAC the
/// pattern matches), or `0` for infrastructure rules that match no VMAC.
/// Stable across recompilations because keyed VNH allocation keeps group
/// ids stable — so cookies let the controller count and retire a group's
/// rules without pattern inspection.
pub fn cookie_of(pattern: &HeaderMatch) -> u64 {
    pattern
        .dl_dst
        .and_then(|m| m.fec_id())
        .map(|id| u64::from(id) + 1)
        .unwrap_or(0)
}

fn buckets_of(rule: &Rule) -> Vec<Vec<sdx_net::Mod>> {
    rule.actions.iter().map(|a| a.mods.clone()).collect()
}

/// Whether `entry` carries exactly `rule`'s action buckets.
fn same_buckets(entry: &FlowEntry, rule: &Rule) -> bool {
    entry.buckets.len() == rule.actions.len()
        && entry
            .buckets
            .iter()
            .zip(rule.actions.iter())
            .all(|(b, a)| *b == a.mods)
}

/// The old entries chained by the cookie their pattern implies — the FEC
/// group behind the VMAC that keys almost every rule, so a chain is a
/// handful of entries — for finding the next old entry with a given
/// pattern without scanning the table.
struct PatternIndex {
    /// Cookie → the first old entry not yet passed whose pattern has it.
    heads: HashMap<u64, usize>,
    /// Old entry → the next one under the same cookie (`usize::MAX`: none).
    next: Vec<usize>,
}

impl PatternIndex {
    fn of(old: &[&FlowEntry]) -> PatternIndex {
        let mut heads = HashMap::with_capacity(old.len());
        let mut next = vec![usize::MAX; old.len()];
        for (j, e) in old.iter().enumerate().rev() {
            if let Some(after) = heads.insert(cookie_of(&e.pattern), j) {
                next[j] = after;
            }
        }
        PatternIndex { heads, next }
    }

    /// The first old entry at or after `cursor` whose pattern is `pattern`.
    /// `cursor` never decreases between calls, so entries before it are
    /// dropped from their chain for good.
    fn first_from(
        &mut self,
        old: &[&FlowEntry],
        cursor: usize,
        pattern: &HeaderMatch,
    ) -> Option<usize> {
        let head = self.heads.get_mut(&cookie_of(pattern))?;
        while *head != usize::MAX && *head < cursor {
            *head = self.next[*head];
        }
        let mut j = *head;
        while j != usize::MAX {
            if old[j].pattern == *pattern {
                return Some(j);
            }
            j = self.next[j];
        }
        None
    }
}

/// Outcome of diffing a deployed table against a compiled classifier.
#[derive(Clone, Debug)]
pub struct TableDiff {
    /// The minimal batch that patches the base band.
    pub batch: FlowModBatch,
    /// Rules of the new classifier already installed verbatim (pattern
    /// *and* actions) — the churn-stability numerator.
    pub unchanged: usize,
    /// True when midpoint insertion ran out of priority gaps and the
    /// batch is a full delete-and-readd instead of a minimal patch.
    pub rebased: bool,
}

impl TableDiff {
    /// Total flow-mods the switch must process.
    pub fn touched(&self) -> usize {
        self.batch.len()
    }
}

/// Spread priorities for a full (re)base: rule `i` of `n` gets
/// `stride * (n - i)` with `stride = DELTA_BASE / (n + 1)` — first-match
/// order preserved, maximal gaps everywhere.
fn rebase_priorities(n: usize) -> impl Iterator<Item = u32> {
    let stride = DELTA_BASE / (n as u32 + 1);
    (0..n as u32).map(move |i| stride * (n as u32 - i))
}

fn full_rebase(old: &[&FlowEntry], rules: &[Rule], epoch: u64, unchanged: usize) -> TableDiff {
    let mut batch = FlowModBatch::new(epoch);
    for e in old {
        batch.push(FlowMod::Delete {
            priority: e.priority,
            pattern: e.pattern,
        });
    }
    for (rule, priority) in rules.iter().zip(rebase_priorities(rules.len())) {
        batch.push(FlowMod::Add(
            FlowEntry::new(priority, rule.matches, buckets_of(rule))
                .with_cookie(cookie_of(&rule.matches)),
        ));
    }
    TableDiff {
        batch,
        unchanged,
        rebased: true,
    }
}

/// Diffs the deployed **base band** (entries with priority below
/// [`DELTA_BASE`]; delta overlays above it are the caller's business)
/// against the freshly compiled classifier, producing the minimal
/// flow-mod batch. An empty table degenerates to the initial full
/// install, so first deployment and re-optimization share one code path.
pub fn diff_base_table(table: &FlowTable, classifier: &Classifier, epoch: u64) -> TableDiff {
    let old: Vec<&FlowEntry> = table
        .entries()
        .iter()
        .filter(|e| e.priority < DELTA_BASE)
        .collect();
    let rules = classifier.rules();

    // Greedy in-order pairing by pattern: for each new rule, the next old
    // entry (at or after the previous match) with the same pattern.
    // anchored[k] = Some(index into `old`) when new rule k found a home.
    // Between two compiles of one exchange that entry is nearly always the
    // very next one; the index is built only once it is not.
    let mut anchored: Vec<Option<usize>> = vec![None; rules.len()];
    let mut survives = vec![false; old.len()];
    let mut cursor = 0usize;
    let mut index: Option<PatternIndex> = None;
    for (k, rule) in rules.iter().enumerate() {
        let found = if old.get(cursor).is_some_and(|e| e.pattern == rule.matches) {
            Some(cursor)
        } else {
            index
                .get_or_insert_with(|| PatternIndex::of(&old))
                .first_from(&old, cursor, &rule.matches)
        };
        if let Some(j) = found {
            anchored[k] = Some(j);
            survives[j] = true;
            cursor = j + 1;
        }
    }

    let mut batch = FlowModBatch::new(epoch);
    let mut unchanged = 0usize;
    for (j, e) in old.iter().enumerate() {
        if !survives[j] {
            batch.push(FlowMod::Delete {
                priority: e.priority,
                pattern: e.pattern,
            });
        }
    }
    // Walk the new rules run by run: anchored rules keep (or modify in
    // place at) their old priority; each run of unanchored rules between
    // two anchors spreads over the open interval the anchors bound.
    let mut k = 0usize;
    let mut prev_priority = DELTA_BASE; // exclusive upper bound
    while k < rules.len() {
        if let Some(j) = anchored[k] {
            let e = old[j];
            if same_buckets(e, &rules[k]) && e.cookie == cookie_of(&rules[k].matches) {
                unchanged += 1;
            } else {
                batch.push(FlowMod::Modify {
                    priority: e.priority,
                    pattern: e.pattern,
                    buckets: buckets_of(&rules[k]),
                    cookie: cookie_of(&rules[k].matches),
                });
            }
            prev_priority = e.priority;
            k += 1;
            continue;
        }
        // A run of insertions: find its exclusive lower bound.
        let run_start = k;
        while k < rules.len() && anchored[k].is_none() {
            k += 1;
        }
        let next_priority = if k < rules.len() {
            old[anchored[k].expect("loop exit condition")].priority
        } else {
            0
        };
        let run = k - run_start;
        let gap = prev_priority.saturating_sub(next_priority);
        let step = gap / (run as u32 + 1);
        if step == 0 {
            // Gap exhausted: the minimal patch cannot express this insert
            // without moving neighbours — rebase the whole band instead.
            return full_rebase(&old, rules, epoch, unchanged);
        }
        for (r, rule) in rules[run_start..k].iter().enumerate() {
            let priority = prev_priority - step * (r as u32 + 1);
            batch.push(FlowMod::Add(
                FlowEntry::new(priority, rule.matches, buckets_of(rule))
                    .with_cookie(cookie_of(&rule.matches)),
            ));
        }
        // Anchored-rule handling resumes at `k` (which resets the upper
        // bound to that anchor's priority) on the next iteration.
    }
    TableDiff {
        batch,
        unchanged,
        rebased: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{FieldMatch, MacAddr, Mod, ParticipantId, PortId};
    use sdx_policy::classifier::Action;
    use std::sync::Arc;

    fn vmac_rule(id: u32, out: u32) -> Rule {
        Rule {
            matches: HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(id))),
            actions: Arc::from([Action {
                mods: vec![Mod::SetLoc(PortId::Phys(ParticipantId(out), 1))],
            }]),
        }
    }

    fn classifier(rules: Vec<Rule>) -> Classifier {
        Classifier::from_rules(rules)
    }

    fn deploy(rules: Vec<Rule>) -> FlowTable {
        let mut t = FlowTable::new();
        let diff = diff_base_table(&t, &classifier(rules), 1);
        t.apply_batch(&diff.batch).expect("initial install applies");
        t
    }

    #[test]
    fn initial_install_spreads_gaps() {
        // 3 rules + the classifier's wildcard catch-all = 4 entries.
        let t = deploy(vec![vmac_rule(1, 1), vmac_rule(2, 2), vmac_rule(3, 3)]);
        assert_eq!(t.len(), 4);
        let prios: Vec<u32> = t.entries().iter().map(|e| e.priority).collect();
        assert!(prios.windows(2).all(|w| w[0] > w[1]), "strictly ordered");
        let min_gap = prios.windows(2).map(|w| w[0] - w[1]).min().unwrap();
        assert!(min_gap > 1 << 20, "gaps are wide: {min_gap}");
        assert!(prios[0] < DELTA_BASE);
        assert_eq!(t.entries()[0].cookie, 2, "vmac 1 → cookie 2");
        assert_eq!(t.entries()[3].cookie, 0, "catch-all is infrastructure");
    }

    #[test]
    fn identical_recompile_is_a_noop() {
        let rules = vec![vmac_rule(1, 1), vmac_rule(2, 2)];
        let t = deploy(rules.clone());
        let diff = diff_base_table(&t, &classifier(rules), 2);
        assert!(diff.batch.is_empty());
        assert_eq!(diff.unchanged, 3, "both rules and the catch-all");
        assert!(!diff.rebased);
    }

    #[test]
    fn single_insert_touches_one_rule() {
        let t = deploy(vec![vmac_rule(1, 1), vmac_rule(3, 3)]);
        let new = vec![vmac_rule(1, 1), vmac_rule(2, 2), vmac_rule(3, 3)];
        let diff = diff_base_table(&t, &classifier(new), 2);
        assert_eq!(diff.batch.len(), 1, "one Add only: {:?}", diff.batch);
        assert_eq!(diff.batch.stats().adds, 1);
        assert_eq!(diff.unchanged, 3);
        // The add lands strictly between the surviving neighbours.
        let mut t2 = t.clone();
        t2.apply_batch(&diff.batch).unwrap();
        let order: Vec<u64> = t2.entries().iter().map(|e| e.cookie).collect();
        assert_eq!(order, vec![2, 3, 4, 0]);
    }

    #[test]
    fn action_change_is_a_modify_preserving_counters() {
        let mut t = deploy(vec![vmac_rule(1, 1), vmac_rule(2, 2)]);
        // Traffic hits rule for vmac 1.
        let lp = sdx_net::LocatedPacket::at(
            PortId::Phys(ParticipantId(9), 1),
            sdx_net::Packet::tcp(sdx_net::ip("1.1.1.1"), sdx_net::ip("2.2.2.2"), 1, 2)
                .with_macs(MacAddr::physical(9), MacAddr::vmac(1)),
        );
        t.lookup(&lp).expect("hits");
        let new = vec![vmac_rule(1, 7), vmac_rule(2, 2)]; // rerouted group 1
        let diff = diff_base_table(&t, &classifier(new), 2);
        assert_eq!(diff.batch.stats().modifies, 1);
        assert_eq!(diff.batch.len(), 1);
        t.apply_batch(&diff.batch).unwrap();
        let e = t.entries_with_cookie(2).next().unwrap();
        assert_eq!(e.packet_count, 1, "counters survive the modify");
        assert_eq!(
            e.buckets[0][0],
            Mod::SetLoc(PortId::Phys(ParticipantId(7), 1))
        );
    }

    #[test]
    fn removal_deletes_exactly_the_vanished_rule() {
        let t = deploy(vec![vmac_rule(1, 1), vmac_rule(2, 2), vmac_rule(3, 3)]);
        let new = vec![vmac_rule(1, 1), vmac_rule(3, 3)];
        let diff = diff_base_table(&t, &classifier(new), 2);
        assert_eq!(diff.batch.stats().deletes, 1);
        assert_eq!(diff.batch.len(), 1);
        let mut t2 = t.clone();
        t2.apply_batch(&diff.batch).unwrap();
        assert_eq!(t2.cookie_count(3), 0);
        assert_eq!(t2.len(), 3, "two rules + catch-all survive");
    }

    #[test]
    fn gap_exhaustion_falls_back_to_rebase() {
        // Deploy two rules, then repeatedly squeeze inserts between the
        // same neighbours until the gap runs dry. log2(DELTA_BASE) ≈ 30
        // halvings; 64 rounds must trigger at least one rebase without
        // ever corrupting order.
        let mut t = deploy(vec![vmac_rule(1, 1), vmac_rule(1000, 1)]);
        let mut rules = vec![vmac_rule(1, 1), vmac_rule(1000, 1)];
        let mut saw_rebase = false;
        for id in 2..66u32 {
            rules.insert(1, vmac_rule(id, 1));
            let c = classifier(rules.clone());
            let diff = diff_base_table(&t, &c, u64::from(id));
            saw_rebase |= diff.rebased;
            t.apply_batch(&diff.batch).expect("batch applies");
            let prios: Vec<u32> = t.entries().iter().map(|e| e.priority).collect();
            assert!(prios.windows(2).all(|w| w[0] > w[1]), "order intact");
            assert_eq!(t.len(), c.rules().len());
            // First-match order always mirrors classifier order.
            let got: Vec<u64> = t.entries().iter().map(|e| e.cookie).collect();
            let want: Vec<u64> = c.rules().iter().map(|r| cookie_of(&r.matches)).collect();
            assert_eq!(got, want);
        }
        assert!(saw_rebase, "64 same-spot inserts must exhaust some gap");
    }

    #[test]
    fn delta_overlays_above_base_are_ignored() {
        let mut t = deploy(vec![vmac_rule(1, 1)]);
        t.install(
            FlowEntry::new(
                DELTA_BASE + 5,
                HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(99))),
                vec![vec![Mod::SetLoc(PortId::Phys(ParticipantId(9), 1))]],
            )
            .with_cookie(100),
        );
        let diff = diff_base_table(&t, &classifier(vec![vmac_rule(1, 1)]), 2);
        assert!(diff.batch.is_empty(), "overlay band untouched by the diff");
    }

    #[test]
    fn infrastructure_rules_carry_cookie_zero() {
        assert_eq!(cookie_of(&HeaderMatch::any()), 0);
        assert_eq!(
            cookie_of(&HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(0)))),
            1
        );
    }
}
