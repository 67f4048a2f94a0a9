//! The typed flow-mod protocol: the controller→fabric boundary.
//!
//! Instead of swapping whole rule tables, the SDX controller describes
//! every data-plane change as a batch of typed modifications — the
//! OpenFlow `FLOW_MOD` triple of `ADD` / `MODIFY` / `DELETE` — stamped
//! with the commit epoch that produced it. Batches are applied
//! **atomically**, in place under an undo journal: a rejected batch is
//! rolled back run by run and leaves the table exactly as it was (the
//! transactional guarantee `core::txn` builds on).
//!
//! This is what makes re-optimization churn proportional to *change*
//! rather than to table size: a one-prefix BGP event becomes a handful
//! of mods, not a table rewrite, and the per-batch [`BatchStats`] are
//! the churn currency the telemetry layer reports and the rule-churn
//! tests bound.

use core::fmt;

use sdx_net::{HeaderMatch, MacAddr, Mod, WordSet};

use crate::table::{FlowEntry, FlowTable};

/// One typed table modification.
#[derive(Clone, PartialEq, Debug)]
pub enum FlowMod {
    /// Install a new entry. Rejected if an entry with the same
    /// (priority, pattern) already exists — a delta protocol never
    /// silently overwrites; it says `Modify` when it means modify.
    Add(FlowEntry),
    /// Replace the buckets (and cookie) of the entry at (priority,
    /// pattern), preserving its traffic counters. Rejected if absent.
    Modify {
        /// Priority of the target entry.
        priority: u32,
        /// Pattern of the target entry.
        pattern: HeaderMatch,
        /// The new action buckets.
        buckets: Vec<Vec<Mod>>,
        /// The new cookie.
        cookie: u64,
    },
    /// Remove the entry at exactly (priority, pattern). Rejected if
    /// absent — retired rules must be *deleted*, never assumed gone.
    Delete {
        /// Priority of the target entry.
        priority: u32,
        /// Pattern of the target entry.
        pattern: HeaderMatch,
    },
}

/// An atomic batch of flow mods, tagged with the controller commit epoch
/// that produced it.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FlowModBatch {
    /// The controller's reconciliation epoch (monotonic per commit).
    pub epoch: u64,
    /// The modifications, applied in order.
    pub mods: Vec<FlowMod>,
}

impl FlowModBatch {
    /// An empty batch for `epoch`.
    pub fn new(epoch: u64) -> Self {
        FlowModBatch {
            epoch,
            mods: Vec::new(),
        }
    }

    /// Appends one mod.
    pub fn push(&mut self, m: FlowMod) {
        self.mods.push(m);
    }

    /// Number of mods in the batch.
    pub fn len(&self) -> usize {
        self.mods.len()
    }

    /// True if the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.mods.is_empty()
    }

    /// The add/modify/delete breakdown, without applying anything.
    pub fn stats(&self) -> BatchStats {
        let mut s = BatchStats::default();
        for m in &self.mods {
            match m {
                FlowMod::Add(_) => s.adds += 1,
                FlowMod::Modify { .. } => s.modifies += 1,
                FlowMod::Delete { .. } => s.deletes += 1,
            }
        }
        s
    }
}

/// Per-batch application counts — the unit of churn accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BatchStats {
    /// Entries installed.
    pub adds: usize,
    /// Entries whose buckets were replaced in place.
    pub modifies: usize,
    /// Entries removed.
    pub deletes: usize,
}

impl BatchStats {
    /// Total mods applied.
    pub fn total(&self) -> usize {
        self.adds + self.modifies + self.deletes
    }
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{} ~{} -{}", self.adds, self.modifies, self.deletes)
    }
}

/// Why a batch was rejected. The whole batch is discarded; the table is
/// exactly as it was before [`FlowTable::apply_batch`].
#[derive(Clone, PartialEq, Debug)]
pub enum FlowModError {
    /// An `Add` targeted a (priority, pattern) slot already occupied.
    DuplicateAdd {
        /// Priority of the colliding slot.
        priority: u32,
        /// Pattern of the colliding slot.
        pattern: HeaderMatch,
    },
    /// A `Modify` or `Delete` targeted a (priority, pattern) slot with no
    /// entry in it.
    MissingTarget {
        /// `"modify"` or `"delete"`.
        op: &'static str,
        /// Priority of the empty slot.
        priority: u32,
        /// Pattern of the empty slot.
        pattern: HeaderMatch,
    },
    /// The batch deletes the rule handling a VMAC tag (the entry whose
    /// pattern matches that `dl_dst`) while other mods in the *same*
    /// batch still install buckets that rewrite packets to the tag and
    /// re-enter the fabric: the moment the batch commits, those packets
    /// would hit a table with no next-stage rule for them.
    DanglingTarget {
        /// The VMAC whose handler the batch removes while still
        /// referencing it as a next-stage target.
        vmac: MacAddr,
    },
}

impl fmt::Display for FlowModError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowModError::DuplicateAdd { priority, pattern } => write!(
                f,
                "flow-mod add collides with live entry at priority {priority} ({pattern:?})"
            ),
            FlowModError::MissingTarget {
                op,
                priority,
                pattern,
            } => write!(
                f,
                "flow-mod {op} targets no entry at priority {priority} ({pattern:?})"
            ),
            FlowModError::DanglingTarget { vmac } => write!(
                f,
                "flow-mod batch deletes the handler for {vmac} while other \
                 mods in the batch still reference it as a next-stage target"
            ),
        }
    }
}

/// Calls `tag` with each VMAC tag (FEC id) `buckets` writes into `dl_dst`
/// on packets that do not leave at a physical port — such packets
/// re-enter the classifier and *reference* the tag's handler rule.
fn referenced_tags(buckets: &[Vec<Mod>], mut tag: impl FnMut(u32)) {
    for bucket in buckets {
        let mut written = None;
        let mut physical_exit = false;
        for m in bucket {
            match m {
                Mod::SetDlDst(mac) => written = mac.fec_id(),
                Mod::SetLoc(p) => physical_exit = p.is_physical(),
                _ => {}
            }
        }
        if let (Some(v), false) = (written, physical_exit) {
            tag(v);
        }
    }
}

/// A set of VMAC tags: small integers the controller assigned.
type TagSet = WordSet<u32>;

/// One record of [`FlowTable::apply_batch`]'s undo journal: what it takes
/// to reverse a run, or a modify, that already landed in the table.
#[derive(Debug)]
enum Undo {
    /// A run of `n` adds landed at the last `n` journaled positions (as
    /// they are after the run).
    Added(usize),
    /// A run of `n` deletes took the last `n` journaled entries from the
    /// last `n` journaled positions (as they were before the run).
    Deleted(usize),
    /// A `Modify` replaced these buckets and this cookie at `pos`.
    Modified {
        pos: usize,
        buckets: Vec<Vec<Mod>>,
        cookie: u64,
    },
}

/// What it takes to reverse one applied batch: the table's epoch before
/// it, one record per landed run or modify in landing order, and, run
/// after run, the positions the runs landed at and the entries the
/// deletes displaced (in table order, counters included).
/// [`FlowTable::undo_batch`] replays it; it is valid as long as every
/// table mutation made after the batch has itself been undone.
#[derive(Debug)]
pub struct BatchUndo {
    epoch: u64,
    journal: Vec<Undo>,
    positions: Vec<usize>,
    removed: Vec<FlowEntry>,
}

/// Past this many pending deletes, telling whether a position is one of
/// them reads a bitmap instead of scanning the run.
const SCANNED_DELETES: usize = 16;

/// What a batch carries while its mods are validated: the runs not yet
/// in the table — adds of descending priority, and deletes by table
/// position, which land together, deletes first, each in one pass — and
/// the handlers it deletes, for the dangling-target check.
#[derive(Default)]
struct Staging {
    /// The adds, each with the end of its priority band in the table it
    /// was validated against.
    adds: Vec<(FlowEntry, usize)>,
    /// The deletes' positions, in arrival order, are the journal's
    /// positions from this index on.
    deletes_from: usize,
    /// The same positions as a bitmap, kept once there are more than
    /// [`SCANNED_DELETES`] of them; empty until then.
    marked: Vec<u64>,
    /// The tags whose handlers the batch deletes, in order, repeats and
    /// all.
    removed_handlers: Vec<u32>,
}

impl Staging {
    /// True if a pending delete targets `pos`: the entry there is as good
    /// as gone.
    fn deletes(&self, pos: usize, undo: &BatchUndo) -> bool {
        if self.marked.is_empty() {
            undo.positions[self.deletes_from..].contains(&pos)
        } else {
            self.marked
                .get(pos / 64)
                .is_some_and(|w| w >> (pos % 64) & 1 == 1)
        }
    }

    fn delete(&mut self, pos: usize, undo: &mut BatchUndo) {
        undo.positions.push(pos);
        let run = &undo.positions[self.deletes_from..];
        if !self.marked.is_empty() {
            mark(&mut self.marked, pos);
        } else if run.len() > SCANNED_DELETES {
            for &p in run {
                mark(&mut self.marked, p);
            }
        }
    }
}

fn mark(bits: &mut Vec<u64>, pos: usize) {
    if bits.len() <= pos / 64 {
        bits.resize(pos / 64 + 1, 0);
    }
    bits[pos / 64] |= 1 << (pos % 64);
}

impl FlowTable {
    /// Applies a batch atomically and **in place**: each mod is validated
    /// against the table as the mods before it left it, and lands with
    /// the run it belongs to, journaled; if a later mod (or the
    /// dangling-target check) rejects the batch, the journal is replayed
    /// backwards and the table — entries, counters, cookie index, matcher
    /// and epoch — is exactly as it was. The cost follows the batch, not
    /// the table: nothing is cloned, a run of deletes or of adds lands in
    /// one pass that moves the shorter side of the table, and a run at
    /// the table's head moves only itself. `Modify` preserves the
    /// target's traffic counters. On success the epoch advances by one
    /// per mod.
    pub fn apply_batch(&mut self, batch: &FlowModBatch) -> Result<BatchStats, FlowModError> {
        self.apply_batch_undoable(batch).map(|(stats, _)| stats)
    }

    /// [`apply_batch`](Self::apply_batch), keeping the journal of an
    /// accepted batch so that a caller whose own later step fails can
    /// [`undo_batch`](Self::undo_batch) it.
    pub fn apply_batch_undoable(
        &mut self,
        batch: &FlowModBatch,
    ) -> Result<(BatchStats, BatchUndo), FlowModError> {
        // Sized once: a batch's runs journal one position per add or
        // delete, one entry per delete, and most batches are two runs.
        let kinds = batch.stats();
        let mut undo = BatchUndo {
            epoch: self.epoch(),
            journal: Vec::with_capacity(kinds.modifies + 2),
            positions: Vec::with_capacity(kinds.adds + kinds.deletes),
            removed: Vec::with_capacity(kinds.deletes),
        };
        match self.apply_journaled(batch, &mut undo) {
            Ok(stats) => {
                self.set_epoch(undo.epoch + batch.len() as u64);
                Ok((stats, undo))
            }
            Err(e) => {
                self.undo_batch(undo);
                Err(e)
            }
        }
    }

    /// Replays a batch's journal backwards, one pass per run: entries,
    /// counters, band order, cookie index, matcher and epoch are as they
    /// were before the batch.
    pub fn undo_batch(&mut self, undo: BatchUndo) {
        let BatchUndo {
            epoch,
            journal,
            mut positions,
            mut removed,
        } = undo;
        for step in journal.into_iter().rev() {
            match step {
                Undo::Added(n) => {
                    let at = positions.len() - n;
                    self.remove_run(&positions[at..], drop);
                    positions.truncate(at);
                }
                Undo::Deleted(n) => {
                    let at = positions.len() - n;
                    let from = removed.len() - n;
                    self.insert_run(removed.drain(from..), &positions[at..]);
                    positions.truncate(at);
                }
                Undo::Modified {
                    pos,
                    buckets,
                    cookie,
                } => {
                    self.replace_at(pos, buckets, cookie);
                }
            }
        }
        self.set_epoch(epoch);
    }

    /// Lands the pending runs, deletes first, journaling one record each.
    fn land(&mut self, staging: &mut Staging, undo: &mut BatchUndo) {
        let deletes = &mut undo.positions[staging.deletes_from..];
        if !deletes.is_empty() {
            deletes.sort_unstable();
            self.remove_run(deletes, |e| undo.removed.push(e));
            undo.journal.push(Undo::Deleted(deletes.len()));
            staging.marked.clear();
        }
        if !staging.adds.is_empty() {
            // Each add lands after every entry of its priority or higher
            // — its band's end, less the deletes that just landed in front
            // of it — and after the adds before it in the run.
            let start = undo.positions.len();
            let mut gone = staging.deletes_from;
            for (j, &(_, band_end)) in staging.adds.iter().enumerate() {
                while gone < start && undo.positions[gone] < band_end {
                    gone += 1;
                }
                undo.positions
                    .push(band_end - (gone - staging.deletes_from) + j);
            }
            undo.journal.push(Undo::Added(staging.adds.len()));
            let run = staging.adds.drain(..).map(|(e, _)| e);
            self.insert_run(run, &undo.positions[start..]);
        }
        staging.deletes_from = undo.positions.len();
    }

    /// The position a `Modify`/`Delete` targets. A miss may only mean the
    /// target is an add of this same batch that has not landed yet, so
    /// the pending runs land first and the lookup is retried.
    fn target_of(
        &mut self,
        op: &'static str,
        priority: u32,
        pattern: &HeaderMatch,
        staging: &mut Staging,
        undo: &mut BatchUndo,
    ) -> Result<usize, FlowModError> {
        // A pending delete's target is as good as gone.
        let live = self.position_of(priority, pattern);
        if let Some(pos) = live.filter(|&pos| !staging.deletes(pos, undo)) {
            return Ok(pos);
        }
        self.land(staging, undo);
        self.position_of(priority, pattern)
            .ok_or(FlowModError::MissingTarget {
                op,
                priority,
                pattern: *pattern,
            })
    }

    fn apply_journaled(
        &mut self,
        batch: &FlowModBatch,
        undo: &mut BatchUndo,
    ) -> Result<BatchStats, FlowModError> {
        let mut staging = Staging {
            deletes_from: undo.positions.len(),
            ..Staging::default()
        };
        let stats = match self.stage(batch, &mut staging, undo) {
            Ok(stats) => stats,
            Err(e) => {
                // Deletes still pending have nothing in the table to undo.
                undo.positions.truncate(staging.deletes_from);
                return Err(e);
            }
        };
        self.land(&mut staging, undo);
        self.check_dangling(batch, &staging.removed_handlers)?;
        Ok(stats)
    }

    /// Validates the mods in order, each against the table as the mods
    /// before it left it. Adds wait as one run of descending priority,
    /// deletes as one run of positions; an add that would break its run
    /// lands both first. Controller batches (overlays, sync images,
    /// retirements) are one run each. The last runs are left pending.
    fn stage(
        &mut self,
        batch: &FlowModBatch,
        staging: &mut Staging,
        undo: &mut BatchUndo,
    ) -> Result<BatchStats, FlowModError> {
        let mut stats = BatchStats::default();
        for m in &batch.mods {
            match m {
                FlowMod::Add(entry) => {
                    if staging
                        .adds
                        .last()
                        .is_some_and(|(l, _)| l.priority < entry.priority)
                    {
                        self.land(staging, undo);
                    }
                    let band = staging
                        .adds
                        .partition_point(|(e, _)| e.priority > entry.priority);
                    let (live, band_end) = self.locate(entry.priority, &entry.pattern);
                    if live.is_some_and(|pos| !staging.deletes(pos, undo))
                        || staging.adds[band..]
                            .iter()
                            .any(|(e, _)| e.pattern == entry.pattern)
                    {
                        return Err(FlowModError::DuplicateAdd {
                            priority: entry.priority,
                            pattern: entry.pattern,
                        });
                    }
                    staging.adds.push((entry.clone(), band_end));
                    stats.adds += 1;
                }
                FlowMod::Modify {
                    priority,
                    pattern,
                    buckets,
                    cookie,
                } => {
                    let pos = self.target_of("modify", *priority, pattern, staging, undo)?;
                    let (old_buckets, old_cookie) = self.replace_at(pos, buckets.clone(), *cookie);
                    undo.journal.push(Undo::Modified {
                        pos,
                        buckets: old_buckets,
                        cookie: old_cookie,
                    });
                    stats.modifies += 1;
                }
                FlowMod::Delete { priority, pattern } => {
                    let pos = self.target_of("delete", *priority, pattern, staging, undo)?;
                    staging.delete(pos, undo);
                    staging
                        .removed_handlers
                        .extend(pattern.dl_dst.and_then(|m| m.fec_id()));
                    stats.deletes += 1;
                }
            }
        }
        Ok(stats)
    }

    /// The dangling-target check, on the finished table: if the batch
    /// deleted the handler for a tag its own new buckets still reference,
    /// and the result keeps a referencing rule but no replacement
    /// handler, the batch would leave re-entering packets unmatchable —
    /// reject it, naming the first such handler deleted. Nothing to do
    /// unless the batch deleted a handler; one pass over the table finds
    /// the handlers still there, and a second, only if one is not, the
    /// references.
    fn check_dangling(
        &self,
        batch: &FlowModBatch,
        removed_handlers: &[u32],
    ) -> Result<(), FlowModError> {
        if removed_handlers.is_empty() {
            return Ok(());
        }
        let removed: TagSet = removed_handlers.iter().copied().collect();
        let mut orphans = TagSet::default();
        for m in &batch.mods {
            if let FlowMod::Add(FlowEntry { buckets, .. }) | FlowMod::Modify { buckets, .. } = m {
                referenced_tags(buckets, |v| {
                    if removed.contains(&v) {
                        orphans.insert(v);
                    }
                });
            }
        }
        if orphans.is_empty() {
            return Ok(());
        }
        for e in self.entries() {
            if let Some(v) = e.pattern.dl_dst.and_then(|m| m.fec_id()) {
                if orphans.remove(&v) && orphans.is_empty() {
                    return Ok(());
                }
            }
        }
        let mut referenced = TagSet::default();
        for e in self.entries() {
            referenced_tags(&e.buckets, |v| {
                if orphans.contains(&v) {
                    referenced.insert(v);
                }
            });
        }
        match removed_handlers.iter().find(|v| referenced.contains(v)) {
            Some(&v) => Err(FlowModError::DanglingTarget {
                vmac: MacAddr::vmac(v),
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{FieldMatch, ParticipantId, PortId};

    fn out(n: u32) -> Vec<Vec<Mod>> {
        vec![vec![Mod::SetLoc(PortId::Phys(ParticipantId(n), 1))]]
    }

    fn seeded() -> FlowTable {
        let mut t = FlowTable::new();
        t.install(
            FlowEntry::new(10, HeaderMatch::of(FieldMatch::TpDst(80)), out(2)).with_cookie(1),
        );
        t.install(FlowEntry::new(5, HeaderMatch::any(), vec![]).with_cookie(0));
        t
    }

    #[test]
    fn batch_applies_in_order_and_counts() {
        let mut t = seeded();
        let m443 = HeaderMatch::of(FieldMatch::TpDst(443));
        let batch = FlowModBatch {
            epoch: 3,
            mods: vec![
                FlowMod::Add(FlowEntry::new(7, m443, out(3)).with_cookie(2)),
                FlowMod::Modify {
                    priority: 10,
                    pattern: HeaderMatch::of(FieldMatch::TpDst(80)),
                    buckets: out(4),
                    cookie: 9,
                },
                FlowMod::Delete {
                    priority: 5,
                    pattern: HeaderMatch::any(),
                },
            ],
        };
        assert_eq!(batch.stats(), batch.clone().stats());
        let stats = t.apply_batch(&batch).expect("valid batch");
        assert_eq!(
            stats,
            BatchStats {
                adds: 1,
                modifies: 1,
                deletes: 1
            }
        );
        assert_eq!(stats.total(), 3);
        assert_eq!(t.len(), 2);
        assert_eq!(t.cookie_count(9), 1);
        assert_eq!(t.cookie_count(1), 0);
        assert_eq!(t.entries()[0].buckets, out(4));
    }

    #[test]
    fn modify_preserves_counters() {
        let mut t = seeded();
        // Put traffic on the port-80 entry first.
        use sdx_net::{ip, LocatedPacket, Packet};
        let lp = LocatedPacket::at(
            PortId::Phys(ParticipantId(1), 1),
            Packet::tcp(ip("1.1.1.1"), ip("2.2.2.2"), 5, 80).with_len(64),
        );
        t.lookup(&lp);
        assert_eq!(t.entries()[0].packet_count, 1);
        t.apply_batch(&FlowModBatch {
            epoch: 1,
            mods: vec![FlowMod::Modify {
                priority: 10,
                pattern: HeaderMatch::of(FieldMatch::TpDst(80)),
                buckets: out(7),
                cookie: 1,
            }],
        })
        .expect("modify");
        assert_eq!(t.entries()[0].packet_count, 1, "counters survive modify");
        assert_eq!(t.entries()[0].byte_count, 64);
        assert_eq!(t.entries()[0].buckets, out(7));
    }

    #[test]
    fn rejected_batch_leaves_table_untouched() {
        let mut t = seeded();
        let before = t.clone();
        // Second mod is invalid: the whole batch must be discarded even
        // though the first add is fine.
        let err = t
            .apply_batch(&FlowModBatch {
                epoch: 2,
                mods: vec![
                    FlowMod::Add(FlowEntry::new(
                        99,
                        HeaderMatch::of(FieldMatch::TpDst(22)),
                        out(5),
                    )),
                    FlowMod::Delete {
                        priority: 1234,
                        pattern: HeaderMatch::any(),
                    },
                ],
            })
            .expect_err("missing delete target");
        assert!(matches!(
            err,
            FlowModError::MissingTarget { op: "delete", .. }
        ));
        assert_eq!(t, before, "atomicity: nothing from the batch landed");
    }

    #[test]
    fn duplicate_add_is_rejected() {
        let mut t = seeded();
        let err = t
            .apply_batch(&FlowModBatch {
                epoch: 2,
                mods: vec![FlowMod::Add(FlowEntry::new(
                    10,
                    HeaderMatch::of(FieldMatch::TpDst(80)),
                    out(9),
                ))],
            })
            .expect_err("slot occupied");
        assert!(matches!(
            err,
            FlowModError::DuplicateAdd { priority: 10, .. }
        ));
        // Errors render readably.
        assert!(err.to_string().contains("priority 10"));
    }

    #[test]
    fn deleting_a_handler_the_batch_still_references_is_rejected() {
        let vmac7 = HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(7)));
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(10, vmac7, out(2)));
        // The add rewrites traffic to vmac 7 and re-enters the fabric, so
        // it references the very handler the delete removes.
        let emit = vec![vec![
            Mod::SetDlDst(MacAddr::vmac(7)),
            Mod::SetLoc(PortId::Virt(ParticipantId(3))),
        ]];
        let before = t.clone();
        let err = t
            .apply_batch(&FlowModBatch {
                epoch: 1,
                mods: vec![
                    FlowMod::Add(FlowEntry::new(
                        20,
                        HeaderMatch::of(FieldMatch::TpDst(80)),
                        emit.clone(),
                    )),
                    FlowMod::Delete {
                        priority: 10,
                        pattern: vmac7,
                    },
                ],
            })
            .expect_err("dangling next-stage target");
        assert!(matches!(err, FlowModError::DanglingTarget { .. }));
        assert!(err.to_string().contains("next-stage"));
        assert_eq!(t, before, "rejected batch leaves the table untouched");

        // Installing a replacement handler in the same batch heals the
        // reference, so the batch is accepted.
        t.apply_batch(&FlowModBatch {
            epoch: 1,
            mods: vec![
                FlowMod::Add(FlowEntry::new(
                    20,
                    HeaderMatch::of(FieldMatch::TpDst(80)),
                    emit,
                )),
                FlowMod::Delete {
                    priority: 10,
                    pattern: vmac7,
                },
                FlowMod::Add(FlowEntry::new(11, vmac7, out(4))),
            ],
        })
        .expect("replacement handler heals the reference");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn deleting_handler_and_every_referencing_rule_together_is_fine() {
        let vmac7 = HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(7)));
        let emit = vec![vec![
            Mod::SetDlDst(MacAddr::vmac(7)),
            Mod::SetLoc(PortId::Virt(ParticipantId(3))),
        ]];
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(10, vmac7, out(2)));
        t.install(FlowEntry::new(
            20,
            HeaderMatch::of(FieldMatch::TpDst(80)),
            emit.clone(),
        ));
        // Retiring the whole chain in one atomic batch leaves nothing
        // dangling — but the emitter's buckets ARE batch-referenced via a
        // Modify that itself drops the tag, so only surviving references
        // count.
        t.apply_batch(&FlowModBatch {
            epoch: 2,
            mods: vec![
                FlowMod::Delete {
                    priority: 20,
                    pattern: HeaderMatch::of(FieldMatch::TpDst(80)),
                },
                FlowMod::Delete {
                    priority: 10,
                    pattern: vmac7,
                },
            ],
        })
        .expect("whole chain retired atomically");
        assert!(t.is_empty());
    }

    #[test]
    fn modifying_a_slot_the_batch_deleted_has_no_target() {
        let mut t = seeded();
        let before = t.clone();
        let m80 = HeaderMatch::of(FieldMatch::TpDst(80));
        let err = t
            .apply_batch(&FlowModBatch {
                epoch: 4,
                mods: vec![
                    FlowMod::Delete {
                        priority: 10,
                        pattern: m80,
                    },
                    FlowMod::Modify {
                        priority: 10,
                        pattern: m80,
                        buckets: out(6),
                        cookie: 3,
                    },
                ],
            })
            .expect_err("the delete emptied the slot");
        assert_eq!(
            err,
            FlowModError::MissingTarget {
                op: "modify",
                priority: 10,
                pattern: m80
            }
        );
        assert_eq!(t, before);
        assert_eq!(t.epoch(), before.epoch());
        assert_eq!(t.cookie_count(1), 1);
    }

    #[test]
    fn batch_within_itself_can_delete_then_readd() {
        // Validation is sequential against the staged state, so a batch
        // may free a slot and refill it.
        let mut t = seeded();
        t.apply_batch(&FlowModBatch {
            epoch: 4,
            mods: vec![
                FlowMod::Delete {
                    priority: 10,
                    pattern: HeaderMatch::of(FieldMatch::TpDst(80)),
                },
                FlowMod::Add(FlowEntry::new(
                    10,
                    HeaderMatch::of(FieldMatch::TpDst(80)),
                    out(6),
                )),
            ],
        })
        .expect("delete-then-add");
        assert_eq!(t.entries()[0].buckets, out(6));
        assert_eq!(t.entries()[0].packet_count, 0, "re-add resets counters");
    }
}
