//! Provably safe update scheduling: dependency-DAG flow-mod waves.
//!
//! [`crate::reconcile::diff_base_table`] emits the *minimal* batch that
//! patches the deployed table — but minimal says nothing about *order*.
//! A real switch applies flow-mods over time, and a half-applied batch is
//! a live table: delete a rule before its replacement exists and the
//! overlap traffic falls through to whatever lies beneath; install a
//! low-priority clause before the high-priority clause that shadows it
//! and packets take a route neither the old nor the new configuration
//! ever prescribed.
//!
//! This module turns a [`FlowModBatch`] into an [`UpdatePlan`]: a
//! dependency DAG over the batch's operations, partitioned into maximal
//! **waves** of mutually independent mods. Each wave is applied as one
//! atomic batch (a commit barrier); between waves the table is a live
//! intermediate state, and the dependency edges guarantee that every such
//! state routes each packet either the *old* way or the *new* way — the
//! per-packet consistency discipline of consistent-updates work, applied
//! to the SDX's single-stage classifier:
//!
//! * **same-slot replace** — a `Delete` and an `Add` at identical
//!   (priority, pattern) fuse into one wave, delete ordered first inside
//!   the atomic batch, so the slot never flickers empty;
//! * **make-before-break** — an `Add` or `Modify` precedes every
//!   overlapping `Delete`, so traffic leaving a doomed rule has its new
//!   rule waiting;
//! * **shadow order** — of two overlapping `Add`s the higher priority
//!   lands first (it shadows, so the overlap flips straight to the new
//!   behaviour); of two overlapping `Delete`s the lower priority goes
//!   first (the overlap keeps its old behaviour until the end); an `Add`
//!   above an overlapping `Modify` precedes it;
//! * **tag reference order** — a rule whose buckets rewrite `dl_dst` to a
//!   VMAC and re-enter the fabric *references* the rule matching that
//!   VMAC: the handler's `Add` precedes the referencing rule, and
//!   referencing rules are deleted before the handler's `Delete`
//!   (add-before-reference / delete-after-unreference).
//!
//! [`drive`] then pushes the waves through [`Fabric::apply_flowmods`]
//! with an optional per-wave checker (the oracle crate supplies one that
//! walks a packet corpus over every intermediate table; the daemon's
//! fans each wave out to its switch agents) and a [`FaultPlan`] crossing
//! per wave ([`InjectionPoint::FlowModApply`]). It is all or nothing and
//! retries nothing: an injected wave failure, a checker refusal or a
//! switch rejection rewinds every wave it landed.
//! [`SdxController::commit`](crate::SdxController::commit) is its one
//! caller in the controller, for a burst's overlay and a recompile's
//! patch alike, and rolls the rest of the change back with it.

use std::collections::BTreeMap;

use sdx_net::{HeaderMatch, MacAddr, Mod};
use sdx_openflow::fabric::{Fabric, WaveUndo};
use sdx_openflow::flowmod::{FlowMod, FlowModBatch};
use sdx_openflow::table::FlowTable;
use sdx_telemetry::{Event, SharedRegistry};

use crate::error::SdxError;
use crate::faults::{FaultPlan, InjectionPoint};

/// The operation kind, ordered by within-wave application order: deletes
/// first (frees same-slot positions), then modifies, then adds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    Delete,
    Modify,
    Add,
}

/// Per-op analysis extracted once from the batch + pre-update table.
struct OpInfo {
    kind: Kind,
    priority: u32,
    pattern: HeaderMatch,
    /// The VMAC FEC id this rule's pattern matches (it *handles* the tag).
    handles: Option<u32>,
    /// Tags the op's **new** buckets write into `dl_dst` before sending
    /// the packet somewhere non-physical (it will re-enter and reference
    /// the tag's handler). Empty for `Delete`.
    emits_new: Vec<u32>,
    /// Tags the op's **old** buckets (from the pre-update table) emitted.
    /// Empty for `Add`.
    emits_old: Vec<u32>,
}

/// Tags a bucket list writes into `dl_dst` on packets that do not leave
/// at a physical port (so the classifier will see them again).
fn emitted_tags(buckets: &[Vec<Mod>]) -> Vec<u32> {
    let mut tags = Vec::new();
    for bucket in buckets {
        let mut tag = None;
        let mut physical_exit = false;
        for m in bucket {
            match m {
                Mod::SetDlDst(mac) => tag = mac.fec_id(),
                Mod::SetLoc(p) => physical_exit = p.is_physical(),
                _ => {}
            }
        }
        if let Some(v) = tag {
            if !physical_exit && !tags.contains(&v) {
                tags.push(v);
            }
        }
    }
    tags
}

/// A schedule: the batch's mods partitioned into dependency-ordered
/// waves, each itself an atomic [`FlowModBatch`] (same epoch).
#[derive(Clone, Debug)]
pub struct UpdatePlan {
    /// The commit epoch of the source batch, stamped on every wave.
    pub epoch: u64,
    /// The waves, in application order. Mods within a wave are mutually
    /// independent except for fused same-slot delete→add pairs, which the
    /// wave's internal order (deletes, then modifies, then adds) handles.
    pub waves: Vec<FlowModBatch>,
    /// Dependency edges found between distinct waves-to-be (a measure of
    /// how constrained the batch was).
    pub dependencies: usize,
    /// True when the plan is a single atomic wave although its mods
    /// depend on one another, because the dependency graph had a cycle.
    /// Always safe, never wrong — just maximally conservative.
    pub collapsed: bool,
}

impl UpdatePlan {
    /// Number of waves.
    pub fn wave_count(&self) -> usize {
        self.waves.len()
    }

    /// The widest wave (mods applied in one barrier), 0 if empty.
    pub fn max_wave_width(&self) -> usize {
        self.waves.iter().map(FlowModBatch::len).max().unwrap_or(0)
    }

    /// Total mods across all waves (= the source batch's length).
    pub fn total_mods(&self) -> usize {
        self.waves.iter().map(FlowModBatch::len).sum()
    }

    /// True when there is nothing to apply.
    pub fn is_empty(&self) -> bool {
        self.waves.is_empty()
    }
}

/// How a recompile pushes its patch: the one difference between the
/// callers of [`SdxController::prepare`](crate::SdxController::prepare).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Waves {
    /// The whole patch under one barrier, as
    /// [`diff_base_table`](crate::reconcile::diff_base_table) emitted it
    /// — a burst or policy push, where the wait for the switches is the
    /// participant's latency, and every in-process re-optimization.
    Atomic,
    /// Dependency-ordered waves with a barrier each ([`plan`]) — an
    /// operator re-optimization, where no intermediate table may misroute.
    Ordered,
}

impl Waves {
    /// Partitions `batch`, a patch of the pre-update `table`, into waves
    /// this way. An atomic plan is the batch as its only wave (none for an
    /// empty batch), with no dependency analysis: its `dependencies` is 0
    /// and it is not `collapsed`.
    pub fn plan(self, table: &FlowTable, batch: FlowModBatch) -> UpdatePlan {
        match self {
            Waves::Ordered => plan(table, &batch),
            Waves::Atomic => UpdatePlan {
                epoch: batch.epoch,
                waves: if batch.is_empty() {
                    Vec::new()
                } else {
                    vec![batch]
                },
                dependencies: 0,
                collapsed: false,
            },
        }
    }
}

/// Union-find over op indices (path-halving).
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra] = rb;
    }
}

/// Builds the dependency-DAG schedule for `batch` against the
/// **pre-update** `table` (needed to recover the buckets a `Modify` or
/// `Delete` is retiring). The plan's waves, applied in order with any
/// interleaving *within* a wave, keep every intermediate table
/// per-packet contained between the old and the new table.
pub fn plan(table: &FlowTable, batch: &FlowModBatch) -> UpdatePlan {
    let n = batch.mods.len();
    if n == 0 {
        return UpdatePlan {
            epoch: batch.epoch,
            waves: Vec::new(),
            dependencies: 0,
            collapsed: false,
        };
    }

    // Pre-update entries indexed by priority, for old-bucket recovery.
    let mut by_priority: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, e) in table.entries().iter().enumerate() {
        by_priority.entry(e.priority).or_default().push(i);
    }
    let old_buckets = |priority: u32, pattern: &HeaderMatch| -> Option<&[Vec<Mod>]> {
        by_priority.get(&priority)?.iter().find_map(|&i| {
            let e = &table.entries()[i];
            (&e.pattern == pattern).then_some(e.buckets.as_slice())
        })
    };

    let infos: Vec<OpInfo> = batch
        .mods
        .iter()
        .map(|m| match m {
            FlowMod::Add(e) => OpInfo {
                kind: Kind::Add,
                priority: e.priority,
                pattern: e.pattern,
                handles: e.pattern.dl_dst.and_then(MacAddr::fec_id),
                emits_new: emitted_tags(&e.buckets),
                emits_old: Vec::new(),
            },
            FlowMod::Modify {
                priority,
                pattern,
                buckets,
                ..
            } => OpInfo {
                kind: Kind::Modify,
                priority: *priority,
                pattern: *pattern,
                handles: pattern.dl_dst.and_then(MacAddr::fec_id),
                emits_new: emitted_tags(buckets),
                emits_old: old_buckets(*priority, pattern)
                    .map(emitted_tags)
                    .unwrap_or_default(),
            },
            FlowMod::Delete { priority, pattern } => OpInfo {
                kind: Kind::Delete,
                priority: *priority,
                pattern: *pattern,
                handles: pattern.dl_dst.and_then(MacAddr::fec_id),
                emits_new: Vec::new(),
                emits_old: old_buckets(*priority, pattern)
                    .map(emitted_tags)
                    .unwrap_or_default(),
            },
        })
        .collect();

    // Overlap candidates, pruned by the concrete `dl_dst` the pattern
    // pins: two patterns pinning *different* MACs are disjoint, and in an
    // SDX table almost every rule pins a distinct VMAC — so the quadratic
    // pair scan collapses to tiny per-tag groups plus the wildcard band.
    let mut by_mac: BTreeMap<MacAddr, Vec<usize>> = BTreeMap::new();
    let mut wild: Vec<usize> = Vec::new();
    for (i, info) in infos.iter().enumerate() {
        match info.pattern.dl_dst {
            Some(mac) => by_mac.entry(mac).or_default().push(i),
            None => wild.push(i),
        }
    }
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for group in by_mac.values() {
        for (gi, &a) in group.iter().enumerate() {
            for &b in &group[gi + 1..] {
                candidates.push((a, b));
            }
        }
    }
    for (wi, &a) in wild.iter().enumerate() {
        for &b in &wild[wi + 1..] {
            candidates.push((a, b));
        }
        for group in by_mac.values() {
            for &b in group {
                candidates.push((a, b));
            }
        }
    }

    let mut parent: Vec<usize> = (0..n).collect();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (a, b) in candidates {
        let (ia, ib) = (&infos[a], &infos[b]);
        if ia.pattern.disjoint(&ib.pattern) {
            continue;
        }
        if ia.priority == ib.priority && ia.pattern == ib.pattern {
            // Same slot: a delete→add replacement pair (any other
            // combination would make the batch invalid). Fuse into one
            // atomic wave; the wave's delete-first internal order makes
            // the replacement flicker-free.
            union(&mut parent, a, b);
            continue;
        }
        // `hi` is the op with the higher priority of an overlapping pair.
        let (hi, lo) = if ia.priority >= ib.priority {
            (a, b)
        } else {
            (b, a)
        };
        match (infos[hi].kind, infos[lo].kind) {
            // Make-before-break: the add/modify precedes the overlapping
            // delete regardless of which sits higher.
            (Kind::Add | Kind::Modify, Kind::Delete) => edges.push((hi, lo)),
            (Kind::Delete, Kind::Add | Kind::Modify) => edges.push((lo, hi)),
            // Two adds: the shadowing (higher) one first, so the overlap
            // flips directly from old behaviour to new behaviour.
            (Kind::Add, Kind::Add) => {
                if infos[hi].priority > infos[lo].priority {
                    edges.push((hi, lo));
                }
            }
            // Two deletes: the shadowed (lower) one first, so the overlap
            // keeps its old behaviour until the very end.
            (Kind::Delete, Kind::Delete) => {
                if infos[hi].priority > infos[lo].priority {
                    edges.push((lo, hi));
                }
            }
            // An add that will shadow a modified rule must land first;
            // the reverse layering needs no order (the higher modify
            // governs the overlap before and after either op).
            (Kind::Add, Kind::Modify) => {
                if infos[hi].priority > infos[lo].priority {
                    edges.push((hi, lo));
                }
            }
            (Kind::Modify, Kind::Add) | (Kind::Modify, Kind::Modify) => {}
        }
    }

    // Tag reference edges: handler adds before referencing rules;
    // referencing rules deleted (or rewritten away) before handler
    // deletes.
    let mut handler_adds: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let mut handler_dels: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, info) in infos.iter().enumerate() {
        if let Some(v) = info.handles {
            match info.kind {
                Kind::Add => handler_adds.entry(v).or_default().push(i),
                Kind::Delete => handler_dels.entry(v).or_default().push(i),
                Kind::Modify => {}
            }
        }
    }
    for (i, info) in infos.iter().enumerate() {
        for v in &info.emits_new {
            for &p in handler_adds.get(v).into_iter().flatten() {
                if p != i {
                    edges.push((p, i));
                }
            }
        }
        for v in &info.emits_old {
            for &q in handler_dels.get(v).into_iter().flatten() {
                if q != i {
                    edges.push((i, q));
                }
            }
        }
    }

    // Collapse edges onto fused clusters and drop intra-cluster edges.
    let cluster_of: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();
    let mut cedges: Vec<(usize, usize)> = edges
        .iter()
        .map(|&(u, v)| (cluster_of[u], cluster_of[v]))
        .filter(|&(u, v)| u != v)
        .collect();
    cedges.sort_unstable();
    cedges.dedup();
    let dependencies = cedges.len();

    // Longest-path wave depth per cluster (Kahn's algorithm); a cycle
    // collapses the whole plan to one atomic wave.
    let mut indeg: BTreeMap<usize, usize> = BTreeMap::new();
    let mut succs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &c in &cluster_of {
        indeg.entry(c).or_insert(0);
    }
    for &(u, v) in &cedges {
        *indeg.entry(v).or_insert(0) += 1;
        succs.entry(u).or_default().push(v);
    }
    let mut depth: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: Vec<usize> = indeg
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&c, _)| c)
        .collect();
    for &c in &queue {
        depth.insert(c, 0);
    }
    let mut processed = 0usize;
    while let Some(u) = queue.pop() {
        processed += 1;
        let du = depth[&u];
        for &v in succs.get(&u).into_iter().flatten() {
            let dv = depth.entry(v).or_insert(0);
            *dv = (*dv).max(du + 1);
            let d = indeg.get_mut(&v).expect("edge target has an indegree");
            *d -= 1;
            if *d == 0 {
                queue.push(v);
            }
        }
    }
    let collapsed = processed < indeg.len();

    // Assemble waves: by depth, deletes → modifies → adds within a wave
    // (stable on batch position), so fused same-slot pairs validate.
    let mut order: Vec<usize> = (0..n).collect();
    let wave_of = |i: usize| -> usize {
        if collapsed {
            0
        } else {
            depth[&cluster_of[i]]
        }
    };
    order.sort_by_key(|&i| (wave_of(i), infos[i].kind, i));
    let wave_count = order.iter().map(|&i| wave_of(i) + 1).max().unwrap_or(0);
    let mut waves: Vec<FlowModBatch> = (0..wave_count)
        .map(|_| FlowModBatch::new(batch.epoch))
        .collect();
    for i in order {
        waves[wave_of(i)].push(batch.mods[i].clone());
    }
    UpdatePlan {
        epoch: batch.epoch,
        waves,
        dependencies,
        collapsed,
    }
}

/// [`drive`]'s options. It has none: a failed wave fails its change.
/// The type is kept, field-less, because the benchmark's in-process
/// mirror passes `&ScheduleOpts::default()` to [`drive`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ScheduleOpts {}

/// A per-wave check: inspects the fabric *after* a wave landed and
/// returns why the wave must not stand — an unsafe intermediate state, or
/// a switch further down that refused it.
/// [`SdxController::commit`](crate::SdxController::commit) runs its
/// per-wave hook through this.
pub type WaveChecker<'a> = dyn FnMut(&Fabric, usize) -> Result<(), String> + 'a;

/// What one applied wave cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WaveReport {
    /// Zero-based wave index.
    pub wave: usize,
    /// Mods in the wave.
    pub mods: usize,
}

/// The outcome of a completed [`drive`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ScheduleReport {
    /// Commit epoch of the scheduled update.
    pub epoch: u64,
    /// Per-wave accounting, in application order (all waves on success).
    pub applied: Vec<WaveReport>,
    /// Total waves the plan had.
    pub total_waves: usize,
}

/// Applies `plan` to `fabric` wave by wave, all or nothing.
///
/// Per wave: cross [`InjectionPoint::FlowModApply`] (a firing models the
/// switch failing the wave — nothing lands); then apply the wave
/// atomically, timed as `flowtable.apply`; then run `checker` against the
/// new intermediate state. Every applied-and-checked wave journals
/// [`Event::UpdateWaveApplied`] and counts `schedule.waves.count` /
/// `schedule.wave_width`. `_opts` is unused (see [`ScheduleOpts`]).
///
/// The first failure rewinds *every* wave this call landed, newest first,
/// so the fabric's table and batch log are exactly as they were before
/// the call. Nothing is retried:
///
/// * an injected wave failure → [`SdxError::Injected`] (the controller's
///   rollback journals it);
/// * a checker refusal → `schedule.refused.count` and
///   [`SdxError::UnsafeSchedule`] carrying the checker's message;
/// * a batch the switch itself rejects → [`SdxError::InvalidCommit`].
pub fn drive(
    plan: &UpdatePlan,
    fabric: &mut Fabric,
    faults: &mut FaultPlan,
    telemetry: &SharedRegistry,
    _opts: &ScheduleOpts,
    checker: Option<&mut WaveChecker>,
) -> Result<ScheduleReport, SdxError> {
    let mut landed = Vec::with_capacity(plan.waves.len());
    let outcome = land(plan, fabric, faults, telemetry, checker, &mut landed);
    if outcome.is_err() {
        // A wave changes the flow table and the batch log, nothing else,
        // and its own undo journal is all it takes to put both back.
        for undo in landed.into_iter().rev() {
            fabric.rewind_wave(undo);
        }
    }
    outcome
}

/// [`drive`]'s loop: lands the waves in order, keeping each one's undo
/// journal in `landed`, and stops at the first failure.
fn land(
    plan: &UpdatePlan,
    fabric: &mut Fabric,
    faults: &mut FaultPlan,
    telemetry: &SharedRegistry,
    mut checker: Option<&mut WaveChecker>,
    landed: &mut Vec<WaveUndo>,
) -> Result<ScheduleReport, SdxError> {
    let mut report = ScheduleReport {
        epoch: plan.epoch,
        total_waves: plan.waves.len(),
        ..ScheduleReport::default()
    };
    for (i, wave) in plan.waves.iter().enumerate() {
        faults.check(InjectionPoint::FlowModApply {
            wave: u32::try_from(i).unwrap_or(u32::MAX),
        })?;
        let (_, undo) = telemetry
            .time("flowtable.apply", || fabric.apply_flowmods_undoable(wave))
            .map_err(|e| {
                SdxError::InvalidCommit(format!("scheduled wave {i} rejected by the switch: {e}"))
            })?;
        landed.push(undo);
        if let Some(ref mut check) = checker {
            if let Err(counterexample) = check(fabric, i) {
                telemetry.inc("schedule.refused.count");
                return Err(SdxError::UnsafeSchedule {
                    wave: i,
                    counterexample,
                });
            }
        }
        telemetry.inc("schedule.waves.count");
        telemetry.observe("schedule.wave_width", wave.len() as u64);
        telemetry.record_event(Event::UpdateWaveApplied {
            epoch: plan.epoch,
            wave: i,
            total: plan.waves.len(),
            mods: wave.len(),
        });
        report.applied.push(WaveReport {
            wave: i,
            mods: wave.len(),
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{FieldMatch, ParticipantId, PortId};
    use sdx_openflow::table::FlowEntry;

    fn phys(p: u32) -> PortId {
        PortId::Phys(ParticipantId(p), 1)
    }

    fn vpat(id: u32) -> HeaderMatch {
        HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(id)))
    }

    fn out(p: u32) -> Vec<Vec<Mod>> {
        vec![vec![
            Mod::SetDlDst(MacAddr::physical(p)),
            Mod::SetLoc(phys(p)),
        ]]
    }

    fn add(priority: u32, pattern: HeaderMatch, buckets: Vec<Vec<Mod>>) -> FlowMod {
        FlowMod::Add(FlowEntry::new(priority, pattern, buckets))
    }

    fn batch(mods: Vec<FlowMod>) -> FlowModBatch {
        FlowModBatch { epoch: 7, mods }
    }

    /// The kinds of each wave, compressed for assertions.
    fn shape(plan: &UpdatePlan) -> Vec<Vec<&'static str>> {
        plan.waves
            .iter()
            .map(|w| {
                w.mods
                    .iter()
                    .map(|m| match m {
                        FlowMod::Add(_) => "add",
                        FlowMod::Modify { .. } => "mod",
                        FlowMod::Delete { .. } => "del",
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn empty_batch_plans_no_waves() {
        let p = plan(&FlowTable::new(), &batch(vec![]));
        assert!(p.is_empty());
        let mut fabric = Fabric::new();
        let mut faults = FaultPlan::disabled();
        let reg = SharedRegistry::new();
        let r = drive(
            &p,
            &mut fabric,
            &mut faults,
            &reg,
            &ScheduleOpts::default(),
            None,
        )
        .expect("trivial");
        assert_eq!(r.total_waves, 0);
    }

    #[test]
    fn disjoint_vmac_ops_share_one_wave() {
        let b = batch(vec![
            add(10, vpat(1), out(1)),
            add(20, vpat(2), out(2)),
            FlowMod::Delete {
                priority: 5,
                pattern: vpat(3),
            },
        ]);
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(5, vpat(3), out(9)));
        let p = plan(&t, &b);
        assert_eq!(p.wave_count(), 1, "{:?}", shape(&p));
        assert_eq!(p.max_wave_width(), 3);
        assert_eq!(p.dependencies, 0);
        assert!(!p.collapsed);
    }

    #[test]
    fn same_slot_replace_fuses_delete_before_add() {
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(10, vpat(1), out(9)));
        let b = batch(vec![
            add(10, vpat(1), out(2)),
            FlowMod::Delete {
                priority: 10,
                pattern: vpat(1),
            },
        ]);
        let p = plan(&t, &b);
        assert_eq!(shape(&p), vec![vec!["del", "add"]], "fused, delete first");
        // The fused wave must actually apply (delete frees the slot).
        let mut fabric = Fabric::new();
        fabric.switch.install(FlowEntry::new(10, vpat(1), out(9)));
        let mut faults = FaultPlan::disabled();
        let reg = SharedRegistry::new();
        drive(
            &p,
            &mut fabric,
            &mut faults,
            &reg,
            &ScheduleOpts::default(),
            None,
        )
        .expect("replacement wave applies");
        assert_eq!(fabric.switch.table().entries()[0].buckets, out(2));
    }

    #[test]
    fn make_before_break_orders_add_ahead_of_overlapping_delete() {
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(5, HeaderMatch::any(), out(9)));
        let b = batch(vec![
            FlowMod::Delete {
                priority: 5,
                pattern: HeaderMatch::any(),
            },
            add(10, vpat(1), out(2)),
        ]);
        let p = plan(&t, &b);
        assert_eq!(shape(&p), vec![vec!["add"], vec!["del"]]);
        assert_eq!(p.dependencies, 1);
    }

    #[test]
    fn overlapping_adds_install_high_priority_first() {
        let m80 = HeaderMatch::of(FieldMatch::TpDst(80));
        let b = batch(vec![
            add(5, HeaderMatch::any(), out(1)),
            add(10, m80, out(2)),
        ]);
        let p = plan(&FlowTable::new(), &b);
        assert_eq!(shape(&p), vec![vec!["add"], vec!["add"]]);
        match &p.waves[0].mods[0] {
            FlowMod::Add(e) => assert_eq!(e.priority, 10, "shadowing add first"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn overlapping_deletes_remove_low_priority_first() {
        let m80 = HeaderMatch::of(FieldMatch::TpDst(80));
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(5, HeaderMatch::any(), out(1)));
        t.install(FlowEntry::new(10, m80, out(2)));
        let b = batch(vec![
            FlowMod::Delete {
                priority: 10,
                pattern: m80,
            },
            FlowMod::Delete {
                priority: 5,
                pattern: HeaderMatch::any(),
            },
        ]);
        let p = plan(&t, &b);
        assert_eq!(shape(&p), vec![vec!["del"], vec!["del"]]);
        match &p.waves[0].mods[0] {
            FlowMod::Delete { priority, .. } => assert_eq!(*priority, 5, "shadowed delete first"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tag_handler_adds_precede_referencing_rules_and_outlive_them() {
        // The emitter rewrites to vmac 7 and re-enters at a virtual port;
        // the handler matches vmac 7. Install handler first, delete the
        // old emitter before the old handler goes.
        let emit7 = vec![vec![
            Mod::SetDlDst(MacAddr::vmac(7)),
            Mod::SetLoc(PortId::Virt(ParticipantId(3))),
        ]];
        let b_install = batch(vec![
            add(20, vpat(9), emit7.clone()),
            add(10, vpat(7), out(2)),
        ]);
        let p = plan(&FlowTable::new(), &b_install);
        assert_eq!(shape(&p), vec![vec!["add"], vec!["add"]]);
        match &p.waves[0].mods[0] {
            FlowMod::Add(e) => assert_eq!(e.pattern, vpat(7), "handler lands first"),
            other => panic!("unexpected {other:?}"),
        }

        let mut t = FlowTable::new();
        t.install(FlowEntry::new(20, vpat(9), emit7));
        t.install(FlowEntry::new(10, vpat(7), out(2)));
        let b_retire = batch(vec![
            FlowMod::Delete {
                priority: 10,
                pattern: vpat(7),
            },
            FlowMod::Delete {
                priority: 20,
                pattern: vpat(9),
            },
        ]);
        let p = plan(&t, &b_retire);
        assert_eq!(shape(&p), vec![vec!["del"], vec!["del"]]);
        match &p.waves[0].mods[0] {
            FlowMod::Delete { pattern, .. } => {
                assert_eq!(*pattern, vpat(9), "emitter retires first");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn injected_wave_failure_rolls_back_every_landed_wave() {
        let b = batch(vec![
            add(5, HeaderMatch::any(), out(1)),
            add(10, HeaderMatch::of(FieldMatch::TpDst(80)), out(2)),
        ]);
        let p = plan(&FlowTable::new(), &b);
        assert_eq!(p.wave_count(), 2);
        let mut fabric = Fabric::new();
        fabric.enable_batch_log();
        let w1 = InjectionPoint::FlowModApply { wave: 1 };
        let mut faults = FaultPlan::disabled().fail_nth(w1, 1);
        let reg = SharedRegistry::new();
        let opts = ScheduleOpts::default();
        let err = drive(&p, &mut fabric, &mut faults, &reg, &opts, None)
            .expect_err("wave 1 fails at once");
        assert_eq!(err, SdxError::Injected(w1));
        assert!(fabric.switch.table().is_empty(), "wave 0 rewound too");
        assert!(
            fabric.drain_batches().is_empty(),
            "and retracted from the log"
        );
        assert_eq!(reg.journal().kinds(), vec!["update_wave_applied"]);
        // The fault fired once; driving the same plan again lands both.
        let r = drive(&p, &mut fabric, &mut faults, &reg, &opts, None).expect("lands");
        assert_eq!(r.applied.len(), 2);
        assert_eq!(fabric.switch.table().len(), 2, "both waves applied");
        assert_eq!(reg.counter("schedule.waves.count").get(), 3);
    }

    #[test]
    fn checker_rejection_rolls_back_every_landed_wave() {
        let b = batch(vec![
            add(5, HeaderMatch::any(), out(1)),
            add(10, HeaderMatch::of(FieldMatch::TpDst(80)), out(2)),
        ]);
        let p = plan(&FlowTable::new(), &b);
        assert_eq!(p.wave_count(), 2);
        let mut fabric = Fabric::new();
        let mut faults = FaultPlan::disabled();
        let reg = SharedRegistry::new();
        let mut reject = |_: &Fabric, wave: usize| match wave {
            0 => Ok(()),
            _ => Err(format!("wave {wave}: probe looped")),
        };
        let err = drive(
            &p,
            &mut fabric,
            &mut faults,
            &reg,
            &ScheduleOpts::default(),
            Some(&mut reject),
        )
        .expect_err("checker vetoes");
        assert_eq!(
            err,
            SdxError::UnsafeSchedule {
                wave: 1,
                counterexample: "wave 1: probe looped".into(),
            }
        );
        assert!(fabric.switch.table().is_empty(), "both waves rolled back");
        assert_eq!(reg.counter("schedule.refused.count").get(), 1);
        assert_eq!(reg.counter("schedule.waves.count").get(), 1);
    }

    #[test]
    fn an_atomic_plan_is_one_wave_with_the_same_end_state() {
        // Make-before-break needs two waves; atomic, the same mods land
        // under one barrier and reach the same table.
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(5, HeaderMatch::any(), out(9)));
        let b = batch(vec![
            FlowMod::Delete {
                priority: 5,
                pattern: HeaderMatch::any(),
            },
            add(10, vpat(1), out(2)),
        ]);
        let waves = Waves::Ordered.plan(&t, b.clone());
        let whole = Waves::Atomic.plan(&t, b);
        assert_eq!(shape(&waves), vec![vec!["add"], vec!["del"]]);
        assert_eq!(shape(&whole), vec![vec!["del", "add"]]);
        assert_eq!((whole.dependencies, whole.collapsed), (0, false));
        let drive_over = |p: &UpdatePlan| {
            let mut fabric = Fabric::new();
            fabric
                .switch
                .install(FlowEntry::new(5, HeaderMatch::any(), out(9)));
            drive(
                p,
                &mut fabric,
                &mut FaultPlan::disabled(),
                &SharedRegistry::new(),
                &ScheduleOpts::default(),
                None,
            )
            .expect("applies");
            fabric
        };
        assert_eq!(drive_over(&whole), drive_over(&waves));
        // Nothing to apply: an empty patch has no wave either way.
        assert!(Waves::Atomic.plan(&t, batch(vec![])).is_empty());
        assert!(Waves::Ordered.plan(&t, batch(vec![])).is_empty());
    }

    #[test]
    fn planning_is_deterministic() {
        let m80 = HeaderMatch::of(FieldMatch::TpDst(80));
        let mut t = FlowTable::new();
        t.install(FlowEntry::new(5, HeaderMatch::any(), out(9)));
        let b = batch(vec![
            add(10, m80, out(2)),
            FlowMod::Delete {
                priority: 5,
                pattern: HeaderMatch::any(),
            },
            add(30, vpat(4), out(4)),
        ]);
        let p1 = plan(&t, &b);
        let p2 = plan(&t, &b);
        assert_eq!(p1.waves, p2.waves);
        assert_eq!(p1.total_mods(), 3);
    }
}
