//! The SDX compilation pipeline (§4.1–§4.3.1).
//!
//! [`SdxCompiler::compile_all`] runs the whole pipeline:
//!
//! 1. compile each participant's raw policies to classifiers — once per
//!    policy *change*, not per run: the compiled forms are kept beside the
//!    book and refreshed only where a version stamp moved (§4.3.1's
//!    memoisation);
//! 2. compute per-viewer **affected prefix sets** by joining each outbound
//!    forwarding rule with the BGP routes its target exported to the viewer
//!    (the consistency transformation);
//! 3. run the FEC grouping (signature partition = Minimum Disjoint Subset)
//!    and allocate a `(VNH, VMAC)` per group;
//! 4. rewrite outbound rules to match VMAC tags, attach per-group default
//!    forwarding, add the global MAC-learning defaults, and build each
//!    receiver's stage-2 delivery block;
//! 5. compose stage 1 with stage 2 — per target participant only ("most
//!    policies concern a subset of participants"; "policies are disjoint by
//!    design").
//!
//! Every step keeps what it derived and recomputes only what a route or
//! policy change can have touched; a cold compile is the case where
//! everything is stale. Step 2 keeps one signature map per viewer, patched
//! per route-dirty prefix by the function the fast path runs; steps 3–5
//! keep a piece per viewer, per receiver and per stage-1 segment (see
//! [`crate::piece`]), and what is whole-table per run is one concatenation
//! and one shadow elimination. The pipeline is one serial pass with
//! nothing to configure: viewers are visited in `ParticipantId` order and
//! VNH ids come from a single keyed assignment (see DESIGN.md §7.4).
//!
//! The output [`CompileReport`] carries everything the controller must
//! install: the switch classifier, the ARP bindings (VNH → VMAC), and the
//! per-(viewer, prefix) VNH map the route server rewrites NEXT_HOP with —
//! the last two read through the viewers' shared pieces.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use sdx_bgp::route_server::RouteServer;
use sdx_net::Mod;
use sdx_net::{Ipv4Addr, MacAddr, ParticipantId, PortId};
use sdx_policy::classifier::{Action, Classifier, Rule};
use sdx_policy::{compile as compile_policy, Policy, PolicyDelta, PolicyScope, PolicyVersions};
use sdx_telemetry::{MetricsSnapshot, Registry, SharedRegistry};

use crate::error::SdxError;
use crate::fec::{FecGroup, FecId};
use crate::participant::ParticipantConfig;
use crate::phase_a::{self, CompileCache};
use crate::piece::{PieceCounts, ViewerInputs, ViewerPiece, VnhMap};
use crate::transform::{self, expand_fwd_rule, FwdRule, TransformError};
use crate::vnh::VnhAllocator;

/// Timing and size accounting for one pipeline run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileStats {
    /// Wall-clock for the whole pipeline.
    pub total: Duration,
    /// Time spent computing affected sets + FEC groups + VNH assignment
    /// (the paper reports this separately; it dominates at scale).
    pub vnh_time: Duration,
    /// Time spent in classifier composition.
    pub compose_time: Duration,
    /// Total switch rules produced.
    pub rule_count: usize,
    /// Non-drop rules (the Figure 7 metric).
    pub forwarding_rules: usize,
    /// FEC groups across all viewers (the Figure 6 metric, controller
    /// variant).
    pub group_count: usize,
    /// Policies in the book this run did not have to compile: their
    /// compiled form was already held beside the book, stamped with the
    /// version still current (§4.3.1's memoisation).
    pub memo_hits: usize,
    /// Cached pieces rebuilt and served, per kind.
    pub pieces: PieceCounts,
}

/// Everything one pipeline run produced.
#[derive(Clone, Debug)]
pub struct CompileReport {
    /// The classifier to install on the fabric switch.
    pub classifier: Classifier,
    /// Per-viewer FEC groups: each viewer's shared piece, which derefs to
    /// its `[FecGroup]`. The same piece as in the previous report exactly
    /// when the viewer's groups were not rebuilt in between.
    pub groups: BTreeMap<ParticipantId, ViewerPiece>,
    /// ARP bindings the responder must serve: VNH address → VMAC.
    pub arp_bindings: Vec<(Ipv4Addr, MacAddr)>,
    /// NEXT_HOP rewrites for the route server: (viewer, prefix) → VNH.
    /// Prefixes absent from this map are re-advertised unchanged.
    pub vnh_of: VnhMap,
    /// Accounting.
    pub stats: CompileStats,
}

impl CompileReport {
    /// This run's accounting as a [`MetricsSnapshot`], keyed with the
    /// workspace metric naming convention (timers in nanoseconds). The
    /// snapshot is *derived* from [`CompileStats`] — both views come from
    /// the same measurements, so they cannot disagree.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let r = Registry::new();
        r.observe_duration("compile.total", self.stats.total);
        r.observe_duration("compile.fec", self.stats.vnh_time);
        r.observe_duration("compile.compose", self.stats.compose_time);
        r.add("compile.rules.count", self.stats.rule_count as u64);
        r.add(
            "compile.forwarding_rules.count",
            self.stats.forwarding_rules as u64,
        );
        r.add("compile.groups.count", self.stats.group_count as u64);
        r.add("compile.memo_hits.count", self.stats.memo_hits as u64);
        r.snapshot()
    }

    /// The VMAC the SDX ARP responder answers when `viewer`'s border
    /// router resolves `vnh` — the tag it stamps into `dl_dst` after its
    /// FIB entry. A VNH belongs to one of the viewer's own groups, so only
    /// those are searched ([`arp_bindings`](Self::arp_bindings) lists the
    /// same pairs for every viewer at once).
    pub fn vmac_for(&self, viewer: ParticipantId, vnh: Ipv4Addr) -> Option<MacAddr> {
        self.groups
            .get(&viewer)?
            .iter()
            .find(|g| g.vnh == vnh)
            .map(|g| g.vmac)
    }
}

/// A policy's compiled form and the `(book epoch, policy version)` it was
/// compiled under. The book epoch is part of the stamp because structural
/// mutations change what a participant's policy *is* without touching its
/// own counter: global fragments fold into every effective outbound
/// policy, and an upserted config may arrive with policies of its own.
#[derive(Debug)]
struct Compiled<T> {
    stamp: (u64, u64),
    value: T,
    /// Compiled when its delta was staged, and served by no refresh yet.
    staged: bool,
}

impl<T> Compiled<T> {
    fn new(stamp: (u64, u64), value: T, staged: bool) -> Self {
        Compiled {
            stamp,
            value,
            staged,
        }
    }
}

/// What [`refresh_compiled`] found.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Refreshed {
    /// The entry carried the stamp already, and an earlier refresh served
    /// it.
    Served,
    /// The entry was recompiled, dropped with its policy, or compiled when
    /// its delta was staged.
    Moved,
    /// There is no policy, and there was no entry.
    Absent,
}

/// Brings `map`'s entry for `id` up to `stamp`: kept if it already carries
/// it, else recompiled from `policy()` (dropped when that is `None`).
fn refresh_compiled<'p, T>(
    map: &mut BTreeMap<ParticipantId, Compiled<T>>,
    id: ParticipantId,
    stamp: (u64, u64),
    policy: impl FnOnce() -> Option<Cow<'p, Policy>>,
    compile: impl FnOnce(&Policy) -> Result<T, SdxError>,
) -> Result<Refreshed, SdxError> {
    if let Some(held) = map.get_mut(&id).filter(|c| c.stamp == stamp) {
        let staged = std::mem::take(&mut held.staged);
        return Ok(if staged {
            Refreshed::Moved
        } else {
            Refreshed::Served
        });
    }
    match policy() {
        Some(policy) => {
            map.insert(id, Compiled::new(stamp, compile(&policy)?, false));
            Ok(Refreshed::Moved)
        }
        None if map.remove(&id).is_some() => Ok(Refreshed::Moved),
        None => Ok(Refreshed::Absent),
    }
}

/// `id`'s effective outbound policy as the forwarding clauses the
/// transformations accept.
fn outbound_clauses(id: ParticipantId, policy: &Policy) -> Result<Vec<FwdRule>, SdxError> {
    Ok(transform::outbound_fwd_rules(id, &compile_policy(policy))?)
}

/// A participant's own outbound policy plus every global fragment, in
/// parallel.
fn effective_outbound<'a>(
    own: Option<&'a Policy>,
    globals: &[(ParticipantId, Policy)],
) -> Option<Cow<'a, Policy>> {
    let mut globals = globals.iter().map(|(_, p)| p.clone());
    let Some(first) = globals.next() else {
        return own.map(Cow::Borrowed);
    };
    let first = match own {
        Some(own) => own.clone() + first,
        None => first,
    };
    Some(Cow::Owned(globals.fold(first, |acc, g| acc + g)))
}

/// Phase C for one viewer: its FEC groups under the ids `triples` hands
/// them, the stage-1 rules its forwarding clauses expand to over those
/// groups, the groups' default rules, and which receivers each group's
/// tag can arrive at.
fn viewer_piece(
    viewer: ParticipantId,
    rules: &[FwdRule],
    inputs: ViewerInputs,
    triples: &[(FecId, Ipv4Addr, MacAddr)],
    participants: &BTreeMap<ParticipantId, ParticipantConfig>,
    rs: &RouteServer,
) -> Result<ViewerPiece, SdxError> {
    let groups: Vec<FecGroup> = (inputs.partition.keys.iter().zip(triples))
        .map(|(key, &(id, vnh, vmac))| FecGroup {
            id,
            viewer,
            prefixes: key.prefixes.clone(),
            vnh,
            vmac,
            default_next_hop: key.default_next_hop,
        })
        .collect();
    let memberships = &inputs.partition.memberships;
    // Isolation: one rule per sender port, unless the rule already pinned
    // one of the sender's own ports.
    let sender_ports = |rule: &FwdRule| -> Vec<PortId> {
        match rule.matches.in_port {
            Some(p) => vec![p],
            None => participants[&viewer].port_ids().collect(),
        }
    };
    let mut policy_rules: Vec<Rule> = Vec::new();
    let mut deliver: BTreeSet<(ParticipantId, usize)> = BTreeSet::new();
    for (k, rule) in rules.iter().enumerate() {
        // Wide-area-LB rewrite rules: consistency is checked on the
        // rewritten address, and the rule follows that address's
        // BGP route when no explicit fwd was written.
        if let Some(new_dst) = rule.rewritten_dst() {
            let nh = match rule.target {
                Some(PortId::Virt(nh)) if rs.reachable_via_addr(viewer, new_dst).contains(&nh) => {
                    Some(nh)
                }
                Some(_) => None, // explicit target can't reach it
                None => rs
                    .best_for_addr(viewer, new_dst)
                    .map(|r| r.source.participant),
            };
            let Some(nh) = nh else {
                continue; // rewritten address unroutable: drop rule
            };
            let Some(nh_cfg) = participants.get(&nh) else {
                continue;
            };
            let nh_mac = nh_cfg.primary_port().mac;
            for sp in sender_ports(rule) {
                let mut m = rule.matches;
                m.set(sdx_net::FieldMatch::InPort(sp));
                let mut mods = rule.mods.clone();
                mods.push(Mod::SetDlDst(nh_mac));
                mods.push(Mod::SetLoc(PortId::Virt(nh)));
                policy_rules.push(Rule::unicast(m, Action { mods }));
            }
            continue;
        }
        match rule.target {
            Some(PortId::Virt(nh)) => {
                let affected = |at: usize| phase_a::reach(&memberships[at], k).is_some();
                let partial = |at: usize| phase_a::reach(&memberships[at], k) == Some(true);
                policy_rules.extend(expand_fwd_rule(
                    rule,
                    PortId::Virt(nh),
                    &groups,
                    affected,
                    partial,
                ));
                deliver.extend(
                    (0..groups.len())
                        .filter(|&at| affected(at))
                        .map(|at| (nh, at)),
                );
            }
            Some(PortId::Phys(owner, idx)) => {
                // Middlebox/port steering: isolate per sender port,
                // rewrite the MAC to the target port's.
                let Some(target_cfg) = participants.get(&owner) else {
                    continue;
                };
                let Some(mac) = target_cfg.port_mac(idx) else {
                    return Err(TransformError::NoSuchPort(owner, idx).into());
                };
                // Port steering is a *direct output* — `fwd(E1)`
                // means "this exact port". It deliberately bypasses
                // the owner's virtual switch (and hence its inbound
                // policy), which is also what keeps middlebox hops
                // loop-free: steering back to the diverting
                // participant's port must not re-enter its divert.
                for sp in sender_ports(rule) {
                    let mut m = rule.matches;
                    m.set(sdx_net::FieldMatch::InPort(sp));
                    let mut mods = rule.mods.clone();
                    mods.push(Mod::SetDlDst(mac));
                    mods.push(Mod::SetLoc(PortId::Phys(owner, idx)));
                    policy_rules.push(Rule::unicast(m, Action { mods }));
                }
            }
            None => {} // no-op rule (no fwd, no rewrite)
        }
    }
    // Per-group defaults (below every viewer's policy rules).
    for (at, g) in groups.iter().enumerate() {
        if let Some(nh) = g.default_next_hop {
            deliver.insert((nh, at));
        }
    }
    let default_rules = transform::default_stage1_rules(&groups);
    Ok(ViewerPiece::new(
        groups,
        policy_rules,
        default_rules,
        deliver,
        Some(inputs),
    ))
}

/// The pipeline driver. Holds the participant book and, beside it, the
/// compiled form of every policy in it; route state comes in per call so
/// the compiler can be re-run as BGP changes.
#[derive(Debug, Default)]
pub struct SdxCompiler {
    participants: BTreeMap<ParticipantId, ParticipantConfig>,
    /// Each participant's *effective* outbound policy as forwarding
    /// clauses, and its inbound policy as a classifier — compiled when the
    /// policy changes, not when routes do: refreshed on entry to
    /// [`compile_all`](Self::compile_all) and the fast path, then borrowed.
    outbound: BTreeMap<ParticipantId, Compiled<Vec<FwdRule>>>,
    inbound: BTreeMap<ParticipantId, Compiled<Classifier>>,
    /// Policies installed by *remote* participants (no packets of their
    /// own at this ingress), applied to every sender's traffic — the
    /// wide-area load-balancer application (§3.1). Tagged with the owner
    /// for bookkeeping.
    global_policies: Vec<(ParticipantId, Policy)>,
    /// Where stage timings and allocation counters land. Defaults to a
    /// private sink; the controller shares its own registry in.
    pub(crate) telemetry: SharedRegistry,
    /// Versioned view of the policy store: the *book* epoch moves on
    /// structural mutations (enroll/remove, global fragments) and gates
    /// the whole compile cache; per-participant counters move on single
    /// policy edits and gate only that viewer's signature map — the seam
    /// that lets a one-participant [`PolicyDelta`] rebuild one map instead
    /// of the world.
    versions: PolicyVersions,
    /// Phase A's signature maps and phases B–E's pieces from the previous
    /// compile. `None` until the first compile runs.
    cache: Option<CompileCache>,
}

impl SdxCompiler {
    /// An empty compiler.
    pub fn new() -> Self {
        SdxCompiler::default()
    }

    /// Points this compiler's stage timers at `reg` (the controller calls
    /// this so the whole stack shares one sink).
    pub fn set_telemetry(&mut self, reg: SharedRegistry) {
        self.telemetry = reg;
    }

    /// The registry this compiler emits into.
    pub fn telemetry(&self) -> &SharedRegistry {
        &self.telemetry
    }

    /// Adds or replaces a participant (a structural book mutation: the
    /// whole compile cache is invalidated).
    pub fn upsert_participant(&mut self, cfg: ParticipantConfig) {
        self.versions.bump_book();
        self.participants.insert(cfg.id, cfg);
    }

    /// Removes a participant from the book (its policies, and their
    /// compiled forms, go with it).
    pub fn remove_participant(&mut self, id: ParticipantId) -> Option<ParticipantConfig> {
        self.versions.bump_book();
        self.outbound.remove(&id);
        self.inbound.remove(&id);
        self.participants.remove(&id)
    }

    /// Installs/clears a participant's outbound policy. Bumps only that
    /// participant's outbound version: cached compile state for every
    /// other viewer stays valid.
    pub fn set_outbound(&mut self, id: ParticipantId, policy: Option<Policy>) {
        if let Some(p) = self.participants.get_mut(&id) {
            self.versions.bump_outbound(id);
            p.outbound = policy;
        }
    }

    /// Installs/clears a participant's inbound policy. Bumps only that
    /// participant's inbound version; inbound policies never touch the
    /// FEC phase, so no signature map is rebuilt at all.
    pub fn set_inbound(&mut self, id: ParticipantId, policy: Option<Policy>) {
        if let Some(p) = self.participants.get_mut(&id) {
            self.versions.bump_inbound(id);
            p.inbound = policy;
        }
    }

    /// The policy store's version counters (see
    /// [`PolicyVersions`]).
    pub fn policy_versions(&self) -> &PolicyVersions {
        &self.versions
    }

    /// The participant book.
    pub fn participants(&self) -> &BTreeMap<ParticipantId, ParticipantConfig> {
        &self.participants
    }

    /// Looks up a participant.
    pub fn participant(&self, id: ParticipantId) -> Option<&ParticipantConfig> {
        self.participants.get(&id)
    }

    /// Installs a remote participant's global policy fragment (applied to
    /// every sender's outbound traffic — a structural mutation, since it
    /// folds into *every* viewer's effective outbound policy).
    pub fn add_global_policy(&mut self, owner: ParticipantId, policy: Policy) {
        self.versions.bump_book();
        self.global_policies.push((owner, policy));
    }

    /// Removes all global fragments owned by `owner`.
    pub fn clear_global_policies(&mut self, owner: ParticipantId) {
        self.versions.bump_book();
        self.global_policies.retain(|(o, _)| *o != owner);
    }

    /// The installed global fragments with their owners, in installation
    /// order (read-only: a reference compile copies them).
    pub fn global_policies(&self) -> &[(ParticipantId, Policy)] {
        &self.global_policies
    }

    /// The outbound policy effective for `viewer`: its own policy plus
    /// every remote fragment, in parallel — borrowed when there are no
    /// fragments to fold in.
    pub fn effective_outbound(&self, viewer: ParticipantId) -> Option<Cow<'_, Policy>> {
        let own = self.participants.get(&viewer)?.outbound.as_ref();
        effective_outbound(own, &self.global_policies)
    }

    /// Stages `delta` on the book, after checking it against the book —
    /// every subject enrolled, every referenced port resolvable — and
    /// against the transformations, which must accept every policy the
    /// delta leaves in force: a participant's effective outbound policy,
    /// global fragments included, and its inbound policy's stage-2
    /// isolation. A delta either check rejects leaves the book and the
    /// versions as they were. The policies an accepted delta leaves in
    /// force are compiled here, once: the next compile serves them as
    /// they stand.
    pub(crate) fn stage_delta(&mut self, delta: &PolicyDelta) -> Result<(), SdxError> {
        let enrolled = &self.participants;
        let port_mac = |p: ParticipantId, idx: u8| enrolled.get(&p).and_then(|c| c.port_mac(idx));
        delta
            .validate(
                |p| enrolled.contains_key(&p),
                |p, idx| port_mac(p, idx).is_some(),
            )
            .map_err(SdxError::PolicyRejected)?;
        // Each touched (participant, direction) ends up holding what its
        // last operation leaves in force.
        let last: BTreeMap<_, _> = (delta.ops.iter())
            .map(|op| ((op.participant, op.scope), op.op.policy()))
            .collect();
        let (mut outbound, mut inbound) = (Vec::new(), Vec::new());
        for ((id, scope), policy) in last {
            match scope {
                PolicyScope::Outbound => {
                    if let Some(policy) = effective_outbound(policy, &self.global_policies) {
                        outbound.push((id, outbound_clauses(id, &policy)?));
                    }
                }
                PolicyScope::Inbound => {
                    if let Some(policy) = policy {
                        let compiled = compile_policy(policy);
                        transform::stage2_block(&enrolled[&id], Some(&compiled), &[], &port_mac)?;
                        inbound.push((id, compiled));
                    }
                }
            }
        }
        for op in &delta.ops {
            let policy = op.op.policy().cloned();
            match op.scope {
                PolicyScope::Outbound => self.set_outbound(op.participant, policy),
                PolicyScope::Inbound => self.set_inbound(op.participant, policy),
            }
        }
        let book = self.versions.book();
        for (id, value) in outbound {
            let stamp = (book, self.versions.outbound_of(id));
            self.outbound.insert(id, Compiled::new(stamp, value, true));
        }
        for (id, value) in inbound {
            let stamp = (book, self.versions.inbound_of(id));
            self.inbound.insert(id, Compiled::new(stamp, value, true));
        }
        Ok(())
    }

    /// Brings the compiled policies up to the book's current versions,
    /// compiling only where a stamp moved; returns how many policies were
    /// served as they stood and how many participants had one that moved.
    /// A policy the transformations reject is never stored, so it is
    /// reported again on every call until it is replaced.
    pub(crate) fn refresh_policies(&mut self) -> Result<(usize, usize), SdxError> {
        let book = self.versions.book();
        let (mut served, mut moved) = (0, 0);
        for (&id, cfg) in &self.participants {
            let outbound = refresh_compiled(
                &mut self.outbound,
                id,
                (book, self.versions.outbound_of(id)),
                || effective_outbound(cfg.outbound.as_ref(), &self.global_policies),
                |pol| outbound_clauses(id, pol),
            )?;
            let inbound = refresh_compiled(
                &mut self.inbound,
                id,
                (book, self.versions.inbound_of(id)),
                || cfg.inbound.as_ref().map(Cow::Borrowed),
                |pol| Ok(compile_policy(pol)),
            )?;
            let count = |what| usize::from(outbound == what) + usize::from(inbound == what);
            served += count(Refreshed::Served);
            moved += usize::from(count(Refreshed::Moved) > 0);
        }
        Ok((served, moved))
    }

    /// Every participant with an effective outbound policy and its
    /// compiled forwarding clauses, in `ParticipantId` order, as of the
    /// last refresh.
    pub(crate) fn outbound_rules(&self) -> impl Iterator<Item = (ParticipantId, &[FwdRule])> {
        self.outbound
            .iter()
            .map(|(&id, c)| (id, c.value.as_slice()))
    }

    /// `id`'s compiled inbound policy as of the last refresh.
    pub(crate) fn inbound_classifier(&self, id: ParticipantId) -> Option<&Classifier> {
        self.inbound.get(&id).map(|c| &c.value)
    }

    /// Runs the full pipeline against the current routes.
    pub fn compile_all(
        &mut self,
        rs: &RouteServer,
        vnh: &mut VnhAllocator,
    ) -> Result<CompileReport, SdxError> {
        let reg = self.telemetry.clone();
        let t0 = Instant::now();
        let mut stats = CompileStats::default();

        // ---- Step 1: compile the policies whose version moved since the
        // last run; every other one is borrowed as it stands.
        let (served, policy_dirty) = self.refresh_policies()?;
        stats.memo_hits = served;
        let mut lap = t0;
        let mut observe = |stage: &str| {
            let elapsed = lap.elapsed();
            reg.observe_duration(stage, elapsed);
            lap += elapsed;
            elapsed
        };
        observe("compile.classifiers");

        // ---- Phase A (per viewer, in ParticipantId order): the signature
        // map and its FEC partition, built whole or patched per dirty
        // prefix (see `phase_a`).
        let viewers: Vec<(ParticipantId, (u64, u64), &[FwdRule])> = (self.outbound.iter())
            .map(|(&id, c)| (id, c.stamp, c.value.as_slice()))
            .collect();
        let (fecs, dirty_prefixes) = phase_a::run(
            &mut self.cache,
            self.versions.book(),
            rs,
            &viewers,
            &reg,
            &mut stats.pieces.units,
        );
        let cache = self
            .cache
            .as_mut()
            .expect("phase A leaves its cache behind");

        // ---- Phase B (viewer order): VNH assignment *by content-addressed
        // key*; an exhausted pool is reported before anything is written,
        // so exhaustion leaves the allocator (key maps included) untouched.
        // A group whose identity (viewer, member prefixes, best next hop)
        // survived from the previous compilation keeps its exact
        // id/VNH/VMAC, so re-optimization only relabels what actually
        // changed; on a fresh allocator no key is mapped and ids follow
        // group enumeration order.
        let keys = fecs.iter().flat_map(|partition| &partition.keys);
        let assigned = vnh.assign_keyed(keys)?;
        let wanted = assigned.triples.len();
        reg.add("vnh.reused.count", (wanted - assigned.fresh) as u64);
        reg.add("vnh.fresh.count", assigned.fresh as u64);
        reg.add("vnh.alloc.count", wanted as u64);
        stats.vnh_time = observe("compile.fec");

        // ---- Phase C (per viewer, in ParticipantId order): FEC groups
        // under their ids and the stage-1 rules over them — rebuilt only
        // for a viewer one of whose inputs moved.
        let participants = &self.participants;
        let route_generation = cache.route_generation;
        let pieces = &mut cache.pieces;
        let retracted: Vec<ParticipantId> = pieces
            .viewers
            .keys()
            .filter(|viewer| !self.outbound.contains_key(viewer))
            .copied()
            .collect();
        for viewer in retracted {
            pieces.replace_viewer(viewer, None);
        }
        let mut triples = assigned.triples.as_slice();
        for ((&viewer, compiled), partition) in self.outbound.iter().zip(fecs) {
            let rules = compiled.value.as_slice();
            let (mine, rest) = triples.split_at(partition.keys.len());
            triples = rest;
            let reads_routes = rules.iter().any(|r| r.rewritten_dst().is_some());
            let inputs = ViewerInputs {
                stamp: compiled.stamp,
                partition,
                route_generation: reads_routes.then_some(route_generation),
            };
            let current = pieces
                .viewers
                .get(&viewer)
                .is_some_and(|piece| piece.is_current(&inputs, mine));
            stats.pieces.viewers.note(current);
            if !current {
                let piece = viewer_piece(viewer, rules, inputs, mine, participants, rs)?;
                pieces.replace_viewer(viewer, Some(piece));
            }
        }
        observe("compile.stage1");

        // ---- Phase D (per receiver): stage-2 delivery blocks.
        let inbound = |id| {
            let compiled = self.inbound.get(&id).map(|c| &c.value);
            (self.versions.inbound_of(id), compiled)
        };
        pieces.settle_blocks(participants, inbound, &mut stats.pieces.receivers)?;
        observe("compile.stage2");

        // ---- Step 5: composition, segment by segment.
        let classifier = pieces.compose(participants, &mut stats.pieces.segments);
        stats.compose_time = observe("compile.compose");

        // ---- Report assembly: the viewers' pieces, shared.
        let groups = pieces.viewers.clone();
        let arp_bindings = (groups.values().flatten())
            .map(|g| (g.vnh, g.vmac))
            .collect();
        stats.rule_count = classifier.len();
        stats.forwarding_rules = classifier.forwarding_rule_count();
        stats.group_count = groups.values().map(|piece| piece.len()).sum();
        let report = CompileReport {
            classifier,
            vnh_of: VnhMap::of(&groups),
            groups,
            arp_bindings,
            stats,
        };
        observe("compile.assemble");
        stats.total = t0.elapsed();
        reg.observe_duration("compile.total", stats.total);
        reg.inc("compile.count");
        stats.pieces.record(&reg, dirty_prefixes, policy_dirty);
        Ok(CompileReport { stats, ..report })
    }

    /// The stage-1 rules in priority order and each participant's stage-2
    /// block, as the last compile left them — what the naive composition
    /// the optimized one is tested against is fed.
    #[cfg(test)]
    fn stages(&self) -> (Vec<Rule>, BTreeMap<ParticipantId, transform::Block>) {
        let pieces = &self.cache.as_ref().expect("compiled").pieces;
        let blocks = (pieces.receivers.iter())
            .map(|(&id, built)| (id, built.block.clone()))
            .collect();
        (pieces.stage1(&self.participants), blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fec::canonicalize_report;
    use sdx_bgp::msg::UpdateMessage;
    use sdx_bgp::route_server::ExportPolicy;
    use sdx_net::{ip, prefix, FieldMatch, LocatedPacket, Packet, Prefix};
    use sdx_policy::Policy as P;

    /// The paper's Figure 1 topology: A (one port), B (two ports), C (one
    /// port), plus D (no policies touch it). B announces p1–p4 but does
    /// not export p4 to A; C announces p1, p2, p4; D announces p5. A runs
    /// the application-specific peering policy; B runs the inbound TE
    /// policy. p5 must remain untouched by SDX processing.
    fn figure1() -> (SdxCompiler, RouteServer) {
        let mut compiler = SdxCompiler::new();
        let a = ParticipantConfig::new(1, 65001, 1).with_outbound(
            (P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(ParticipantId(2))))
                + (P::match_(FieldMatch::TpDst(443)) >> P::fwd(PortId::Virt(ParticipantId(3)))),
        );
        let b = ParticipantConfig::new(2, 65002, 2).with_inbound(
            (P::match_(FieldMatch::NwSrc(prefix("0.0.0.0/1")))
                >> P::fwd(PortId::Phys(ParticipantId(2), 1)))
                + (P::match_(FieldMatch::NwSrc(prefix("128.0.0.0/1")))
                    >> P::fwd(PortId::Phys(ParticipantId(2), 2))),
        );
        let c = ParticipantConfig::new(3, 65003, 1);
        let d = ParticipantConfig::new(4, 65004, 1);
        let mut rs = RouteServer::new();
        rs.add_peer(a.route_source(), ExportPolicy::allow_all());
        let mut b_export = ExportPolicy::allow_all();
        b_export.deny(ParticipantId(1), prefix("40.0.0.0/8"));
        rs.add_peer(b.route_source(), b_export);
        rs.add_peer(c.route_source(), ExportPolicy::allow_all());
        rs.add_peer(d.route_source(), ExportPolicy::allow_all());

        // Announcements: p1..p5 (10/8, 20/8, 30/8, 40/8, 50/8).
        for (pfx, path) in [
            ("10.0.0.0/8", vec![65002, 100, 200]),
            ("20.0.0.0/8", vec![65002, 100, 200]),
            ("30.0.0.0/8", vec![65002, 300]),
            ("40.0.0.0/8", vec![65002, 400]),
        ] {
            rs.process_update(ParticipantId(2), &b.announce([prefix(pfx)], &path));
        }
        for (pfx, path) in [
            ("10.0.0.0/8", vec![65003, 200]),
            ("20.0.0.0/8", vec![65003, 200]),
            ("40.0.0.0/8", vec![65003, 400]),
        ] {
            rs.process_update(ParticipantId(3), &c.announce([prefix(pfx)], &path));
        }
        rs.process_update(
            ParticipantId(4),
            &d.announce([prefix("50.0.0.0/8")], &[65004, 500]),
        );
        compiler.upsert_participant(a);
        compiler.upsert_participant(b);
        compiler.upsert_participant(c);
        compiler.upsert_participant(d);
        (compiler, rs)
    }

    fn run(compiler: &mut SdxCompiler, rs: &RouteServer) -> CompileReport {
        let mut vnh = VnhAllocator::default();
        compiler.compile_all(rs, &mut vnh).expect("compile")
    }

    /// The stage-1 FIB decision a border router makes for `viewer` and a
    /// concrete destination: the most specific prefix in the report's VNH
    /// map covering `dst`, with its virtual next hop. `None` means the SDX
    /// left the destination on its plain BGP path (no policy touches it).
    fn vnh_for(
        report: &CompileReport,
        viewer: ParticipantId,
        dst: Ipv4Addr,
    ) -> Option<(Prefix, Ipv4Addr)> {
        // Entries order by (network address, length) and a covering
        // prefix's network address is at most `dst`, so the candidates are
        // the viewer's entries up to `dst/32`.
        let entries = report.vnh_of.of_viewer(viewer);
        let upto = entries.partition_point(|&(p, _)| p <= Prefix::new(dst, 32));
        entries[..upto]
            .iter()
            .filter(|(p, _)| p.contains(dst))
            .max_by_key(|(p, _)| p.len())
            .copied()
    }

    /// Sends `pkt` through the compiled data plane the way a border router
    /// would: resolve the viewer's VNH for the destination, tag, classify.
    fn send(report: &CompileReport, viewer: u32, pkt: Packet) -> Vec<LocatedPacket> {
        let viewer_id = ParticipantId(viewer);
        // Stage 1 of the multi-stage FIB (what the border router does):
        // find the most specific announced prefix covering the destination.
        let tagged = match vnh_for(report, viewer_id, pkt.nw_dst) {
            Some((_, nh)) => {
                let vmac = report
                    .vmac_for(viewer_id, nh)
                    .expect("ARP binding for every VNH");
                pkt.with_macs(MacAddr::physical(viewer * 16 + 1), vmac)
            }
            None => pkt,
        };
        let lp = LocatedPacket::at(PortId::Phys(viewer_id, 1), tagged);
        report.classifier.evaluate(&lp)
    }

    #[test]
    fn figure1_app_specific_peering() {
        let (mut compiler, rs) = figure1();
        let report = run(&mut compiler, &rs);

        // Web traffic from A to p1 goes via B — and B's inbound TE sends
        // low-source-half traffic out port B1.
        let out = send(
            &report,
            1,
            Packet::tcp(ip("99.0.0.1"), ip("10.0.0.9"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(ParticipantId(2), 1));

        // High-source-half web traffic exits B2 (inbound TE).
        let out = send(
            &report,
            1,
            Packet::tcp(ip("200.0.0.1"), ip("10.0.0.9"), 5000, 80),
        );
        assert_eq!(out[0].loc, PortId::Phys(ParticipantId(2), 2));

        // HTTPS traffic to p1 goes via C.
        let out = send(
            &report,
            1,
            Packet::tcp(ip("99.0.0.1"), ip("10.0.0.9"), 5000, 443),
        );
        assert_eq!(out[0].loc, PortId::Phys(ParticipantId(3), 1));
    }

    #[test]
    fn figure1_default_follows_best_route() {
        let (mut compiler, rs) = figure1();
        let report = run(&mut compiler, &rs);
        // Non-web traffic to p1 follows A's best BGP route (C: shorter path).
        let out = send(
            &report,
            1,
            Packet::tcp(ip("99.0.0.1"), ip("10.0.0.9"), 5000, 22),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(ParticipantId(3), 1));
        // Traffic to p3 (announced only by B) defaults via B.
        let out = send(
            &report,
            1,
            Packet::tcp(ip("99.0.0.1"), ip("30.0.0.9"), 5000, 22),
        );
        assert_eq!(out[0].loc, PortId::Phys(ParticipantId(2), 1));
    }

    #[test]
    fn figure1_bgp_consistency() {
        let (mut compiler, rs) = figure1();
        let report = run(&mut compiler, &rs);
        // B did not export p4 to A: A's web traffic to p4 must NOT go to B.
        // Default is C (the only exporter), and the web policy cannot
        // override it toward B.
        let out = send(
            &report,
            1,
            Packet::tcp(ip("99.0.0.1"), ip("40.0.0.9"), 5000, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(ParticipantId(3), 1));
        // p5 is untouched by any policy: no VNH was allocated for it.
        assert!(!report.vnh_of.keys().any(|(_, p)| p == prefix("50.0.0.0/8")));
        // Default delivery for p5 still works via the MAC-learning rules
        // (next hop = D's physical address, untouched by the SDX)…
        let best = rs.best_for(ParticipantId(1), prefix("50.0.0.0/8")).unwrap();
        assert_eq!(best.source.participant, ParticipantId(4));
    }

    #[test]
    fn figure1_group_shapes() {
        let (mut compiler, rs) = figure1();
        let report = run(&mut compiler, &rs);
        // Only A has outbound policies, so only A has groups.
        assert!(report.groups[&ParticipantId(1)].len() >= 2);
        assert!(!report.groups.contains_key(&ParticipantId(2)));
        // p1 and p2 share identical behaviour → same group (the paper's
        // worked example).
        let ga = &report.groups[&ParticipantId(1)];
        let find = |pfx: &str| {
            ga.iter()
                .position(|g| g.prefixes.contains(&prefix(pfx)))
                .unwrap_or_else(|| panic!("no group contains {pfx}"))
        };
        assert_eq!(find("10.0.0.0/8"), find("20.0.0.0/8"));
        assert_ne!(find("10.0.0.0/8"), find("30.0.0.0/8"));
        assert_ne!(find("10.0.0.0/8"), find("40.0.0.0/8"));
        // What grouping saves, read off the one compile: without it every
        // affected (viewer, prefix) pair would need a VNH of its own.
        assert!(report.stats.group_count < report.vnh_of.len());
    }

    #[test]
    fn memoization_hits_on_recompile() {
        let (mut compiler, rs) = figure1();
        let mut vnh = VnhAllocator::default();
        let r1 = compiler.compile_all(&rs, &mut vnh).unwrap();
        assert_eq!(r1.stats.memo_hits, 0);
        let r2 = compiler.compile_all(&rs, &mut vnh).unwrap();
        assert_eq!(r2.stats.memo_hits, 2, "A's outbound + B's inbound cached");
        // A policy is compiled when it changes — and only that one.
        compiler.set_outbound(
            ParticipantId(1),
            Some(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(ParticipantId(2)))),
        );
        let r3 = compiler.compile_all(&rs, &mut vnh).unwrap();
        assert_eq!(r3.stats.memo_hits, 1, "B's inbound is served as it stood");
    }

    #[test]
    fn naive_composition_agrees_with_optimized() {
        let (mut compiler, rs) = figure1();
        let opt = run(&mut compiler, &rs);
        // The same stages, composed as the full cross product instead.
        let (stage1, blocks) = compiler.stages();
        let naive = CompileReport {
            classifier: transform::compose_naive(stage1, &blocks),
            ..opt.clone()
        };
        // Same observable behaviour on a probe battery.
        for (src, dst, port) in [
            ("99.0.0.1", "10.0.0.9", 80u16),
            ("200.0.0.1", "10.0.0.9", 80),
            ("99.0.0.1", "10.0.0.9", 443),
            ("99.0.0.1", "30.0.0.9", 22),
            ("99.0.0.1", "40.0.0.9", 80),
        ] {
            let a = send(&opt, 1, Packet::tcp(ip(src), ip(dst), 5000, port));
            let b = send(&naive, 1, Packet::tcp(ip(src), ip(dst), 5000, port));
            assert_eq!(a, b, "probe {src}->{dst}:{port}");
        }
    }

    /// Field-by-field CompileReport equality (stats carry wall-clock, so
    /// they are deliberately excluded).
    fn assert_reports_identical(a: &CompileReport, b: &CompileReport, what: &str) {
        assert_eq!(a.classifier, b.classifier, "{what}: classifier differs");
        assert_eq!(a.groups, b.groups, "{what}: groups differ");
        assert_eq!(
            a.arp_bindings, b.arp_bindings,
            "{what}: ARP bindings differ"
        );
        assert_eq!(a.vnh_of, b.vnh_of, "{what}: VNH map differs");
    }

    /// Two compiles' reports, canonically relabelled, are equal.
    fn assert_canonically_identical(a: &CompileReport, b: &CompileReport, what: &str) {
        let pool = VnhAllocator::default_pool();
        assert_reports_identical(
            &canonicalize_report(a, pool),
            &canonicalize_report(b, pool),
            what,
        );
    }

    /// Phase A's telemetry since `before`: (viewers re-partitioned,
    /// viewers served their partition, maps rebuilt for a policy reason).
    fn phase_a_counts(compiler: &SdxCompiler, before: [u64; 3]) -> [u64; 3] {
        let reg = compiler.telemetry();
        let now = [
            "compile.shard.recompiled.count",
            "compile.shard.skipped.count",
            "policy.dirty_units.count",
        ]
        .map(|key| reg.counter(key).get());
        std::array::from_fn(|i| now[i] - before[i])
    }

    #[test]
    fn idle_recompile_serves_every_viewer() {
        let (mut compiler, mut rs) = figure1();
        let mut vnh = VnhAllocator::default();
        let r1 = compiler.compile_all(&rs, &mut vnh).unwrap();
        // Drained after the compile, as the controller's FIB sync does.
        rs.take_dirty_prefixes();
        let before = phase_a_counts(&compiler, [0; 3]);
        // Nothing changed: A's map is held and comes through unpatched,
        // and keyed VNH reuse makes the reports identical without
        // canonicalization.
        let r2 = compiler.compile_all(&rs, &mut vnh).unwrap();
        assert_eq!(phase_a_counts(&compiler, before), [0, 1, 0]);
        let units = r2.stats.pieces.units;
        assert_eq!((units.recomputed, units.reused), (0, 1));
        assert_reports_identical(&r1, &r2, "idle recompile");
    }

    #[test]
    fn a_compile_leaves_the_dirty_set_as_it_found_it() {
        let (mut compiler, mut rs) = figure1();
        let mut vnh = VnhAllocator::default();
        let found = rs.dirty_prefixes().clone();
        assert_eq!(found.len(), 5, "every announced prefix");
        compiler.compile_all(&rs, &mut vnh).unwrap();
        assert_eq!(rs.dirty_prefixes(), &found, "a compile drains nothing");
        rs.take_dirty_prefixes();
        // A second compiler over the same route server reads the same
        // set, so the warm compiler still patches what changed.
        let msg = compiler
            .participant(ParticipantId(2))
            .unwrap()
            .announce([prefix("10.0.0.0/8")], &[65002, 999]);
        rs.process_update(ParticipantId(2), &msg);
        let cold = run(&mut figure1().0, &rs);
        assert_eq!(rs.dirty_len(), 1);
        let warm = compiler.compile_all(&rs, &mut vnh).unwrap();
        assert_canonically_identical(&warm, &cold, "warm after another compile");
    }

    #[test]
    fn a_dirty_prefix_is_patched_and_matches_cold_compile() {
        let (mut compiler, mut rs) = figure1();
        let mut vnh = VnhAllocator::default();
        compiler.compile_all(&rs, &mut vnh).unwrap();
        rs.take_dirty_prefixes();
        // One prefix churns (B's path for p1 shortens to C's length): A's
        // map is patched, not rebuilt, and the patched output equals a
        // from-scratch compile of the same world.
        let msg = compiler
            .participant(ParticipantId(2))
            .unwrap()
            .announce([prefix("10.0.0.0/8")], &[65002, 999]);
        rs.process_update(ParticipantId(2), &msg);
        assert_eq!(rs.dirty_len(), 1);
        let warm = compiler.compile_all(&rs, &mut vnh).unwrap();
        let units = warm.stats.pieces.units;
        assert_eq!((units.recomputed, units.reused), (0, 1), "patched");
        let (mut fresh, mut rs2) = figure1();
        rs2.process_update(ParticipantId(2), &msg);
        assert_canonically_identical(&warm, &run(&mut fresh, &rs2), "warm patch vs cold");
    }

    #[test]
    fn dirt_the_viewer_never_sees_keeps_its_partition() {
        let (mut compiler, mut rs) = figure1();
        let mut vnh = VnhAllocator::default();
        compiler.compile_all(&rs, &mut vnh).unwrap();
        rs.take_dirty_prefixes();
        // D announces exactly one prefix (50/8), and A's clauses forward
        // to B and C only. Denying D's exports to A dirties 50/8, which is
        // in no signature of A's before or after: A is served its very
        // partition and its piece.
        let mut export = ExportPolicy::allow_all();
        export.deny(ParticipantId(1), prefix("50.0.0.0/8"));
        rs.set_export_policy(ParticipantId(4), export.clone());
        let before = phase_a_counts(&compiler, [0; 3]);
        let warm = compiler.compile_all(&rs, &mut vnh).unwrap();
        assert_eq!(phase_a_counts(&compiler, before), [0, 1, 0]);
        assert_eq!(warm.stats.pieces.viewers.recomputed, 0);
        let (mut cold, mut rs2) = figure1();
        rs2.set_export_policy(ParticipantId(4), export);
        assert_canonically_identical(&warm, &run(&mut cold, &rs2), "export flip vs cold");
    }

    #[test]
    fn a_withdrawn_prefix_leaves_the_map_and_a_reset_takes_its_routes() {
        let (mut compiler, mut rs) = figure1();
        let mut vnh = VnhAllocator::default();
        compiler.compile_all(&rs, &mut vnh).unwrap();
        rs.take_dirty_prefixes();
        // B and C both withdraw p2: no clause of A's reaches it any more,
        // so its entry goes. Then C's session resets: p1 and p4 lose their
        // HTTPS member and their default next hop.
        let p2 = prefix("20.0.0.0/8");
        for from in [2, 3] {
            rs.process_update(ParticipantId(from), &UpdateMessage::withdraw([p2]));
        }
        let warm = compiler.compile_all(&rs, &mut vnh).unwrap();
        assert!(!warm.vnh_of.keys().any(|(_, p)| p == p2));
        assert_matches_cold(&compiler, &rs, &warm);
        rs.take_dirty_prefixes();
        rs.reset_session(ParticipantId(3));
        let warm = compiler.compile_all(&rs, &mut vnh).unwrap();
        let units = warm.stats.pieces.units;
        assert_eq!((units.recomputed, units.reused), (0, 1), "patched");
        assert_matches_cold(&compiler, &rs, &warm);
    }

    #[test]
    fn cache_invalidates_on_policy_change_and_foreign_route_server() {
        let (mut compiler, mut rs) = figure1();
        // A second viewer, whose map must stay held through A's edit.
        compiler.set_outbound(
            ParticipantId(3),
            Some(P::match_(FieldMatch::TpDst(22)) >> P::fwd(PortId::Virt(ParticipantId(2)))),
        );
        let mut vnh = VnhAllocator::default();
        let mut compile = |compiler: &mut SdxCompiler, rs: &RouteServer| {
            let before = phase_a_counts(compiler, [0; 3]);
            let units = compiler
                .compile_all(rs, &mut vnh)
                .unwrap()
                .stats
                .pieces
                .units;
            let [recompiled, _, dirtied] = phase_a_counts(compiler, before);
            (units.recomputed, units.reused, recompiled, dirtied)
        };
        compile(&mut compiler, &rs);
        rs.take_dirty_prefixes();
        // An inbound edit never touches phase A.
        compiler.set_inbound(ParticipantId(2), None);
        assert_eq!(compile(&mut compiler, &rs), (0, 2, 0, 0), "inbound edit");
        // An outbound edit moves that viewer's stamp: its map is rebuilt,
        // and the other viewer's stays held.
        compiler.set_outbound(
            ParticipantId(1),
            Some(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(ParticipantId(2)))),
        );
        assert_eq!(compile(&mut compiler, &rs), (1, 1, 1, 1), "outbound edit");
        // A retraction drops the viewer's map and rebuilds none.
        compiler.set_outbound(ParticipantId(3), None);
        assert_eq!(compile(&mut compiler, &rs), (0, 1, 0, 1), "retraction");
        // A structural book mutation bumps the epoch → every map rebuilt.
        compiler.upsert_participant(ParticipantConfig::new(9, 65009, 1));
        assert_eq!(compile(&mut compiler, &rs).0, 1, "book mutation");
        // A *different* route server instance (here: a clone) has a fresh
        // compile identity → every map rebuilt, never a stale entry.
        assert_eq!(compile(&mut compiler, &rs.clone()).0, 1, "foreign instance");
    }

    #[test]
    fn a_staged_policy_is_compiled_once() {
        let (mut compiler, rs) = figure1();
        let mut vnh = VnhAllocator::default();
        compiler.compile_all(&rs, &mut vnh).unwrap();
        let d = ParticipantId(4);
        let steer = P::match_(FieldMatch::TpDst(443)) >> P::fwd(PortId::Virt(ParticipantId(2)));
        compiler
            .stage_delta(&PolicyDelta::new().install_outbound(d, steer))
            .expect("a unicast policy stages");
        // Staging compiled it under the stamp the book now carries, so the
        // next refresh keeps that very compilation — and, being the first
        // to serve it, reports it as moved.
        let stamp = (compiler.versions.book(), compiler.versions.outbound_of(d));
        let staged = &compiler.outbound[&d];
        assert_eq!(staged.stamp, stamp);
        let clauses = staged.value.as_ptr();
        assert_eq!(compiler.refresh_policies().unwrap(), (2, 1));
        assert_eq!(compiler.outbound[&d].value.as_ptr(), clauses);
        assert_eq!(compiler.refresh_policies().unwrap(), (3, 0));
        let warm = compiler.compile_all(&rs, &mut vnh).unwrap();
        assert_matches_cold(&compiler, &rs, &warm);
    }

    /// `warm` against a cold compile of `compiler`'s book.
    fn assert_matches_cold(compiler: &SdxCompiler, rs: &RouteServer, warm: &CompileReport) {
        let mut cold = figure1().0;
        for cfg in compiler.participants().clone().into_values() {
            cold.upsert_participant(cfg);
        }
        let pool = VnhAllocator::default_pool();
        assert_reports_identical(
            &canonicalize_report(warm, pool),
            &canonicalize_report(&run(&mut cold, rs), pool),
            "warm vs cold",
        );
    }

    #[test]
    fn a_compile_that_fails_half_way_leaves_no_piece_to_mistake_for_current() {
        let (mut compiler, mut rs) = figure1();
        let mut vnh = VnhAllocator::default();
        compiler.compile_all(&rs, &mut vnh).unwrap();
        rs.take_dirty_prefixes();
        // A's tags now reach C where they reached B — and A's own block,
        // the first to be rebuilt, is rejected: the run stops with A's
        // piece replaced and B's and C's blocks still listing the old tags.
        let a = ParticipantId(1);
        compiler.set_outbound(
            a,
            Some(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(ParticipantId(3)))),
        );
        compiler.set_inbound(a, Some(P::fwd(PortId::Virt(ParticipantId(3)))));
        let err = compiler.compile_all(&rs, &mut vnh).unwrap_err();
        assert!(matches!(
            err,
            SdxError::Transform(TransformError::InboundEscapesSwitch(..))
        ));
        compiler.set_inbound(a, None);
        let warm = compiler.compile_all(&rs, &mut vnh).unwrap();
        assert_eq!(warm.stats.pieces.viewers.recomputed, 0, "A's piece stood");
        assert_matches_cold(&compiler, &rs, &warm);
    }

    #[test]
    fn cached_pieces_are_bounded_by_the_book() {
        let (mut compiler, mut rs) = figure1();
        let mut vnh = VnhAllocator::default();
        let owners = |c: &SdxCompiler| c.cache.as_ref().expect("compiled").pieces.owners();
        let ids = |ids: &[u32]| ids.iter().map(|&n| ParticipantId(n)).collect::<Vec<_>>();
        compiler.compile_all(&rs, &mut vnh).unwrap();
        rs.take_dirty_prefixes();
        // (viewer pieces, receiver blocks, segments), by owner.
        assert_eq!(
            owners(&compiler),
            (ids(&[1]), ids(&[1, 2, 3, 4]), ids(&[1, 1, 1, 2, 3, 4]))
        );
        // A retracted outbound policy takes the viewer's piece and both
        // its segments along; pushing and retracting leaves nothing behind.
        let steer = P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(ParticipantId(3)));
        for _ in 0..3 {
            compiler.set_outbound(ParticipantId(4), Some(steer.clone()));
            compiler.compile_all(&rs, &mut vnh).unwrap();
            assert_eq!(owners(&compiler).0, ids(&[1, 4]));
            compiler.set_outbound(ParticipantId(4), None);
            compiler.compile_all(&rs, &mut vnh).unwrap();
            assert_eq!(
                owners(&compiler),
                (ids(&[1]), ids(&[1, 2, 3, 4]), ids(&[1, 1, 1, 2, 3, 4]))
            );
        }
        // A participant leaving the book supersedes its epoch: every piece
        // goes, and the next compile keeps none of the departed.
        compiler.remove_participant(ParticipantId(1));
        let warm = compiler.compile_all(&rs, &mut vnh).unwrap();
        assert_eq!(
            warm.stats.pieces.receivers.reused, 0,
            "a new epoch starts cold"
        );
        assert_eq!(
            owners(&compiler),
            (ids(&[]), ids(&[2, 3, 4]), ids(&[2, 3, 4]))
        );
        // A compiler that never compiled holds no piece: every one is
        // built, and on the same allocator the table is the same.
        let mut fresh = SdxCompiler::new();
        for cfg in compiler.participants().values() {
            fresh.upsert_participant(cfg.clone());
        }
        let cold = fresh.compile_all(&rs, &mut vnh).unwrap();
        let pieces = cold.stats.pieces;
        assert_eq!(
            (
                pieces.viewers.reused,
                pieces.receivers.reused,
                pieces.segments.reused
            ),
            (0, 0, 0)
        );
        assert_eq!(cold.classifier, warm.classifier);
    }

    #[test]
    fn policy_delta_recompile_matches_from_scratch() {
        // The equivalence spine of the policy-churn path: mutate policies
        // every which way against a warm cache and require the
        // incremental output to equal a cold compile of the same world.
        let (mut compiler, rs) = figure1();
        let mut vnh = VnhAllocator::default();
        compiler.compile_all(&rs, &mut vnh).unwrap();
        let pool = VnhAllocator::default_pool();
        type Mutation = (&'static str, Box<dyn Fn(&mut SdxCompiler)>);
        let mutations: Vec<Mutation> = vec![
            (
                "narrow an existing outbound policy",
                Box::new(|c: &mut SdxCompiler| {
                    c.set_outbound(
                        ParticipantId(1),
                        Some(
                            P::match_(FieldMatch::TpDst(80))
                                >> P::fwd(PortId::Virt(ParticipantId(2))),
                        ),
                    );
                }),
            ),
            (
                "grow it back with a dst-constrained clause",
                Box::new(|c: &mut SdxCompiler| {
                    c.set_outbound(
                        ParticipantId(1),
                        Some(
                            (P::match_(FieldMatch::TpDst(80))
                                >> P::fwd(PortId::Virt(ParticipantId(2))))
                                + (P::match_(FieldMatch::NwDst(prefix("20.0.0.0/8")))
                                    >> P::match_(FieldMatch::TpDst(443))
                                    >> P::fwd(PortId::Virt(ParticipantId(3)))),
                        ),
                    );
                }),
            ),
            (
                "first-ever policy for a quiet viewer",
                Box::new(|c: &mut SdxCompiler| {
                    c.set_outbound(
                        ParticipantId(4),
                        Some(
                            P::match_(FieldMatch::TpDst(443))
                                >> P::fwd(PortId::Virt(ParticipantId(2))),
                        ),
                    );
                }),
            ),
            (
                "retract a viewer's policy entirely",
                Box::new(|c: &mut SdxCompiler| {
                    c.set_outbound(ParticipantId(4), None);
                }),
            ),
        ];
        for (what, mutate) in mutations {
            mutate(&mut compiler);
            let incremental = compiler.compile_all(&rs, &mut vnh).unwrap();
            let mut cold = figure1().0;
            // Copy the warm book over so the cold compiler sees the same
            // post-mutation world.
            for cfg in compiler.participants().clone().into_values() {
                cold.upsert_participant(cfg);
            }
            let cold_report = run(&mut cold, &rs);
            assert_reports_identical(
                &canonicalize_report(&incremental, pool),
                &canonicalize_report(&cold_report, pool),
                what,
            );
        }
    }
}
