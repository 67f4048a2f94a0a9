//! The cached pieces of a compile (phases B–E).
//!
//! [`compile_all`](crate::compiler::SdxCompiler::compile_all) keeps what
//! it derives after phase A as three kinds of piece, each recomputed only
//! when one of its inputs moved — a cold compile is the case where every
//! piece is stale:
//!
//! * **per viewer** ([`ViewerPiece`]): its FEC groups, its prefix → VNH
//!   map and its stage-1 policy and default rules. Inputs: the compiled
//!   outbound policy (its stamp), the phase-A partition (by identity),
//!   the `(id, VNH, VMAC)` triples the allocator hands this compile for
//!   its group keys, and — for a viewer holding a rewrite rule, which
//!   joins BGP on the rewritten address — the route generation.
//! * **per receiver**: its stage-2 block. Inputs: the compiled inbound
//!   policy (its version) and the rank-ordered list of VMACs deliverable
//!   to it.
//! * **per stage-1 segment** (a viewer's policy rules, a viewer's
//!   defaults, a participant's MAC-learning defaults): its composition
//!   with the blocks of the receivers it forwards to. Inputs: the segment
//!   (the viewer piece, by identity) and those blocks (by generation).
//!
//! Everything a piece reads beyond its listed inputs is a function of the
//! participant book, and the pieces live inside the compiler's
//! `CompileCache` beside phase A's signature maps, which a book mutation
//! throws away whole. Every piece records the inputs it was built from and is
//! compared against the current ones, so a compile that fails half-way
//! leaves nothing that a later compile could mistake for current.
//!
//! A viewer piece is shared (`Arc`) into every [`CompileReport`] that
//! includes it, so two reports hold the *same* piece exactly when the
//! viewer's groups did not move between them — which is how the
//! controller's control-plane flip visits only the viewers that changed.
//!
//! [`CompileReport`]: crate::compiler::CompileReport

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sdx_net::{Ipv4Addr, MacAddr, ParticipantId, Prefix};
use sdx_policy::classifier::{Classifier, Rule};
use sdx_telemetry::{Event, Registry};

use crate::fec::{FecGroup, FecId};
use crate::participant::ParticipantConfig;
use crate::phase_a::FecPartition;
use crate::transform::{self, Block, TransformError};

/// What one kind of cached piece did in one compile.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Tally {
    /// Pieces rebuilt because an input moved (or nothing was cached).
    pub recomputed: usize,
    /// Pieces served as they stood.
    pub reused: usize,
}

impl Tally {
    pub(crate) fn note(&mut self, reused: bool) {
        if reused {
            self.reused += 1;
        } else {
            self.recomputed += 1;
        }
    }
}

/// Per compile: how many pieces of each kind were rebuilt and how many
/// served from the cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PieceCounts {
    /// Phase-A signature maps, one per viewer: built whole (recomputed —
    /// no map was held under the viewer's outbound stamp) or held and
    /// patched per route-dirty prefix (reused).
    pub units: Tally,
    /// Per-viewer pieces (groups, VNH map, stage-1 rules).
    pub viewers: Tally,
    /// Per-receiver stage-2 blocks.
    pub receivers: Tally,
    /// Stage-1 segment compositions.
    pub segments: Tally,
}

impl PieceCounts {
    /// Adds the counts to `compile.piece.{viewer,receiver,segment}.*` and
    /// journals the run's "why this compile" record: what had moved —
    /// `dirty_prefixes` in the route server, a policy of `policy_dirty`
    /// participants — and what was therefore recomputed and what reused.
    pub(crate) fn record(&self, reg: &Registry, dirty_prefixes: usize, policy_dirty: usize) {
        let pair = |tally: Tally| (tally.recomputed, tally.reused);
        for (recomputed, reused, tally) in [
            (
                "compile.piece.viewer.recomputed.count",
                "compile.piece.viewer.reused.count",
                self.viewers,
            ),
            (
                "compile.piece.receiver.recomputed.count",
                "compile.piece.receiver.reused.count",
                self.receivers,
            ),
            (
                "compile.piece.segment.recomputed.count",
                "compile.piece.segment.reused.count",
                self.segments,
            ),
        ] {
            reg.add(recomputed, tally.recomputed as u64);
            reg.add(reused, tally.reused as u64);
        }
        reg.record_event(Event::CompileExplained {
            dirty_prefixes,
            policy_dirty,
            units: pair(self.units),
            viewer_pieces: pair(self.viewers),
            receiver_blocks: pair(self.receivers),
            segments: pair(self.segments),
        });
    }
}

/// What a viewer piece was built from, kept to decide whether it is still
/// current.
#[derive(Debug)]
pub(crate) struct ViewerInputs {
    /// The compiled outbound policy's `(book epoch, version)`.
    pub(crate) stamp: (u64, u64),
    /// The phase-A partition, compared by identity.
    pub(crate) partition: Arc<FecPartition>,
    /// The cache's route generation, for a viewer holding a rewrite rule.
    pub(crate) route_generation: Option<u64>,
}

#[derive(Debug)]
struct ViewerParts {
    groups: Vec<FecGroup>,
    /// `prefix → VNH` over every group's members, sorted by prefix.
    vnh: Vec<(Prefix, Ipv4Addr)>,
    policy_rules: Vec<Rule>,
    default_rules: Vec<Rule>,
    /// `(receiver, VMAC)`: the tags of this viewer's groups whose traffic
    /// can arrive at `receiver`, sorted by receiver, then group position.
    deliver: Vec<(ParticipantId, MacAddr)>,
    inputs: Option<ViewerInputs>,
}

/// One viewer's compiled piece: its FEC groups (what it derefs to), its
/// prefix → VNH map and, for the compiler, its stage-1 rules. Cloning
/// shares the piece.
#[derive(Clone)]
pub struct ViewerPiece(Arc<ViewerParts>);

impl ViewerPiece {
    pub(crate) fn new(
        groups: Vec<FecGroup>,
        policy_rules: Vec<Rule>,
        default_rules: Vec<Rule>,
        deliver: BTreeSet<(ParticipantId, usize)>,
        inputs: Option<ViewerInputs>,
    ) -> Self {
        let mut vnh: Vec<(Prefix, Ipv4Addr)> = groups
            .iter()
            .flat_map(|g| g.prefixes.iter().map(|&p| (p, g.vnh)))
            .collect();
        vnh.sort_unstable_by_key(|&(p, _)| p);
        let deliver = deliver
            .into_iter()
            .map(|(receiver, at)| (receiver, groups[at].vmac))
            .collect();
        ViewerPiece(Arc::new(ViewerParts {
            groups,
            vnh,
            policy_rules,
            default_rules,
            deliver,
            inputs,
        }))
    }

    /// A piece holding `groups` and the VNH map they imply, and no rules:
    /// what a report rebuilt outside the compiler (a relabelled copy)
    /// carries.
    pub fn from_groups(groups: Vec<FecGroup>) -> Self {
        ViewerPiece::new(groups, Vec::new(), Vec::new(), BTreeSet::new(), None)
    }

    /// Whether `self` and `other` are one shared piece — true between two
    /// reports exactly when the viewer's piece was not rebuilt in between.
    pub fn same_piece(&self, other: &ViewerPiece) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The viewer's `prefix → VNH` entries, sorted by prefix.
    pub fn vnh_entries(&self) -> &[(Prefix, Ipv4Addr)] {
        &self.0.vnh
    }

    /// The VNH advertised to the viewer for `prefix`, if a group holds it.
    pub fn vnh_of(&self, prefix: Prefix) -> Option<&Ipv4Addr> {
        let vnh = &self.0.vnh;
        let at = vnh.binary_search_by_key(&prefix, |&(p, _)| p).ok()?;
        Some(&vnh[at].1)
    }

    pub(crate) fn policy_rules(&self) -> &[Rule] {
        &self.0.policy_rules
    }

    pub(crate) fn default_rules(&self) -> &[Rule] {
        &self.0.default_rules
    }

    /// Whether a piece built now from `inputs` under `triples` — the
    /// `(id, VNH, VMAC)` the allocator hands this compile for the groups,
    /// in order — would be this piece.
    pub(crate) fn is_current(
        &self,
        inputs: &ViewerInputs,
        triples: &[(FecId, Ipv4Addr, MacAddr)],
    ) -> bool {
        let same_inputs = self.0.inputs.as_ref().is_some_and(|have| {
            have.stamp == inputs.stamp
                && Arc::ptr_eq(&have.partition, &inputs.partition)
                && have.route_generation == inputs.route_generation
        });
        let held = self.0.groups.iter().map(|g| (g.id, g.vnh, g.vmac));
        same_inputs && held.eq(triples.iter().copied())
    }

    /// The receivers this viewer's tagged traffic can arrive at (one
    /// mention per tag).
    pub(crate) fn receivers(&self) -> impl Iterator<Item = ParticipantId> + '_ {
        self.0.deliver.iter().map(|&(receiver, _)| receiver)
    }

    /// This viewer's tags deliverable to `receiver`, in group order.
    pub(crate) fn deliverable_to(
        &self,
        receiver: ParticipantId,
    ) -> impl Iterator<Item = MacAddr> + '_ {
        let deliver = &self.0.deliver;
        let from = deliver.partition_point(|&(r, _)| r < receiver);
        deliver[from..]
            .iter()
            .take_while(move |&&(r, _)| r == receiver)
            .map(|&(_, vmac)| vmac)
    }
}

impl std::ops::Deref for ViewerPiece {
    type Target = [FecGroup];
    fn deref(&self) -> &[FecGroup] {
        &self.0.groups
    }
}

impl<'a> IntoIterator for &'a ViewerPiece {
    type Item = &'a FecGroup;
    type IntoIter = std::slice::Iter<'a, FecGroup>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.groups.iter()
    }
}

/// Two pieces are equal when their groups are (the VNH map follows from
/// the groups; the rules are the compiler's business).
impl PartialEq for ViewerPiece {
    fn eq(&self, other: &Self) -> bool {
        self.same_piece(other) || self.0.groups == other.0.groups
    }
}

impl Eq for ViewerPiece {}

impl std::fmt::Debug for ViewerPiece {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The NEXT_HOP rewrites of a compile: `(viewer, prefix) → VNH`, read
/// through the viewers' pieces (nothing is copied per entry). Prefixes
/// absent from the map are re-advertised unchanged.
#[derive(Clone, Default)]
pub struct VnhMap(BTreeMap<ParticipantId, ViewerPiece>);

impl VnhMap {
    /// The map the viewers' pieces imply.
    pub fn of(pieces: &BTreeMap<ParticipantId, ViewerPiece>) -> Self {
        VnhMap(pieces.clone())
    }

    /// The VNH advertised to `viewer` for `prefix`.
    pub fn get(&self, &(viewer, prefix): &(ParticipantId, Prefix)) -> Option<&Ipv4Addr> {
        self.0.get(&viewer)?.vnh_of(prefix)
    }

    /// Whether `viewer` is advertised a VNH for `prefix`.
    pub fn contains_key(&self, key: &(ParticipantId, Prefix)) -> bool {
        self.get(key).is_some()
    }

    /// One viewer's entries, sorted by prefix (empty for a viewer without
    /// groups).
    pub fn of_viewer(&self, viewer: ParticipantId) -> &[(Prefix, Ipv4Addr)] {
        self.0.get(&viewer).map_or(&[], |piece| piece.vnh_entries())
    }

    /// Every `((viewer, prefix), VNH)`, in key order.
    pub fn iter(&self) -> impl Iterator<Item = ((ParticipantId, Prefix), Ipv4Addr)> + '_ {
        self.0.iter().flat_map(|(&viewer, piece)| {
            piece
                .vnh_entries()
                .iter()
                .map(move |&(prefix, vnh)| ((viewer, prefix), vnh))
        })
    }

    /// Every `(viewer, prefix)` with a VNH, in order.
    pub fn keys(&self) -> impl Iterator<Item = (ParticipantId, Prefix)> + '_ {
        self.iter().map(|(key, _)| key)
    }

    /// Every advertised VNH, in key order (one per entry, not per group).
    pub fn values(&self) -> impl Iterator<Item = &Ipv4Addr> + '_ {
        self.0
            .values()
            .flat_map(|piece| piece.vnh_entries().iter().map(|(_, vnh)| vnh))
    }

    /// Number of `(viewer, prefix)` entries.
    pub fn len(&self) -> usize {
        self.0.values().map(|piece| piece.vnh_entries().len()).sum()
    }

    /// Whether no viewer is advertised any VNH.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialEq for VnhMap {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for VnhMap {}

impl std::fmt::Debug for VnhMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A receiver's cached stage-2 block and what it was built from.
#[derive(Debug)]
pub(crate) struct ReceiverBlock {
    /// The inbound policy version the block was built under.
    inbound_version: u64,
    /// The deliverable VMACs, in group enumeration rank order.
    vmacs: Vec<MacAddr>,
    pub(crate) block: Block,
    /// Distinct per build across the cache's life: what a composition
    /// records to tell whether the block it used is still this one.
    generation: u64,
}

/// A stage-1 segment, in the order the segments are concatenated: every
/// viewer's policy rules, then every viewer's defaults, then every
/// participant's MAC-learning defaults.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Segment {
    Policy(ParticipantId),
    Defaults(ParticipantId),
    MacLearning(ParticipantId),
}

/// A segment's cached composition and what it was composed from.
#[derive(Debug)]
struct Composition {
    /// The viewer piece whose rules were composed (`None` for
    /// MAC-learning defaults, which only the book determines).
    source: Option<ViewerPiece>,
    /// Each receiver the segment forwards to, with the generation of the
    /// block composed with (`None`: it had no block).
    blocks: Vec<(ParticipantId, Option<u64>)>,
    /// The composition, in stage-1 order.
    rules: Vec<Rule>,
    /// Per stage-1 rule of the segment, in order: the receiver it forwards
    /// to and where its composition ends in `rules` — so a block that
    /// moves recomposes the rules forwarding to it and no others.
    spans: Vec<(Option<ParticipantId>, usize)>,
}

impl Composition {
    /// Whether this is the composition of `source`'s rules.
    fn composed_from(&self, source: Option<&ViewerPiece>) -> bool {
        match (&self.source, source) {
            (Some(had), Some(has)) => had.same_piece(has),
            (None, None) => true,
            _ => false,
        }
    }

    /// The receivers whose block is no longer the one composed with.
    fn moved_blocks(
        &self,
        receivers: &BTreeMap<ParticipantId, ReceiverBlock>,
    ) -> Vec<ParticipantId> {
        let moved = |&&(r, composed_with): &&(ParticipantId, Option<u64>)| {
            receivers.get(&r).map(|b| b.generation) != composed_with
        };
        self.blocks.iter().filter(moved).map(|&(r, _)| r).collect()
    }

    /// Composes `stage1` — `source`'s rules, or a participant's
    /// MAC-learning defaults — rule by rule with its receiver's block. A
    /// rule forwarding to none of `moved` keeps the composition `kept`
    /// holds for it (`kept` being a composition of the same `stage1`).
    fn compose(
        source: Option<&ViewerPiece>,
        stage1: &[Rule],
        receivers: &BTreeMap<ParticipantId, ReceiverBlock>,
        kept: Option<(&Composition, &[ParticipantId])>,
    ) -> Composition {
        let mut rules = Vec::with_capacity(kept.map_or(stage1.len(), |(c, _)| c.rules.len()));
        let mut spans = Vec::with_capacity(stage1.len());
        let mut from = 0;
        for (at, r1) in stage1.iter().enumerate() {
            let receiver = match kept {
                Some((composition, _)) => composition.spans[at].0,
                None => transform::compose_receiver(r1),
            };
            match kept {
                Some((composition, moved)) if !receiver.is_some_and(|r| moved.contains(&r)) => {
                    rules.extend_from_slice(&composition.rules[from..composition.spans[at].1]);
                }
                _ => {
                    let block = receiver.and_then(|r| receivers.get(&r)).map(|b| &b.block);
                    rules.extend(transform::compose_rule(r1, block));
                }
            }
            from = kept.map_or(0, |(composition, _)| composition.spans[at].1);
            spans.push((receiver, rules.len()));
        }
        let mut blocks: Vec<(ParticipantId, Option<u64>)> = (spans.iter())
            .filter_map(|&(receiver, _)| receiver)
            .map(|r| (r, receivers.get(&r).map(|b| b.generation)))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        Composition {
            source: source.cloned(),
            blocks,
            rules,
            spans,
        }
    }
}

/// Every cached piece of the last compile.
#[derive(Debug, Default)]
pub(crate) struct Pieces {
    pub(crate) viewers: BTreeMap<ParticipantId, ViewerPiece>,
    pub(crate) receivers: BTreeMap<ParticipantId, ReceiverBlock>,
    /// Receivers whose deliverable list may have moved since their block
    /// was built: named by a viewer piece that has been replaced since. A
    /// receiver leaves the set only once its list has been re-derived, so
    /// a compile that fails in between forgets nothing.
    unsettled: BTreeSet<ParticipantId>,
    segments: BTreeMap<Segment, Composition>,
    generations: u64,
}

impl Pieces {
    /// Replaces (or, with `None`, drops) `viewer`'s piece, marking every
    /// receiver either version names as unsettled.
    pub(crate) fn replace_viewer(&mut self, viewer: ParticipantId, piece: Option<ViewerPiece>) {
        let old = match piece {
            Some(piece) => {
                self.unsettled.extend(piece.receivers());
                self.viewers.insert(viewer, piece)
            }
            None => self.viewers.remove(&viewer),
        };
        if let Some(old) = old {
            self.unsettled.extend(old.receivers());
        }
    }

    /// Phase D: every participant's stage-2 delivery block, rebuilt where
    /// the inbound policy (`inbound(id)`: its version and compiled form)
    /// or the deliverable VMACs moved.
    ///
    /// The VMACs are ordered by *group enumeration rank* (viewer asc,
    /// group position), not by MAC bytes: on a fresh allocator the two
    /// orders coincide (ids are drawn sequentially in enumeration order),
    /// but under keyed reuse from an older allocator byte order would
    /// follow the accidents of id assignment and stage-2 rule order would
    /// diverge between equivalent compiles. Rank order makes stage 2 a
    /// function of the groups themselves.
    pub(crate) fn settle_blocks<'c>(
        &mut self,
        participants: &BTreeMap<ParticipantId, ParticipantConfig>,
        inbound: impl Fn(ParticipantId) -> (u64, Option<&'c Classifier>),
        tally: &mut Tally,
    ) -> Result<(), TransformError> {
        let foreign_mac =
            |owner: ParticipantId, idx: u8| participants.get(&owner).and_then(|c| c.port_mac(idx));
        for (&id, cfg) in participants {
            let (inbound_version, inbound) = inbound(id);
            let cached = self.receivers.get(&id);
            // Viewer by viewer, each viewer's tags in group order.
            let relisted = (cached.is_none() || self.unsettled.contains(&id)).then(|| {
                let deliverable = |piece| ViewerPiece::deliverable_to(piece, id);
                self.viewers.values().flat_map(deliverable).collect()
            });
            let current = cached.is_some_and(|b| {
                b.inbound_version == inbound_version
                    && relisted.as_ref().is_none_or(|vmacs| *vmacs == b.vmacs)
            });
            tally.note(current);
            if current {
                continue;
            }
            let vmacs: Vec<MacAddr> = relisted.unwrap_or_else(|| {
                let old = self.receivers.remove(&id);
                old.expect("a receiver without a block is relisted").vmacs
            });
            let block = transform::stage2_block(cfg, inbound, &vmacs, &foreign_mac)?;
            self.generations += 1;
            let built = ReceiverBlock {
                inbound_version,
                vmacs,
                block,
                generation: self.generations,
            };
            self.receivers.insert(id, built);
        }
        self.unsettled.clear();
        Ok(())
    }

    /// Step 5: the composed table — each stage-1 rule with its target's
    /// stage-2 block only — segment by segment, composing again only what
    /// forwards to a block that was rebuilt (or the whole segment, if its
    /// viewer's piece was), then one concatenation in stage-1 order and
    /// one shadow elimination.
    pub(crate) fn compose(
        &mut self,
        participants: &BTreeMap<ParticipantId, ParticipantConfig>,
        tally: &mut Tally,
    ) -> Classifier {
        let Pieces {
            viewers,
            receivers,
            segments,
            ..
        } = self;
        segments.retain(|segment, _| match segment {
            Segment::Policy(viewer) | Segment::Defaults(viewer) => viewers.contains_key(viewer),
            Segment::MacLearning(owner) => participants.contains_key(owner),
        });
        let wanted = (viewers
            .iter()
            .map(|(&v, piece)| (Segment::Policy(v), Some(piece))))
        .chain(
            viewers
                .iter()
                .map(|(&v, piece)| (Segment::Defaults(v), Some(piece))),
        )
        .chain(
            participants
                .keys()
                .map(|&p| (Segment::MacLearning(p), None)),
        );
        for (segment, source) in wanted {
            let cached = (segments.get(&segment)).filter(|c| c.composed_from(source));
            let moved = cached.map(|c| c.moved_blocks(receivers));
            let current = moved.as_ref().is_some_and(Vec::is_empty);
            tally.note(current);
            if current {
                continue;
            }
            let learned;
            let stage1: &[Rule] = match (segment, source) {
                (Segment::Policy(_), Some(piece)) => piece.policy_rules(),
                (Segment::Defaults(_), Some(piece)) => piece.default_rules(),
                (Segment::MacLearning(owner), _) => {
                    learned = transform::mac_default_rules(&participants[&owner]);
                    &learned
                }
                _ => unreachable!("a viewer's segments come with its piece"),
            };
            let kept = cached.zip(moved.as_deref());
            let composed = Composition::compose(source, stage1, receivers, kept);
            segments.insert(segment, composed);
        }
        Classifier::concat_unshadowed(segments.values().map(|c| c.rules.as_slice()))
    }

    /// The owners of the viewer pieces, of the receiver blocks and of the
    /// segments held, each ascending.
    #[cfg(test)]
    pub(crate) fn owners(&self) -> (Vec<ParticipantId>, Vec<ParticipantId>, Vec<ParticipantId>) {
        let mut segments: Vec<ParticipantId> = (self.segments.keys())
            .map(|segment| match *segment {
                Segment::Policy(p) | Segment::Defaults(p) | Segment::MacLearning(p) => p,
            })
            .collect();
        segments.sort_unstable();
        (
            self.viewers.keys().copied().collect(),
            self.receivers.keys().copied().collect(),
            segments,
        )
    }

    /// The stage-1 rules in priority order, as the last compile left them.
    #[cfg(test)]
    pub(crate) fn stage1(
        &self,
        participants: &BTreeMap<ParticipantId, ParticipantConfig>,
    ) -> Vec<Rule> {
        let viewers = self.viewers.values();
        (viewers.clone().flat_map(|piece| piece.policy_rules()))
            .chain(viewers.flat_map(|piece| piece.default_rules()))
            .cloned()
            .chain(participants.values().flat_map(transform::mac_default_rules))
            .collect()
    }
}
