//! Transactional fabric commits.
//!
//! Every controller-driven mutation of the data plane — a fast-path burst
//! or a recompile, each staged by
//! [`prepare`](crate::controller::SdxController::prepare) and landed by
//! [`commit`](crate::controller::SdxController::commit) — runs inside one
//! [`FabricTxn`], held open from staging to the last wave: the compiled
//! result is validated against the invariants below, and every write
//! staging makes — overlay retirement, ARP bindings, base and per-viewer
//! writes to the fabric's Adj-RIB-Outs (which are also the border
//! routers' FIBs), the drained route-server dirty set — goes through the
//! transaction's [`UndoLog`], which keeps the previous value each write
//! displaced. The VNH allocator keeps its own journal of the same kind
//! while the transaction is open, and the waves land through
//! [`crate::schedule::drive`], which undoes its own. Any failure at any
//! step replays the records backwards, so an observer of the data plane
//! sees either the old state or the new state, never a torn mixture.
//! Nothing is copied: a transaction costs what it changes, opening one
//! included, not what the exchange holds. Forwarding writes nothing the
//! fabric holds (routers resolve through the responder, and traffic is
//! counted only in the registry and the matcher), so packets sent while
//! a transaction is open leave nothing for its rollback to miss: the
//! whole `Fabric` image comes back.
//!
//! Validation invariants (violations indicate a compiler bug, and must
//! never reach the switch):
//!
//! * every non-drop rule delivers to a **physical** port — a virtual
//!   location in an installed rule blackholes traffic;
//! * every advertised VNH has an ARP binding, so border routers can always
//!   resolve the next hops we hand them;
//! * every ARP binding resolves to a well-formed VMAC carrying its FEC id.

use std::collections::BTreeSet;

use sdx_bgp::rib::{AdjRibOuts, Advert};
use sdx_bgp::route_server::RouteServer;
use sdx_net::{Ipv4Addr, MacAddr, ParticipantId, PortId, Prefix, Write};
use sdx_openflow::fabric::Fabric;
use sdx_openflow::table::FlowEntry;
use sdx_policy::classifier::Rule;

use crate::compiler::CompileReport;
use crate::controller::SdxController;
use crate::error::SdxError;
use crate::fec::FecId;
use crate::incremental::DeltaResult;

/// One write a transaction made, as what it takes to reverse it: the
/// previous value, moved out of the structure it was written to.
#[derive(Debug)]
enum Undo {
    /// These overlay entries were retired from the head of the table.
    Overlays(Vec<FlowEntry>),
    /// The responder's binding for `addr` was `previous`.
    Arp {
        addr: Ipv4Addr,
        previous: Option<MacAddr>,
    },
    /// A write to the Adj-RIB-Outs, as the write that reverses it.
    Advert(Write<ParticipantId, Advert>),
    /// The Adj-RIB-Outs held nothing before their first write. Undoing
    /// this clears them, so the writes to them leave no entries of their
    /// own.
    WasEmpty,
    /// These prefixes were drained from the route server's dirty set.
    Dirty(BTreeSet<Prefix>),
}

/// The recording seam between the controller and the state its commits
/// write: each method performs one write and keeps what it displaced, so
/// [`rollback`](UndoLog::rollback) can replay the writes backwards. An
/// entry is a moved previous value — recording never copies a table, and
/// an advertisement's record is a reference count and a next hop.
#[derive(Debug, Default)]
pub struct UndoLog {
    entries: Vec<Undo>,
    /// The Adj-RIB-Outs were empty when this log first wrote to them. One
    /// entry undoes all of it, so an initial synchronization records one
    /// line, not one per advertisement.
    was_empty: bool,
    /// Perform the writes, keep nothing (see [`discarding`](Self::discarding)).
    discard: bool,
}

impl UndoLog {
    /// A log that performs writes and drops what they displace at once,
    /// for a caller that nothing will roll back, so there is nothing to
    /// keep: the one public entry point that runs outside a transaction,
    /// [`apply_delta`](SdxController::apply_delta).
    pub fn discarding() -> Self {
        UndoLog {
            discard: true,
            ..UndoLog::default()
        }
    }

    fn push(&mut self, undo: Undo) {
        if !self.discard {
            self.entries.push(undo);
        }
    }

    /// Retires every entry at or above `min_priority` from the switch
    /// table.
    pub fn retire_overlays(&mut self, fabric: &mut Fabric, min_priority: u32) {
        let taken = fabric.switch.table_mut().take_at_or_above(min_priority);
        if !taken.is_empty() {
            self.push(Undo::Overlays(taken));
        }
    }

    /// Binds `addr` → `mac` on the ARP responder.
    pub fn bind_arp(&mut self, fabric: &mut Fabric, addr: Ipv4Addr, mac: MacAddr) {
        let previous = fabric.arp.bind(addr, mac);
        if previous != Some(mac) {
            self.push(Undo::Arp { addr, previous });
        }
    }

    /// One write to `fabric`'s Adj-RIB-Outs.
    pub fn write_advert(&mut self, fabric: &mut Fabric, write: Write<ParticipantId, Advert>) {
        let adverts = fabric.adj_rib_outs_mut();
        let mut undo = self.advert_undo(adverts);
        undo(adverts.apply(write));
    }

    /// What records the inverses of the next writes to `adverts`, for
    /// [`ViewTable::write_base`](sdx_net::ViewTable::write_base) and
    /// [`ViewTable::write_slots`](sdx_net::ViewTable::write_slots).
    pub fn advert_undo(
        &mut self,
        adverts: &AdjRibOuts,
    ) -> impl FnMut(Write<ParticipantId, Advert>) + '_ {
        if !self.discard && !self.was_empty && adverts.is_empty() {
            self.was_empty = true;
            self.entries.push(Undo::WasEmpty);
        }
        let keep = !self.discard && !self.was_empty;
        let entries = &mut self.entries;
        move |inverse| {
            if keep {
                entries.push(Undo::Advert(inverse));
            }
        }
    }

    /// Takes over the set a caller drained with
    /// [`RouteServer::take_dirty_prefixes`], once it is done reading it.
    pub fn drained(&mut self, dirty: BTreeSet<Prefix>) {
        if !dirty.is_empty() {
            self.push(Undo::Dirty(dirty));
        }
    }

    /// Replays the log backwards: everything written through it holds the
    /// value it held before, byte for byte — table entries in their band
    /// order, trie structure, map keys.
    pub fn rollback(self, fabric: &mut Fabric, rs: &mut RouteServer) {
        for undo in self.entries.into_iter().rev() {
            match undo {
                Undo::Overlays(taken) => fabric.switch.table_mut().restore_at_or_above(taken),
                Undo::Arp { addr, previous } => {
                    match previous {
                        Some(mac) => fabric.arp.bind(addr, mac),
                        None => fabric.arp.unbind(addr),
                    };
                }
                Undo::Advert(inverse) => {
                    fabric.adj_rib_outs_mut().apply(inverse);
                }
                Undo::WasEmpty => fabric.adj_rib_outs_mut().clear(),
                Undo::Dirty(drained) => rs.restore_dirty_prefixes(drained),
            }
        }
    }
}

/// What [`SdxController::stage`](crate::controller::SdxController) moves
/// out of the controller before compiling: held here so a rollback can
/// move it back, and so the old report is read without a copy.
#[derive(Debug)]
pub(crate) struct Taken {
    pub(crate) report: Option<CompileReport>,
    pub(crate) delta_ids: Vec<FecId>,
}

/// A staged commit: an [`UndoLog`] of the writes made to the fabric (its
/// Adj-RIB-Outs included) and the route server's dirty set, what staging
/// took out of the controller, and the controller's three scalars as they
/// were at [`begin`](FabricTxn::begin). The VNH allocator journals its own
/// writes from `begin` on.
///
/// Dropping a `FabricTxn` without calling
/// [`rollback`](FabricTxn::rollback) commits: the displaced values are
/// simply discarded. The allocator's journal stays open until the
/// controller settles the transaction, or the next `begin` empties it.
#[derive(Debug)]
pub struct FabricTxn {
    pub(crate) log: UndoLog,
    pub(crate) taken: Option<Taken>,
    delta_layers: u32,
    next_delta_priority: u32,
    live_delta_ids_len: usize,
}

impl FabricTxn {
    /// Opens a transaction over `ctl` and the fabric it drives, and the
    /// allocator's journal. Nothing is read or copied: writes are recorded
    /// as they happen.
    pub fn begin(ctl: &mut SdxController, _fabric: &Fabric) -> Self {
        Self::new(ctl)
    }

    fn new(ctl: &mut SdxController) -> Self {
        ctl.vnh.open_journal();
        FabricTxn {
            log: UndoLog::default(),
            taken: None,
            delta_layers: ctl.delta_layers,
            next_delta_priority: ctl.next_delta_priority,
            live_delta_ids_len: ctl.live_delta_ids.len(),
        }
    }

    /// Writes recorded so far (`txn.undo.entries`).
    pub fn undo_entries(&self) -> usize {
        self.log.entries.len()
    }

    /// Restores `ctl` and `fabric` to their state at
    /// [`begin`](FabricTxn::begin), discarding every change made inside
    /// the transaction.
    pub fn rollback(self, ctl: &mut SdxController, fabric: &mut Fabric) {
        self.log.rollback(fabric, &mut ctl.rs);
        ctl.vnh.rollback_journal();
        ctl.delta_layers = self.delta_layers;
        ctl.next_delta_priority = self.next_delta_priority;
        match self.taken {
            Some(taken) => {
                ctl.report = taken.report;
                ctl.live_delta_ids = taken.delta_ids;
            }
            // A burst only appends.
            None => ctl.live_delta_ids.truncate(self.live_delta_ids_len),
        }
    }
}

/// Opens a [`FabricTxn`] under the fast path's name. Kept for the
/// benchmark's parts twin, which times what beginning one costs; the
/// controller opens every transaction in
/// [`prepare`](SdxController::prepare).
#[derive(Debug)]
pub struct DeltaTxn;

impl DeltaTxn {
    /// Opens a [`FabricTxn`] over `ctl`.
    pub fn begin(ctl: &mut SdxController) -> FabricTxn {
        FabricTxn::new(ctl)
    }
}

/// Validates a rule set destined for the switch: every non-drop action
/// must end at a physical delivery port.
pub fn validate_rules(rules: &[Rule]) -> Result<(), SdxError> {
    for rule in rules {
        if rule.is_drop() {
            continue;
        }
        for action in rule.actions.iter() {
            let last_loc = action.mods.iter().rev().find_map(|m| match m {
                sdx_net::Mod::SetLoc(p) => Some(*p),
                _ => None,
            });
            match last_loc {
                Some(PortId::Phys(..)) => {}
                other => {
                    return Err(SdxError::InvalidCommit(format!(
                        "rule {rule} delivers to {other:?}, not a physical port"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Validates VNH → VMAC bindings: each must resolve to a VMAC (a MAC that
/// carries its FEC id), and every next hop in `advertised` must be bound.
fn validate_bindings<'a>(
    bindings: &[(Ipv4Addr, sdx_net::MacAddr)],
    advertised: impl Iterator<Item = &'a Ipv4Addr>,
) -> Result<(), SdxError> {
    let bound: BTreeSet<Ipv4Addr> = bindings.iter().map(|(a, _)| *a).collect();
    for (addr, mac) in bindings {
        if mac.fec_id().is_none() {
            return Err(SdxError::InvalidCommit(format!(
                "ARP binding {addr} -> {mac} is not a VMAC"
            )));
        }
    }
    for vnh in advertised {
        if !bound.contains(vnh) {
            return Err(SdxError::InvalidCommit(format!(
                "advertised VNH {vnh} has no ARP binding"
            )));
        }
    }
    Ok(())
}

/// Pre-commit validation of a full compilation (rules + ARP + FIB map).
pub fn validate_report(report: &CompileReport) -> Result<(), SdxError> {
    validate_rules(report.classifier.rules())?;
    validate_bindings(&report.arp_bindings, report.vnh_of.values())
}

/// Pre-commit validation of a fast-path delta.
pub fn validate_delta(delta: &DeltaResult) -> Result<(), SdxError> {
    validate_rules(&delta.rules)?;
    validate_bindings(
        &delta.arp_bindings,
        delta
            .vnh_updates
            .iter()
            .filter_map(|(_, _, nh)| nh.as_ref()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{ip, FieldMatch, HeaderMatch, MacAddr, Mod};
    use sdx_policy::classifier::Action;

    fn phys_rule() -> Rule {
        Rule::unicast(
            HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(1))),
            Action {
                mods: vec![
                    Mod::SetDlDst(MacAddr::physical(9)),
                    Mod::SetLoc(PortId::Phys(ParticipantId(2), 1)),
                ],
            },
        )
    }

    #[test]
    fn physical_delivery_and_drops_pass() {
        let rules = vec![phys_rule(), Rule::drop(HeaderMatch::any())];
        assert!(validate_rules(&rules).is_ok());
    }

    #[test]
    fn virtual_delivery_is_rejected() {
        let rule = Rule::unicast(
            HeaderMatch::any(),
            Action::of(Mod::SetLoc(PortId::Virt(ParticipantId(2)))),
        );
        let err = validate_rules(&[rule]).unwrap_err();
        assert!(matches!(err, SdxError::InvalidCommit(_)));
    }

    #[test]
    fn missing_final_location_is_rejected() {
        let rule = Rule::unicast(
            HeaderMatch::any(),
            Action::of(Mod::SetDlDst(MacAddr::physical(9))),
        );
        assert!(validate_rules(&[rule]).is_err());
    }

    #[test]
    fn delta_with_unbound_vnh_is_rejected() {
        let delta = DeltaResult {
            rules: vec![phys_rule()],
            arp_bindings: vec![],
            vnh_updates: vec![(
                ParticipantId(1),
                sdx_net::prefix("10.0.0.0/8"),
                Some(ip("172.16.128.1")),
            )],
            ..DeltaResult::default()
        };
        assert!(validate_delta(&delta).is_err());
        let ok = DeltaResult {
            rules: vec![phys_rule()],
            arp_bindings: vec![(ip("172.16.128.1"), MacAddr::vmac(1))],
            vnh_updates: vec![(
                ParticipantId(1),
                sdx_net::prefix("10.0.0.0/8"),
                Some(ip("172.16.128.1")),
            )],
            ..DeltaResult::default()
        };
        assert!(validate_delta(&ok).is_ok());
    }

    #[test]
    fn non_vmac_binding_is_rejected() {
        let delta = DeltaResult {
            arp_bindings: vec![(ip("172.16.128.1"), MacAddr::physical(3))],
            ..DeltaResult::default()
        };
        assert!(validate_delta(&delta).is_err());
    }
}
