//! Transactional fabric commits.
//!
//! Every controller-driven mutation of the data plane — a fast-path delta
//! in [`process_update`](crate::controller::SdxController::process_update)
//! or a full swap in
//! [`reoptimize`](crate::controller::SdxController::reoptimize) — is
//! staged as a [`FabricTxn`]: the complete last-known-good state (fabric
//! image plus the controller's allocator and synchronization bookkeeping)
//! is captured first, the compiled result is validated against the
//! invariants below, and only then is the fabric mutated. Any failure at
//! any step rolls everything back, so an observer of the data plane sees
//! either the old state or the new state, never a torn mixture.
//!
//! Validation invariants (violations indicate a compiler bug, and must
//! never reach the switch):
//!
//! * every non-drop rule delivers to a **physical** port — a virtual
//!   location in an installed rule blackholes traffic;
//! * every advertised VNH has an ARP binding, so border routers can always
//!   resolve the next hops we hand them;
//! * every ARP binding resolves to a well-formed VMAC carrying its FEC id.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use sdx_bgp::rib::AdjRibOut;
use sdx_net::{Ipv4Addr, ParticipantId, PortId, Prefix};
use sdx_openflow::fabric::{Fabric, FabricSnapshot};
use sdx_policy::classifier::Rule;

use crate::compiler::CompileReport;
use crate::controller::SdxController;
use crate::error::SdxError;
use crate::fec::FecId;
use crate::incremental::DeltaResult;
use crate::vnh::VnhAllocator;

/// A staged commit: the complete pre-transaction state of the fabric and
/// the controller's fabric-facing bookkeeping.
///
/// Dropping a `FabricTxn` without calling
/// [`rollback`](FabricTxn::rollback) commits implicitly — the snapshot is
/// simply discarded.
#[derive(Clone, Debug)]
pub struct FabricTxn {
    fabric: FabricSnapshot,
    vnh: VnhAllocator,
    report: Option<CompileReport>,
    delta_layers: u32,
    next_delta_priority: u32,
    live_delta_ids: Vec<FecId>,
    pending_fib: Vec<(ParticipantId, Prefix, Option<Ipv4Addr>)>,
    rib_out: BTreeMap<ParticipantId, AdjRibOut>,
}

impl FabricTxn {
    /// Captures the last-known-good state of `ctl` and `fabric`.
    pub fn begin(ctl: &SdxController, fabric: &Fabric) -> Self {
        FabricTxn {
            fabric: fabric.snapshot(),
            vnh: ctl.vnh.clone(),
            report: ctl.report.clone(),
            delta_layers: ctl.delta_layers,
            next_delta_priority: ctl.next_delta_priority,
            live_delta_ids: ctl.live_delta_ids.clone(),
            pending_fib: ctl.pending_fib.clone(),
            rib_out: ctl.rib_out.clone(),
        }
    }

    /// Restores `ctl` and `fabric` to the captured state, discarding every
    /// change made inside the transaction.
    pub fn rollback(self, ctl: &mut SdxController, fabric: &mut Fabric) {
        fabric.restore(self.fabric);
        ctl.vnh = self.vnh;
        ctl.report = self.report;
        ctl.delta_layers = self.delta_layers;
        ctl.next_delta_priority = self.next_delta_priority;
        ctl.live_delta_ids = self.live_delta_ids;
        ctl.pending_fib = self.pending_fib;
        ctl.rib_out = self.rib_out;
    }
}

/// A staged fast-path commit: captures only the state the two-stage fast
/// path can mutate before its last fallible point, so beginning and
/// rolling back cost O(delta), not O(exchange).
///
/// The fast path appends overlay rules at fresh, monotonically increasing
/// priorities and defers every RIB-out / FIB / ARP write until after its
/// last fallible point, so the undo is exact: drop the appended table
/// entries and restore the small allocator/bookkeeping fields. The full
/// [`FabricTxn`] snapshot remains the right tool for the slow path, whose
/// whole-table swap really can touch everything.
#[derive(Clone, Debug)]
pub struct DeltaTxn {
    vnh: VnhAllocator,
    delta_layers: u32,
    next_delta_priority: u32,
    live_delta_ids_len: usize,
    pending_fib: Vec<(ParticipantId, Prefix, Option<Ipv4Addr>)>,
}

impl DeltaTxn {
    /// Captures the fast-path-mutable state of `ctl`.
    pub fn begin(ctl: &SdxController) -> Self {
        DeltaTxn {
            vnh: ctl.vnh.clone(),
            delta_layers: ctl.delta_layers,
            next_delta_priority: ctl.next_delta_priority,
            live_delta_ids_len: ctl.live_delta_ids.len(),
            pending_fib: ctl.pending_fib.clone(),
        }
    }

    /// Discards every change the fast path made inside the transaction:
    /// overlay rules staged at priorities at or above the captured
    /// watermark are removed (they are exactly this transaction's
    /// installs), and the allocator and bookkeeping are restored.
    pub fn rollback(self, ctl: &mut SdxController, fabric: &mut Fabric) {
        fabric
            .switch
            .table_mut()
            .remove_at_or_above(self.next_delta_priority);
        ctl.vnh = self.vnh;
        ctl.delta_layers = self.delta_layers;
        ctl.next_delta_priority = self.next_delta_priority;
        ctl.live_delta_ids.truncate(self.live_delta_ids_len);
        ctl.pending_fib = self.pending_fib;
    }
}

/// Validates a rule set destined for the switch: every non-drop action
/// must end at a physical delivery port.
pub fn validate_rules(rules: &[Rule]) -> Result<(), SdxError> {
    for rule in rules {
        if rule.is_drop() {
            continue;
        }
        for action in &rule.actions {
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
