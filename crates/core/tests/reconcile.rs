//! Integration tests for the reconciliation → fabric boundary.
//!
//! The headline regression here: [`Fabric::apply_flowmods`] must reject a
//! batch that deletes a rule other mods in the same batch still reference
//! as a next-stage target (a VMAC handler whose tag the batch's own new
//! buckets rewrite into) — committing such a batch would strand
//! re-entering packets on a table miss.

use sdx_core::reconcile::{cookie_of, diff_base_table};
use sdx_net::{FieldMatch, HeaderMatch, MacAddr, Mod, ParticipantId, PortId};
use sdx_openflow::fabric::Fabric;
use sdx_openflow::flowmod::{FlowMod, FlowModBatch, FlowModError};
use sdx_openflow::table::{FlowEntry, FlowTable};
use sdx_policy::classifier::{Action, Classifier, Rule};
use std::sync::Arc;

fn phys(p: u32) -> PortId {
    PortId::Phys(ParticipantId(p), 1)
}

fn vpat(id: u32) -> HeaderMatch {
    HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(id)))
}

fn deliver(p: u32) -> Vec<Vec<Mod>> {
    vec![vec![
        Mod::SetDlDst(MacAddr::physical(p)),
        Mod::SetLoc(phys(p)),
    ]]
}

/// Buckets that rewrite to `id`'s VMAC and re-enter the fabric — a
/// next-stage reference to the rule matching that VMAC.
fn reenter(id: u32) -> Vec<Vec<Mod>> {
    vec![vec![
        Mod::SetDlDst(MacAddr::vmac(id)),
        Mod::SetLoc(PortId::Virt(ParticipantId(7))),
    ]]
}

#[test]
fn fabric_rejects_batch_deleting_a_still_referenced_handler() {
    let mut fabric = Fabric::new();
    fabric
        .switch
        .install(FlowEntry::new(100, vpat(1), deliver(2)));
    let before = fabric.switch.table().clone();

    // The batch installs a rule whose buckets chain into vmac 1 *and*
    // deletes vmac 1's handler: every ordering of this batch leaves the
    // committed table with a dangling next-stage target.
    let bad = FlowModBatch {
        epoch: 9,
        mods: vec![
            FlowMod::Add(FlowEntry::new(
                200,
                HeaderMatch::of(FieldMatch::TpDst(80)),
                reenter(1),
            )),
            FlowMod::Delete {
                priority: 100,
                pattern: vpat(1),
            },
        ],
    };
    let err = fabric
        .apply_flowmods(&bad)
        .expect_err("dangling next-stage target must be rejected");
    assert!(matches!(err, FlowModError::DanglingTarget { .. }));
    assert_eq!(
        fabric.switch.table(),
        &before,
        "rejected batch leaves the fabric untouched"
    );

    // Same batch plus a replacement handler is coherent and applies.
    let mut healed = bad;
    healed
        .mods
        .push(FlowMod::Add(FlowEntry::new(101, vpat(1), deliver(3))));
    fabric
        .apply_flowmods(&healed)
        .expect("replacement handler heals the reference");
    assert_eq!(fabric.switch.table().len(), 2);
}

fn vmac_rule(id: u32, out: u32) -> Rule {
    Rule {
        matches: vpat(id),
        actions: Arc::from([Action {
            mods: vec![Mod::SetLoc(phys(out))],
        }]),
    }
}

/// The diff engine must never emit a batch the dangling-target check
/// rejects: replay the same-gap squeeze that forces midpoint exhaustion
/// (and with it the full-rebase batch, whose delete-everything +
/// add-everything shape is exactly where a dangling window could hide)
/// and assert every batch commits.
#[test]
fn reconciliation_batches_always_pass_the_dangling_check() {
    let mut fabric = Fabric::new();
    let mut rules = vec![vmac_rule(1, 1), vmac_rule(1000, 1)];
    let initial = diff_base_table(
        fabric.switch.table(),
        &Classifier::from_rules(rules.clone()),
        1,
    );
    fabric
        .apply_flowmods(&initial.batch)
        .expect("initial install");

    let mut saw_rebase = false;
    for id in 2..66u32 {
        rules.insert(1, vmac_rule(id, 1));
        let c = Classifier::from_rules(rules.clone());
        let diff = diff_base_table(fabric.switch.table(), &c, u64::from(id));
        saw_rebase |= diff.rebased;
        fabric
            .apply_flowmods(&diff.batch)
            .expect("reconciliation batches are internally coherent");
        let got: Vec<u64> = fabric
            .switch
            .table()
            .entries()
            .iter()
            .map(|e| e.cookie)
            .collect();
        let want: Vec<u64> = c.rules().iter().map(|r| cookie_of(&r.matches)).collect();
        assert_eq!(got, want, "first-match order mirrors the classifier");
    }
    assert!(
        saw_rebase,
        "the squeeze must exercise the rebase batch shape"
    );
}

/// A full rebase emits Delete(old slot) + Add(same pattern, new priority)
/// pairs; the scheduler fuses true same-slot pairs and orders the rest —
/// but at the batch level, delete-then-readd of a pattern at a different
/// priority must simply apply.
#[test]
fn rebase_style_delete_and_readd_applies() {
    let mut t = FlowTable::new();
    t.install(FlowEntry::new(10, vpat(4), reenter(5)));
    t.install(FlowEntry::new(5, vpat(5), deliver(2)));
    t.apply_batch(&FlowModBatch {
        epoch: 2,
        mods: vec![
            FlowMod::Delete {
                priority: 10,
                pattern: vpat(4),
            },
            FlowMod::Delete {
                priority: 5,
                pattern: vpat(5),
            },
            FlowMod::Add(FlowEntry::new(600, vpat(4), reenter(5))),
            FlowMod::Add(FlowEntry::new(300, vpat(5), deliver(2))),
        ],
    })
    .expect("rebase batch re-creates the chain it deletes");
    assert_eq!(t.len(), 2);
}
