//! Property-based tests for the update scheduler: random batches over
//! random deployed tables, random interleavings, and a wave that fails.
//!
//! Two invariants carry the scheduler's whole contract:
//!
//! * **Partition** — the waves are a partition of the batch, and driving
//!   them in order produces exactly the table the raw batch produces.
//! * **All or nothing** — whichever wave fails, and however (an injected
//!   `FlowModApply` fault, a checker refusal after the wave landed, a
//!   batch the table rejects), the driver fails with the fabric holding
//!   exactly the pre-drive table and nothing in its batch log; with no
//!   failure it lands every wave. It never leaves a wave, or a prefix of
//!   waves, behind.

use proptest::prelude::*;
use sdx_core::faults::{FaultPlan, InjectionPoint};
use sdx_core::schedule::{drive, plan, ScheduleOpts};
use sdx_core::SdxError;
use sdx_net::{FieldMatch, HeaderMatch, MacAddr, Mod, ParticipantId, PortId};
use sdx_openflow::fabric::Fabric;
use sdx_openflow::flowmod::{FlowMod, FlowModBatch};
use sdx_openflow::table::{FlowEntry, FlowTable};
use sdx_telemetry::SharedRegistry;

/// Self-contained xorshift64 so scenarios are a pure function of the
/// proptest-supplied seed (shrunk seeds replay byte-identically).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn vpat(id: u32) -> HeaderMatch {
    HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(id)))
}

fn deliver(p: u32) -> Vec<Vec<Mod>> {
    vec![vec![
        Mod::SetDlDst(MacAddr::physical(p)),
        Mod::SetLoc(PortId::Phys(ParticipantId(p), 1)),
    ]]
}

fn reenter(id: u32) -> Vec<Vec<Mod>> {
    vec![vec![
        Mod::SetDlDst(MacAddr::vmac(id)),
        Mod::SetLoc(PortId::Virt(ParticipantId(9))),
    ]]
}

/// A random deployed table plus a random *valid* batch against it:
/// deletes and modifies target live slots, adds use fresh VMAC ids, and
/// re-entering buckets only reference handlers that survive the batch
/// (kept base rules or handlers the batch itself adds), so the raw batch
/// passes the fabric's dangling-target validation in any interleaving.
fn scenario(seed: u64) -> (FlowTable, FlowModBatch) {
    let mut rng = Rng::new(seed);
    let n = 2 + rng.below(10) as u32;
    let mut table = FlowTable::new();
    let mut deleted = Vec::new();
    let mut modified = Vec::new();
    let mut kept = Vec::new();
    for id in 1..=n {
        let priority = 2000 - id * 13;
        table.install(
            FlowEntry::new(priority, vpat(id), deliver(1 + id % 4)).with_cookie(u64::from(id) + 1),
        );
        match rng.below(4) {
            0 => deleted.push((id, priority)),
            1 => modified.push((id, priority)),
            _ => kept.push(id),
        }
    }
    table.install(FlowEntry::new(3, HeaderMatch::any(), vec![]));

    fn buckets(rng: &mut Rng, targets: &[u32]) -> Vec<Vec<Mod>> {
        if !targets.is_empty() && rng.below(3) == 0 {
            reenter(targets[rng.below(targets.len() as u64) as usize])
        } else {
            deliver(1 + rng.below(4) as u32)
        }
    }
    let mut targets = kept.clone();
    let mut mods: Vec<FlowMod> = Vec::new();
    for &(id, priority) in &deleted {
        mods.push(FlowMod::Delete {
            priority,
            pattern: vpat(id),
        });
    }
    for &(id, priority) in &modified {
        let b = buckets(&mut rng, &targets);
        mods.push(FlowMod::Modify {
            priority,
            pattern: vpat(id),
            buckets: b,
            cookie: u64::from(id) + 1,
        });
    }
    for j in 0..rng.below(6) {
        let id = 100 + j as u32;
        let b = buckets(&mut rng, &targets);
        mods.push(FlowMod::Add(
            FlowEntry::new(1 + rng.below(3000) as u32, vpat(id), b).with_cookie(u64::from(id) + 1),
        ));
        // Later adds may chain into this one (created-before order keeps
        // the reference graph acyclic).
        targets.push(id);
    }
    // Random interleaving: the planner must not depend on batch order.
    for i in (1..mods.len()).rev() {
        mods.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (table, FlowModBatch { epoch: 5, mods })
}

/// The three ways a wave fails.
#[derive(Clone, Copy, Debug)]
enum Failure {
    /// Its `FlowModApply` point fires: nothing of it lands.
    Injected,
    /// It lands, and the per-wave checker refuses the table.
    Refused,
    /// The table rejects its batch (a delete of a missing rule).
    Rejected,
}

fn fabric_with(table: &FlowTable) -> Fabric {
    let mut fabric = Fabric::new();
    for e in table.entries() {
        fabric.switch.install(e.clone());
    }
    fabric
}

proptest! {
    /// The waves are a partition of the batch, every wave applies
    /// cleanly, and the waved table equals the raw-batch table.
    #[test]
    fn waves_partition_and_reproduce_the_batch(seed in any::<u64>()) {
        let (table, batch) = scenario(seed);
        let p = plan(&table, &batch);
        prop_assert_eq!(p.total_mods(), batch.len(), "no mod lost or invented");
        prop_assert_eq!(p.max_wave_width() == 0, batch.is_empty());

        let mut direct = table.clone();
        direct.apply_batch(&batch).expect("generated batches are valid");
        let mut waved = table.clone();
        for (i, wave) in p.waves.iter().enumerate() {
            waved
                .apply_batch(wave)
                .unwrap_or_else(|e| panic!("seed {seed}: wave {i} rejected: {e}"));
        }
        prop_assert_eq!(&waved, &direct, "waves converge to the batch's table");
    }

    /// Planning is deterministic: same table + batch, same waves.
    #[test]
    fn planning_is_a_pure_function(seed in any::<u64>()) {
        let (table, batch) = scenario(seed);
        let a = plan(&table, &batch);
        let b = plan(&table, &batch);
        prop_assert_eq!(a.waves, b.waves);
        prop_assert_eq!(a.dependencies, b.dependencies);
    }

    /// Whichever wave fails, and however, the driver puts the fabric
    /// back on exactly the pre-drive table; with no failure it lands every
    /// wave.
    #[test]
    fn seeded_wave_faults_land_everything_or_nothing(
        seed in any::<u64>(),
        fail in proptest::option::of((0usize..8, prop_oneof![
            Just(Failure::Injected),
            Just(Failure::Refused),
            Just(Failure::Rejected),
        ])),
    ) {
        let (table, batch) = scenario(seed);
        let mut p = plan(&table, &batch);
        // A wave index past the plan fails nothing.
        let fail = fail.filter(|&(k, _)| k < p.wave_count());
        let mut faults = FaultPlan::disabled();
        match fail {
            Some((k, Failure::Injected)) => {
                let wave = u32::try_from(k).expect("few waves");
                faults = faults.fail_nth(InjectionPoint::FlowModApply { wave }, 1);
            }
            Some((k, Failure::Rejected)) => p.waves[k].push(FlowMod::Delete {
                priority: 1,
                pattern: vpat(999_999),
            }),
            Some((_, Failure::Refused)) | None => {}
        }
        let mut check = |_: &Fabric, wave: usize| match fail {
            Some((k, Failure::Refused)) if k == wave => Err(format!("wave {wave} refused")),
            _ => Ok(()),
        };
        let mut fabric = fabric_with(&table);
        fabric.enable_batch_log();
        let reg = SharedRegistry::new();
        let opts = ScheduleOpts::default();
        match drive(&p, &mut fabric, &mut faults, &reg, &opts, Some(&mut check)) {
            Ok(r) => {
                prop_assert!(fail.is_none(), "{fail:?} did not fail the drive");
                prop_assert_eq!(r.applied.len(), p.wave_count());
                let mut want = table.clone();
                want.apply_batch(&batch).unwrap();
                prop_assert_eq!(fabric.switch.table(), &want);
                prop_assert_eq!(fabric.drain_batches(), p.waves);
            }
            Err(e) => {
                let (k, how) = fail.expect("the drive fails only where told");
                match (how, &e) {
                    (Failure::Injected, SdxError::Injected(InjectionPoint::FlowModApply { wave })) => {
                        prop_assert_eq!(*wave as usize, k);
                    }
                    (Failure::Refused, SdxError::UnsafeSchedule { wave, .. }) => {
                        prop_assert_eq!(*wave, k);
                    }
                    (Failure::Rejected, SdxError::InvalidCommit(_)) => {}
                    _ => prop_assert!(false, "{how:?} at wave {k}: unexpected error {e}"),
                }
                prop_assert_eq!(
                    fabric.switch.table(),
                    &table,
                    "a failed drive leaves exactly the pre-drive table"
                );
                prop_assert!(fabric.drain_batches().is_empty(), "and streams nothing");
            }
        }
    }
}
