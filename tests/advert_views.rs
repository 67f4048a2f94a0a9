//! The shared advertisement table against the tables it replaced.
//!
//! The controller used to keep one Adj-RIB-Out trie per viewer and fill
//! one FIB trie per border router: viewers × prefixes values, written one
//! `best_for` at a time. The fabric now keeps one base-and-exceptions
//! table of the advertisements, whose views are also the routers' FIBs,
//! and the controller decides each dirty prefix once. The old structures live on here as the **model**: after every
//! step of a random history — route churn (announce, re-announce over a
//! longer or looping path, withdraw, session reset, export-policy and
//! community exclusions), policy pushes, fast-path bursts,
//! re-optimisations, any of them failing and rolling back (on a torn
//! commit, on a first wave the switch refuses, on a VNH pool with no free
//! id, or on a participant policy the transformations reject) — the model
//! is fed one write per (viewer, prefix), the way the old code did it, and
//! every viewer's visible Adj-RIB-Out and every router's lookups must
//! equal it.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdx::bgp::attrs::PathAttributes;
use sdx::bgp::route_server::{communities, ExportPolicy, RouteServer, RouteServerEvent};
use sdx::core::controller::SdxController;
use sdx::core::{ParticipantConfig, VnhMap};
use sdx::ixp::testkit;
use sdx::net::{FieldMatch, Ipv4Addr, ParticipantId, PortId, Prefix};
use sdx::openflow::fabric::Fabric;
use sdx::policy::{Policy as P, PolicyDelta};
use sdx::{FaultPlan, InjectionPoint};

/// The structures the shared tables replaced, written the way the old
/// controller wrote them.
mod model {
    use super::*;

    /// What the route server last advertised to one peer, materialised.
    #[derive(Default)]
    pub struct AdjRibOut {
        pub advertised: BTreeMap<Prefix, PathAttributes>,
    }

    impl AdjRibOut {
        /// Records the desired advertisement of `prefix` — `route` under
        /// `next_hop`, or nothing — and says whether it changed.
        fn reconcile_rewritten(
            &mut self,
            prefix: Prefix,
            desired: Option<(&PathAttributes, Ipv4Addr)>,
        ) -> bool {
            let Some((route, next_hop)) = desired else {
                return self.advertised.remove(&prefix).is_some();
            };
            let rewritten = route.clone().with_next_hop(next_hop);
            if self.advertised.get(&prefix) == Some(&rewritten) {
                return false;
            }
            self.advertised.insert(prefix, rewritten);
            true
        }
    }

    /// One Adj-RIB-Out per viewer, one FIB per border router: ordered
    /// maps, so that the model shares no code with the trie under the
    /// shared tables.
    #[derive(Default)]
    pub struct Model {
        pub rib_out: BTreeMap<ParticipantId, AdjRibOut>,
        pub fibs: BTreeMap<PortId, BTreeMap<Prefix, Ipv4Addr>>,
    }

    /// Longest-prefix match by brute force over the lengths: the FIB's
    /// next hop at each of the address's 33 prefixes, longest first.
    pub fn longest_match(
        fib: &BTreeMap<Prefix, Ipv4Addr>,
        dst: Ipv4Addr,
    ) -> Option<(Prefix, Ipv4Addr)> {
        (0..=32).rev().find_map(|len| {
            let prefix = Prefix::new(dst, len);
            fib.get(&prefix).map(|entry| (prefix, *entry))
        })
    }

    impl Model {
        /// One write: `viewer`'s best route for `prefix` under `vnh` (or
        /// the route's own next hop), replayed to each of its routers if
        /// the advertisement moved.
        fn write(
            &mut self,
            rs: &RouteServer,
            fabric: &Fabric,
            viewer: ParticipantId,
            prefix: Prefix,
            vnh: Option<Ipv4Addr>,
        ) {
            let best = rs.best_for(viewer, prefix).map(|best| &*best.attrs);
            let next_hop = best.map(|attrs| vnh.unwrap_or(attrs.next_hop));
            let out = self.rib_out.entry(viewer).or_default();
            if !out.reconcile_rewritten(prefix, best.zip(next_hop)) {
                return;
            }
            for port in fabric.ports().filter(|p| p.participant() == viewer) {
                let fib = self.fibs.entry(port).or_default();
                match next_hop {
                    Some(next_hop) => fib.insert(prefix, next_hop),
                    None => fib.remove(&prefix),
                };
            }
        }

        /// The fast path's flush: every changed prefix to every viewer,
        /// under the delta's virtual next hop where it names one.
        pub fn burst(
            &mut self,
            rs: &RouteServer,
            fabric: &Fabric,
            changed: &[Prefix],
            vnh_updates: &[(ParticipantId, Prefix, Option<Ipv4Addr>)],
        ) {
            let vnh: BTreeMap<_, _> = vnh_updates.iter().map(|&(v, p, nh)| ((v, p), nh)).collect();
            for &prefix in changed {
                for viewer in rs.participants() {
                    let vnh = vnh.get(&(viewer, prefix)).copied().flatten();
                    self.write(rs, fabric, viewer, prefix, vnh);
                }
            }
        }

        /// The full reconcile: every prefix of the Loc-RIB and of the
        /// viewer's Adj-RIB-Out, to every viewer, under the report's map.
        pub fn sync(&mut self, rs: &RouteServer, fabric: &Fabric, vnh_of: &VnhMap) {
            let all = rs.all_prefixes();
            for viewer in rs.participants() {
                let advertised: Vec<Prefix> = self
                    .rib_out
                    .get(&viewer)
                    .map_or(Vec::new(), |out| out.advertised.keys().copied().collect());
                let prefixes: BTreeSet<Prefix> = all.iter().copied().chain(advertised).collect();
                for prefix in prefixes {
                    let vnh = vnh_of.get(&(viewer, prefix)).copied();
                    self.write(rs, fabric, viewer, prefix, vnh);
                }
            }
        }
    }
}

/// One step of a history. Indices are taken modulo what they index.
#[derive(Clone, Debug)]
enum Step {
    /// `who` announces `prefix`: over its own ASN alone, or over a longer
    /// path, which may run through participant `via`'s ASN (withheld from
    /// it by loop protection); optionally tagged with an action community
    /// naming `peer`.
    Announce {
        who: usize,
        prefix: usize,
        longer: bool,
        via: Option<usize>,
        tag: Option<(u8, usize)>,
    },
    Withdraw {
        who: usize,
        prefix: usize,
    },
    Reset {
        who: usize,
    },
    /// `who` stops exporting `prefix` to `peer` (or exports all again).
    Export {
        who: usize,
        deny: Option<(usize, usize)>,
    },
    /// `who` announces several prefixes, handled as one burst.
    Burst {
        who: usize,
        prefixes: Vec<usize>,
    },
    /// `editor` steers web traffic to `target`, or drops its policy.
    Push {
        editor: usize,
        target: Option<usize>,
    },
    Reoptimize,
}

/// What makes a step fail, if anything.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// This point armed to fail its first crossing.
    Injected(InjectionPoint),
    /// Every free VNH drawn for the step, and released after it.
    DryPool,
    /// Participant `who`'s outbound policy set to one the transformations
    /// reject for the step, and restored after it. Both writes move `who`'s
    /// outbound stamp, so the next compile rebuilds `who`'s piece: reuse
    /// of that piece after a failed step is left to the other two arms,
    /// which move no stamp.
    Rejected(usize),
}

/// A step, whether the route server's change goes down the fast path at
/// once (otherwise it waits, dirty, for the next re-optimisation), and
/// what makes it fail.
type Planned = (Step, bool, Option<Fault>);

fn arb_step() -> impl Strategy<Value = Step> {
    let idx = || 0usize..64;
    prop_oneof![
        (
            idx(),
            idx(),
            any::<bool>(),
            proptest::option::of(idx()),
            proptest::option::of((0u8..3, idx()))
        )
            .prop_map(|(who, prefix, longer, via, tag)| Step::Announce {
                who,
                prefix,
                longer,
                via,
                tag
            }),
        (idx(), idx(), any::<bool>()).prop_map(|(who, prefix, longer)| Step::Announce {
            who,
            prefix,
            longer,
            via: None,
            tag: None
        }),
        (idx(), idx()).prop_map(|(who, prefix)| Step::Withdraw { who, prefix }),
        idx().prop_map(|who| Step::Reset { who }),
        (idx(), proptest::option::of((idx(), idx())))
            .prop_map(|(who, deny)| Step::Export { who, deny }),
        (idx(), proptest::collection::vec(idx(), 2..6))
            .prop_map(|(who, prefixes)| Step::Burst { who, prefixes }),
        (idx(), proptest::option::of(idx()))
            .prop_map(|(editor, target)| Step::Push { editor, target }),
        Just(Step::Reoptimize),
    ]
}

fn arb_planned() -> impl Strategy<Value = Planned> {
    let fault = prop_oneof![
        Just(None),
        Just(None),
        Just(None),
        (0usize..64).prop_map(|who| Some(Fault::Rejected(who))),
        Just(Some(Fault::Injected(InjectionPoint::FabricCommit))),
        Just(Some(Fault::DryPool)),
        // A burst, push or re-optimisation with a wave rolls back whole.
        Just(Some(Fault::Injected(InjectionPoint::FlowModApply {
            wave: 0
        }))),
    ];
    (arb_step(), any::<bool>(), fault)
}

/// A deployed exchange, the model beside it, and the universe the steps
/// index into.
struct World {
    ctl: SdxController,
    fabric: Fabric,
    model: model::Model,
    cfgs: Vec<ParticipantConfig>,
    prefixes: Vec<Prefix>,
    probes: Vec<Ipv4Addr>,
}

impl World {
    /// Deploys `ctl`. `extra` prefixes nobody announces yet join the
    /// universe; every `stride`-th prefix is probed.
    fn deploy(mut ctl: SdxController, extra: &[Prefix], stride: usize) -> World {
        let fabric = ctl.deploy().expect("deploy");
        let cfgs: Vec<_> = ctl.compiler.participants().values().cloned().collect();
        let mut prefixes = ctl.rs.all_prefixes();
        prefixes.extend_from_slice(extra);
        let mut probes: Vec<Ipv4Addr> = prefixes
            .iter()
            .step_by(stride)
            .map(|p| p.addr().saturating_add(1))
            .collect();
        probes.push(Ipv4Addr::new(203, 0, 113, 9)); // routed by nobody
        let mut world = World {
            ctl,
            fabric,
            model: model::Model::default(),
            cfgs,
            prefixes,
            probes,
        };
        let vnh_of = &world.ctl.report.as_ref().expect("deployed").vnh_of;
        world.model.sync(&world.ctl.rs, &world.fabric, vnh_of);
        world.assert_views_equal_model("deploy");
        world
    }

    fn cfg(&self, i: usize) -> &ParticipantConfig {
        &self.cfgs[i % self.cfgs.len()]
    }

    fn prefix(&self, i: usize) -> Prefix {
        self.prefixes[i % self.prefixes.len()]
    }

    /// `who`'s announcement of `prefix` as [`Step::Announce`] describes it.
    fn announcement(
        &self,
        who: usize,
        prefix: usize,
        longer: bool,
        via: Option<usize>,
        tag: Option<(u8, usize)>,
    ) -> (ParticipantId, sdx::bgp::msg::UpdateMessage) {
        let cfg = self.cfg(who);
        let mut path = vec![cfg.asn.0];
        if longer {
            path.extend(via.map(|v| self.cfg(v).asn.0));
            path.extend([64_900, 64_901]);
        }
        let mut update = cfg.announce([self.prefix(prefix)], &path);
        if let Some((kind, peer)) = tag {
            let peer = self.cfg(peer).id;
            let tag = match kind {
                0 => communities::no_export_to(peer),
                1 => communities::export_only_to(peer),
                _ => communities::NO_EXPORT_ALL,
            };
            update.attrs = update.attrs.map(|attrs| attrs.with_community(tag));
        }
        (cfg.id, update)
    }

    /// Runs one planned step against the controller and, where the
    /// controller committed, against the model.
    fn run(&mut self, (step, fast, fault): &Planned) {
        let (mut drawn, mut rejected) = (Vec::new(), None);
        match *fault {
            Some(Fault::Injected(point)) => {
                self.ctl.faults = FaultPlan::disabled().fail_nth(point, 1);
            }
            Some(Fault::DryPool) => drawn = testkit::drain_vnh(&mut self.ctl.vnh, 0),
            Some(Fault::Rejected(who)) => {
                let id = self.cfg(who).id;
                let kept = (self.ctl.compiler.participant(id)).and_then(|c| c.outbound.clone());
                let [to, also] = [1, 2].map(|n| PortId::Virt(self.cfg(who + n).id));
                let multicast = P::fwd(to) + P::fwd(also);
                self.ctl.set_outbound(id, Some(multicast.clone()));
                rejected = Some((id, multicast, kept));
            }
            None => {}
        }
        let changed = |events: Vec<RouteServerEvent>| -> Vec<Prefix> {
            events
                .into_iter()
                .filter_map(|e| match e {
                    RouteServerEvent::PrefixChanged(p) => Some(p),
                    RouteServerEvent::SessionReset(_) => None,
                })
                .collect()
        };
        // What the route server learns, then what the controller does
        // about it.
        let churn: Option<Vec<Prefix>> = match step {
            Step::Announce {
                who,
                prefix,
                longer,
                via,
                tag,
            } => {
                let (from, update) = self.announcement(*who, *prefix, *longer, *via, *tag);
                Some(changed(self.ctl.rs.process_update(from, &update)))
            }
            Step::Withdraw { who, prefix } => {
                // By one of the prefix's announcers, if it has any.
                let prefix = self.prefix(*prefix);
                let announcers = self.ctl.rs.loc_rib().announcers(prefix);
                let from = match announcers.len() {
                    0 => self.cfg(*who).id,
                    n => announcers[who % n],
                };
                let update = sdx::bgp::msg::UpdateMessage::withdraw([prefix]);
                Some(changed(self.ctl.rs.process_update(from, &update)))
            }
            Step::Reset { who } => Some(changed(self.ctl.rs.reset_session(self.cfg(*who).id))),
            Step::Burst { who, prefixes } => {
                let mut all = Vec::new();
                for &p in prefixes {
                    let (from, update) = self.announcement(*who, p, p % 2 == 0, None, None);
                    all.extend(changed(self.ctl.rs.process_update(from, &update)));
                }
                Some(all)
            }
            Step::Export { who, deny } => {
                let mut export = ExportPolicy::allow_all();
                if let Some((peer, prefix)) = deny {
                    export.deny(self.cfg(*peer).id, self.prefix(*prefix));
                }
                self.ctl.rs.set_export_policy(self.cfg(*who).id, export);
                None
            }
            Step::Push { .. } | Step::Reoptimize => None,
        };
        let recompiled = match (step, churn) {
            (_, Some(changed)) if *fast => {
                if let Ok(delta) = self.ctl.apply_changed_prefixes(&changed, &mut self.fabric) {
                    let (rs, fabric) = (&self.ctl.rs, &self.fabric);
                    self.model.burst(rs, fabric, &changed, &delta.vnh_updates);
                }
                false
            }
            (Step::Push { editor, target }, _) => {
                let editor = self.cfg(*editor).id;
                let delta = match target.map(|t| self.cfg(t).id) {
                    Some(target) if target != editor => PolicyDelta::new().replace_outbound(
                        editor,
                        P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(target)),
                    ),
                    _ => PolicyDelta::new().retract_outbound(editor),
                };
                self.ctl
                    .apply_policy_delta(&delta, &mut self.fabric)
                    .is_ok()
            }
            (Step::Reoptimize, _) => self.ctl.reoptimize(&mut self.fabric).is_ok(),
            // Left dirty for the next re-optimisation.
            _ => false,
        };
        if recompiled {
            let vnh_of = &self.ctl.report.as_ref().expect("compiled").vnh_of;
            self.model.sync(&self.ctl.rs, &self.fabric, vnh_of);
        }
        self.ctl.faults = FaultPlan::disabled();
        for id in drawn {
            self.ctl.vnh.release(id);
        }
        // Restored unless the step's own push replaced it.
        if let Some((id, multicast, kept)) = rejected {
            let outbound = &self
                .ctl
                .compiler
                .participant(id)
                .expect("a participant")
                .outbound;
            if outbound.as_ref() == Some(&multicast) {
                self.ctl.set_outbound(id, kept);
            }
        }
    }

    /// Every viewer's visible Adj-RIB-Out and every router's FIB, as the
    /// shared tables show them, equal the materialised ones.
    fn assert_views_equal_model(&self, what: &str) {
        for cfg in &self.cfgs {
            let view = self
                .fabric
                .adj_rib_out(cfg.id)
                .unwrap_or_else(|| panic!("{what}: {} was never advertised to", cfg.id));
            let seen: Vec<(Prefix, PathAttributes)> = view
                .iter()
                .map(|(p, advert)| (p, advert.attributes()))
                .collect();
            let modelled: Vec<(Prefix, PathAttributes)> =
                self.model.rib_out.get(&cfg.id).map_or(Vec::new(), |out| {
                    out.advertised
                        .iter()
                        .map(|(p, attrs)| (*p, attrs.clone()))
                        .collect()
                });
            assert_eq!(seen, modelled, "{what}: Adj-RIB-Out of {}", cfg.id);
        }
        let empty = BTreeMap::new();
        for port in self.fabric.ports() {
            let router = self.fabric.router(port).expect("attached");
            let fib = self.model.fibs.get(&port).unwrap_or(&empty);
            assert_eq!(router.fib_len(), fib.len(), "{what}: FIB size at {port:?}");
            for &dst in &self.probes {
                assert_eq!(
                    router.route_for(dst),
                    model::longest_match(fib, dst),
                    "{what}: {port:?} forwarding {dst}"
                );
            }
        }
    }
}

fn fresh(block: u8, n: u8) -> Vec<Prefix> {
    (0..n)
        .map(|i| Prefix::new(Ipv4Addr::new(block, i, 0, 0), 16))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn figure1_views_equal_the_materialised_tables(
        plan in proptest::collection::vec(arb_planned(), 1..24),
    ) {
        let ctl = sdx::ixp::testkit::figure1_controller();
        let mut world = World::deploy(ctl, &fresh(99, 3), 1);
        for (i, planned) in plan.iter().enumerate() {
            world.run(planned);
            world.assert_views_equal_model(&format!("step {i} {planned:?}"));
        }
        // Whatever was left dirty or rolled back converges.
        world.run(&(Step::Reoptimize, false, None));
        world.assert_views_equal_model("final re-optimisation");
    }
}

/// The history the proptest found: a fast-path pass takes a viewer's
/// virtual next hop for a prefix away (the route is gone), the route comes
/// back unseen by the fast path, and the recompile keeps the viewer's FEC
/// group under its old id — so the group is in both reports, the viewer
/// holds no slot at the prefix, and only the VNH map says it needs one.
#[test]
fn a_vnh_the_fast_path_took_away_returns_when_the_group_is_kept() {
    let mut world = World::deploy(sdx::ixp::testkit::figure1_controller(), &[], 1);
    let p3 = world
        .prefixes
        .iter()
        .position(|p| *p == sdx::net::prefix("30.0.0.0/8"))
        .expect("figure 1 announces p3");
    let tagged = |world: &World| {
        let advertised = world.fabric.adj_rib_out(ParticipantId(1)).expect("A");
        let next_hop = advertised.get(world.prefix(p3)).map(|a| a.next_hop);
        next_hop.is_some_and(|nh| world.ctl.vnh.contains(nh))
    };
    assert!(tagged(&world), "fixture: A's policy covers p3 via B");
    let b = 1; // index of participant 2, p3's only announcer
    let plan = [
        (Step::Reset { who: b }, true, None),
        (
            Step::Announce {
                who: b,
                prefix: p3,
                longer: false,
                via: None,
                tag: None,
            },
            false,
            None,
        ),
        (Step::Reoptimize, false, None),
    ];
    for (i, planned) in plan.iter().enumerate() {
        world.run(planned);
        world.assert_views_equal_model(&format!("step {i} {planned:?}"));
    }
    assert!(tagged(&world), "A's p3 traffic is tagged again");
}

#[test]
fn ixp50_views_equal_the_materialised_tables() {
    let (compiler, rs) = sdx::ixp::testkit::ixp50();
    let mut ctl = SdxController::new();
    ctl.compiler = compiler;
    ctl.rs = rs;
    let mut world = World::deploy(ctl, &fresh(99, 8), 7);
    let mut rng = StdRng::seed_from_u64(0x5d_a7ab1e);
    let mut idx = move || rng.gen_range(0..1usize << 20);
    let flowmod = Some(Fault::Injected(InjectionPoint::FlowModApply { wave: 0 }));
    let commit = Some(Fault::Injected(InjectionPoint::FabricCommit));
    let rejected = Some(Fault::Rejected(0));
    // One of each kind of step, both ways down. Each armed fault sits on a
    // step that commits — a fast-path announcement or burst, a push, a
    // re-optimisation — so each kind tears a change that would have landed.
    let steps: [Planned; 10] = [
        (
            Step::Announce {
                who: idx(),
                prefix: idx(),
                longer: false,
                via: None,
                tag: None,
            },
            true,
            flowmod,
        ),
        (
            Step::Burst {
                who: idx(),
                prefixes: (0..24).map(|_| idx()).collect(),
            },
            true,
            commit,
        ),
        (
            Step::Push {
                editor: idx(),
                target: Some(idx()),
            },
            false,
            rejected,
        ),
        (
            Step::Announce {
                who: idx(),
                prefix: idx(),
                longer: true,
                via: Some(idx()),
                tag: Some((0, idx())),
            },
            false,
            None,
        ),
        (
            Step::Withdraw {
                who: 0,
                prefix: idx(),
            },
            true,
            None,
        ),
        (
            Step::Export {
                who: idx(),
                deny: Some((idx(), idx())),
            },
            false,
            None,
        ),
        (Step::Reoptimize, false, flowmod),
        (Step::Reset { who: idx() }, false, None),
        (
            Step::Push {
                editor: idx(),
                target: None,
            },
            false,
            commit,
        ),
        (Step::Reoptimize, false, rejected),
    ];
    let rollbacks = world.ctl.telemetry.counter("txn.rollback.count");
    for (i, planned) in steps.into_iter().enumerate() {
        let before = rollbacks.get();
        world.run(&planned);
        world.assert_views_equal_model(&format!("step {i} {planned:?}"));
        // Only an armed step rolls back, and every one does.
        let rolled_back = rollbacks.get() > before;
        assert_eq!(rolled_back, planned.2.is_some(), "step {i} {planned:?}");
    }
    world.run(&(Step::Reoptimize, false, None));
    world.assert_views_equal_model("final re-optimisation");
}
