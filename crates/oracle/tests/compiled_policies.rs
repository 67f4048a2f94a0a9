//! Nothing the compiler keeps between compiles can ever be stale — neither
//! the compiled policies beside the book nor the per-viewer, per-receiver
//! and per-segment pieces of phases B–E: under random interleavings of
//! everything that changes what a policy *is* — `set_outbound` /
//! `set_inbound`, `upsert_participant` (config with and without policies),
//! `remove_participant`, `add_global_policy` (the wide-area load
//! balancer's rewrite fragment) / `clear_global_policies` — and of route
//! updates and bursts of them, each followed by a `compile_all` or by a
//! `fast_update_burst` that takes VNH ids the next compile gets back, the
//! long-lived compiler produces what a [`cold_compile`] of the same world
//! does, and a second compile with nothing changed serves everything as it
//! stands (`memo_hits` == policies in the book, no piece recomputed).

use proptest::prelude::*;
use sdx_bgp::msg::UpdateMessage;
use sdx_bgp::route_server::{ExportPolicy, RouteServer};
use sdx_core::participant::ParticipantConfig;
use sdx_core::{canonicalize_report, FecId, SdxCompiler, VnhAllocator};
use sdx_net::{FieldMatch, Ipv4Addr, Mod, ParticipantId, PortId, Prefix};
use sdx_oracle::synth::{self, Rng, CLAUSE_PORTS};
use sdx_oracle::{cold_book, cold_compile};
use sdx_policy::Policy as P;

fn ids(book: &SdxCompiler) -> Vec<ParticipantId> {
    book.participants().keys().copied().collect()
}

/// 1–2 clauses on distinct ports, each `fwd(peer)`, optionally refined by
/// a pool destination or preceded by a destination rewrite.
fn outbound(rng: &mut Rng, book: &SdxCompiler, me: ParticipantId) -> P {
    let peers: Vec<ParticipantId> = ids(book).into_iter().filter(|&p| p != me).collect();
    let mut ports = CLAUSE_PORTS.to_vec();
    let mut policy = P::drop();
    for _ in 0..=rng.below(2) {
        let port = ports.remove(rng.below(ports.len() as u64) as usize);
        let mut clause = P::match_(FieldMatch::TpDst(port));
        match rng.below(3) {
            0 => clause = clause >> P::match_(FieldMatch::NwDst(*rng.pick(&synth::prefix_pool()))),
            1 => {
                clause = clause
                    >> P::match_(FieldMatch::NwDst(Prefix::new(
                        Ipv4Addr::new(10, 0, 0, 0),
                        16,
                    )))
                    >> P::modify(Mod::SetNwDst(Ipv4Addr::new(
                        10,
                        1 + rng.below(5) as u8,
                        0,
                        9,
                    )));
            }
            _ => {}
        }
        policy = policy + (clause >> P::fwd(PortId::Virt(*rng.pick(&peers))));
    }
    policy
}

/// Source halves steered to the participant's own ports.
fn inbound(rng: &mut Rng, cfg: &ParticipantConfig) -> P {
    let mut half = |top: u8| {
        P::match_(FieldMatch::NwSrc(Prefix::new(
            Ipv4Addr::new(top, 0, 0, 0),
            1,
        ))) >> P::fwd(PortId::Phys(cfg.id, rng.pick(&cfg.ports).index))
    };
    half(0) + half(128)
}

/// The wide-area load balancer's fragment: service address number `service`
/// rewritten to a replica in the announced pool. Distinct services keep
/// fragments disjoint, and no participant's own policy matches the port, so
/// an effective outbound policy never multicasts.
fn global_fragment(rng: &mut Rng, service: u32) -> P {
    let addr = Ipv4Addr::new(198, 51, 100, service as u8);
    P::match_(FieldMatch::TpDst(8443))
        >> P::match_(FieldMatch::NwDst(Prefix::new(addr, 32)))
        >> P::modify(Mod::SetNwDst(Ipv4Addr::new(10, rng.below(6) as u8, 1, 7)))
}

/// `cfg` with its policies replaced: by random ones, or by none at all.
fn repoliced(rng: &mut Rng, book: &SdxCompiler, mut cfg: ParticipantConfig) -> ParticipantConfig {
    let some = rng.chance(1, 2);
    cfg.outbound = (some && rng.chance(2, 3)).then(|| outbound(rng, book, cfg.id));
    cfg.inbound = (some && rng.chance(1, 2)).then(|| inbound(rng, &cfg));
    cfg
}

/// One random mutation of the book or the routes. `fresh` numbers new
/// participants and service addresses; it only grows.
fn mutate(rng: &mut Rng, book: &mut SdxCompiler, rs: &mut RouteServer, fresh: &mut u32) {
    *fresh += 1;
    let present = ids(book);
    let who = *rng.pick(&present);
    let cfg = book.participant(who).expect("present").clone();
    // Only participants this test enrolled are removed: nobody's inbound
    // policy steers to their ports, which a removal would leave dangling.
    let enrolled: Vec<ParticipantId> = present.iter().copied().filter(|p| p.0 > 6).collect();
    match rng.below(14) {
        0 | 1 => {
            let pol = rng.chance(3, 4).then(|| outbound(rng, book, who));
            book.set_outbound(who, pol);
        }
        2 => book.set_inbound(who, rng.chance(3, 4).then(|| inbound(rng, &cfg))),
        3 => book.upsert_participant(repoliced(rng, book, cfg)),
        4 | 5 => {
            let new = ParticipantConfig::new(*fresh, 65000 + *fresh, 1);
            rs.add_peer(new.route_source(), ExportPolicy::allow_all());
            let announced = *rng.pick(&synth::prefix_pool());
            rs.process_update(new.id, &new.announce([announced], &[65000 + *fresh, 77]));
            book.upsert_participant(repoliced(rng, book, new));
        }
        6 if !enrolled.is_empty() => {
            book.remove_participant(*rng.pick(&enrolled));
        }
        7 | 8 => book.add_global_policy(who, global_fragment(rng, *fresh)),
        9 => book.clear_global_policies(who),
        10 | 11 => {
            // A burst: several participants re-announce or withdraw.
            for _ in 0..2 + rng.below(5) {
                let who = *rng.pick(&present);
                let cfg = book.participant(who).expect("present");
                let p = *rng.pick(&synth::prefix_pool());
                let update = if rng.chance(1, 3) {
                    UpdateMessage::withdraw([p])
                } else {
                    cfg.announce([p], &[65000 + who.0, 100 + rng.below(900) as u32])
                };
                rs.process_update(who, &update);
            }
        }
        _ => {
            let p = *rng.pick(&synth::prefix_pool());
            let update = if rng.chance(1, 3) {
                UpdateMessage::withdraw([p])
            } else {
                cfg.announce([p], &[65000 + who.0, 100 + rng.below(900) as u32])
            };
            rs.process_update(who, &update);
        }
    }
}

/// How many policies the book holds: an effective outbound and an inbound
/// per participant, where present.
fn policies(book: &SdxCompiler) -> usize {
    let of = |id| {
        usize::from(book.effective_outbound(id).is_some())
            + usize::from(book.participants()[&id].inbound.is_some())
    };
    ids(book).into_iter().map(of).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interleaved_book_mutations_never_serve_a_stale_compile(seed in 0u32..u32::MAX) {
        let synth::GeneratedExchange { compiler: mut book, mut rs, .. } =
            synth::exchange(u64::from(seed));
        let mut rng = Rng::new(u64::from(seed) ^ 0x5EED_B00C);
        let mut vnh = VnhAllocator::default();
        let pool = VnhAllocator::default_pool();
        let mut fresh = 6; // synth exchanges use ids 1..=6
        book.compile_all(&rs, &mut vnh).expect("initial compile");
        // Drained after every compile, as the controller's FIB sync does.
        rs.take_dirty_prefixes();

        // Ids the fast path drew since the last compile; the controller
        // releases them before it compiles, and so does this.
        let mut delta_ids: Vec<FecId> = Vec::new();
        for step in 0..16 {
            mutate(&mut rng, &mut book, &mut rs, &mut fresh);
            if rng.chance(1, 3) {
                // The fast path over a few prefixes, against a compiler
                // that never compiled anything before, on equal allocators.
                let changed: Vec<Prefix> =
                    (0..3).map(|_| *rng.pick(&synth::prefix_pool())).collect();
                let cold = cold_book(&book)
                    .fast_update_burst(&rs, &mut vnh.clone(), &changed)
                    .expect("cold burst");
                let warm = book
                    .fast_update_burst(&rs, &mut vnh, &changed)
                    .expect("warm burst");
                prop_assert_eq!(&warm.rules, &cold.rules, "step {}: delta rules", step);
                prop_assert_eq!(&warm.arp_bindings, &cold.arp_bindings, "step {}", step);
                prop_assert_eq!(&warm.vnh_updates, &cold.vnh_updates, "step {}", step);
                let drawn = warm.arp_bindings.iter().filter_map(|(_, vmac)| vmac.fec_id());
                delta_ids.extend(drawn.map(FecId));
                continue;
            }
            for id in delta_ids.drain(..) {
                vnh.release(id);
            }
            let warm = book.compile_all(&rs, &mut vnh).expect("warm compile");
            rs.take_dirty_prefixes();
            let cold = cold_compile(&book, &rs);
            let (w, c) = (canonicalize_report(&warm, pool), canonicalize_report(&cold, pool));
            prop_assert_eq!(&w.classifier, &c.classifier, "step {}: classifier", step);
            prop_assert_eq!(&w.groups, &c.groups, "step {}: groups", step);
            prop_assert_eq!(&w.vnh_of, &c.vnh_of, "step {}: VNH map", step);
            prop_assert_eq!(&w.arp_bindings, &c.arp_bindings, "step {}: ARP", step);
            // Nothing moved since: every policy and every piece is served
            // as it stands, and the output does not change for it.
            let again = book.compile_all(&rs, &mut vnh).expect("idle compile");
            prop_assert_eq!(again.stats.memo_hits, policies(&book), "step {}", step);
            let pieces = again.stats.pieces;
            let recomputed = [pieces.units, pieces.viewers, pieces.receivers, pieces.segments]
                .map(|tally| tally.recomputed);
            prop_assert_eq!(recomputed, [0; 4], "step {}: idle pieces", step);
            prop_assert_eq!(&again.classifier, &warm.classifier, "step {}: idle", step);
            prop_assert_eq!(&again.groups, &warm.groups, "step {}: idle groups", step);
            // The report shares the viewers' pieces: an idle compile hands
            // out the very same ones.
            for (viewer, piece) in &again.groups {
                prop_assert!(piece.same_piece(&warm.groups[viewer]), "step {}: shared", step);
            }
        }
    }
}
