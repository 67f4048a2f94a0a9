//! Warm ≡ cold under random churn: on random exchanges from
//! [`sdx_oracle::synth`] — the port-keyed and the wide policy universes — a
//! compiler kept warm across rounds of random route churn (announcements,
//! withdrawals, export-policy flips, session resets) must, after every
//! round, produce *the same fabric* as a cold compile of the same world
//! (a [`cold_book`] copy of the book on a fresh allocator, as
//! [`sdx_oracle::cold_compile`] builds it: nothing cached). The cold
//! compile runs first, over the very route server the warm one then
//! reads, not over a copy: a compile must leave the route server's record
//! of what changed as it found it.
//!
//! The two sides take different joins. The warm compile patches each
//! viewer's signature map prefix by prefix, with the function the fast
//! path runs; the cold one builds it whole, by next hop. Export flips and
//! session resets are in the mix because the patch relies on the route
//! server to report the prefixes they move. Policy pushes are drawn
//! between the route events — an outbound policy installed, replaced or
//! retracted for a random viewer — so a viewer's map is also rebuilt
//! whole mid-run and then patched again on the same interned table. A
//! round may draw no event, so an idle warm recompile is checked too.
//!
//! "The same" is checked rule-for-rule after canonical relabeling
//! ([`canonicalize_report`]): the one observable difference a warm
//! compile is allowed to introduce is VNH id numbering (surviving groups
//! keep the ids they hold), and the relabeling quotients exactly that away
//! — ids renumbered 1..N in (viewer, group-position) order, VNH addresses
//! and VMACs rewritten to follow, in the classifier's matches and action
//! mods included. Anything else that differs — rule order, group
//! membership, group count, ARP bindings, the route server's VNH rewrite
//! map — is a real divergence and fails the test. Counts (groups,
//! classifier rules) are also compared raw, before canonicalization, so a
//! relabeling bug cannot mask a size skew.

use proptest::prelude::*;
use sdx::bgp::msg::UpdateMessage;
use sdx::bgp::route_server::ExportPolicy;
use sdx::core::compiler::CompileReport;
use sdx::core::participant::ParticipantConfig;
use sdx::core::{canonicalize_report, VnhAllocator};
use sdx::net::ParticipantId;
use sdx_oracle::cold_book;
use sdx_oracle::synth::{self, GeneratedExchange, Rng};

/// Rounds of churn per exchange, each followed by a warm compile.
const ROUNDS: usize = 6;

fn assert_equivalent(what: &str, cold: &CompileReport, warm: &CompileReport) {
    // Raw counts first: sizes must match before any relabeling.
    assert_eq!(
        warm.classifier.rules().len(),
        cold.classifier.rules().len(),
        "{what}: classifier size differs"
    );
    for (viewer, groups) in &cold.groups {
        assert_eq!(
            warm.groups.get(viewer).map_or(0, |g| g.len()),
            groups.len(),
            "{what}: group count for viewer {viewer} differs"
        );
    }
    assert_eq!(
        warm.groups.len(),
        cold.groups.len(),
        "{what}: viewers differ"
    );
    // Then full rule-for-rule identity modulo VNH id renumbering.
    let pool = VnhAllocator::default_pool();
    let a = canonicalize_report(warm, pool);
    let b = canonicalize_report(cold, pool);
    assert_eq!(a.classifier, b.classifier, "{what}: classifier differs");
    assert_eq!(a.groups, b.groups, "{what}: FEC groups differ");
    assert_eq!(
        a.arp_bindings, b.arp_bindings,
        "{what}: ARP bindings differ"
    );
    assert_eq!(a.vnh_of, b.vnh_of, "{what}: VNH rewrite map differs");
}

/// Zero to three random events: route events on `ex`'s route server, or
/// an outbound policy push into its book (drawn from the `wide` universe
/// or not, as the exchange was).
fn churn(ex: &mut GeneratedExchange, rng: &mut Rng, wide: bool) {
    let pool = synth::prefix_pool();
    let peers: Vec<ParticipantId> = ex.rs.participants().collect();
    for _ in 0..rng.below(4) {
        let actor = *rng.pick(&peers);
        let p = *rng.pick(&pool);
        match rng.below(12) {
            0..=3 => {
                // Paths of one to four hops, so best routes flip.
                let mut path = vec![65000 + actor.0];
                for _ in 0..rng.below(4) {
                    path.push(100 + rng.below(59_000) as u32);
                }
                let cfg = ex.compiler.participant(actor).expect("enrolled");
                let msg = cfg.announce([p], &path);
                ex.rs.process_update(actor, &msg);
            }
            4 | 5 => {
                ex.rs.process_update(actor, &UpdateMessage::withdraw([p]));
            }
            6..=8 => {
                let mut export = ExportPolicy::allow_all();
                for _ in 0..rng.below(4) {
                    export.deny(*rng.pick(&peers), *rng.pick(&pool));
                }
                if rng.chance(1, 8) {
                    export.deny_peer(*rng.pick(&peers));
                }
                ex.rs.set_export_policy(actor, export);
            }
            9 => {
                ex.rs.reset_session(actor);
            }
            _ => {
                // An install or a replace; a third of the time, or when
                // the draw yields no policy, a retract.
                let cfgs: Vec<ParticipantConfig> =
                    ex.compiler.participants().values().cloned().collect();
                let policy = match (rng.chance(1, 3), wide) {
                    (true, _) => None,
                    (false, true) => synth::outbound_policy_wide(rng, &cfgs, actor),
                    (false, false) => synth::outbound_policy(rng, &cfgs, actor, &pool),
                };
                ex.compiler.set_outbound(actor, policy);
            }
        }
    }
}

/// Compiles `ex` warm after each of [`ROUNDS`] rounds of churn, holding
/// every warm compile to a cold compile of the same world, made first.
/// After each round the route server's dirty set is drained, as the
/// controller's FIB sync drains it, so every warm compile patches only
/// what its round changed.
fn warm_stays_cold(mut ex: GeneratedExchange, wide: bool, what: &str) {
    let mut rng = Rng::new(ex.seed ^ 0xC4A8_C0DE);
    let mut vnh = VnhAllocator::new(VnhAllocator::default_pool());
    for round in 0..=ROUNDS {
        if round > 0 {
            churn(&mut ex, &mut rng, wide);
        }
        let cold = cold_book(&ex.compiler)
            .compile_all(&ex.rs, &mut VnhAllocator::default())
            .unwrap_or_else(|e| panic!("{what} round {round}: cold compile failed: {e:?}"));
        let warm = ex
            .compiler
            .compile_all(&ex.rs, &mut vnh)
            .unwrap_or_else(|e| panic!("{what} round {round}: warm compile failed: {e:?}"));
        assert_equivalent(&format!("{what} round {round}"), &cold, &warm);
        ex.rs.take_dirty_prefixes();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every round of random churn leaves the warm compile equal to the
    /// cold one, on both policy universes.
    #[test]
    fn warm_compile_equals_cold_under_random_churn(seed in 0u64..1_000_000) {
        warm_stays_cold(synth::exchange(seed), false, &format!("seed {seed}"));
        warm_stays_cold(synth::exchange_wide(seed), true, &format!("wide seed {seed}"));
    }
}
