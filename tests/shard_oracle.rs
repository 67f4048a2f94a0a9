//! Cross-shard oracle differentials: the spec interpreter knows nothing
//! about shards, so any seam the per-shard phase A could introduce — a
//! prefix classified into the wrong slice, a wide-match policy clipped
//! at a range boundary, a merge that reorders rules across slices —
//! shows up as a per-probe verdict mismatch.
//!
//! Two layers:
//!
//! * a fuzz sweep ([`sdx_oracle::run_smoke_sharded`]) over randomly
//!   generated exchanges, with extra probes aimed at every shard
//!   boundary (first address above / last address below each cut);
//! * a hand-built exchange whose outbound policy's `NwDst` match
//!   *straddles* a shard boundary — the adversarial case for the merge,
//!   since one policy clause must compile identically in two shards.

use sdx::bgp::route_server::ExportPolicy;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::core::VnhAllocator;
use sdx::net::{ip, prefix, FieldMatch, Ipv4Addr, Packet, ParticipantId, PortId};
use sdx::policy::Policy as P;
use sdx_oracle::diff::{boundary_probes, run_smoke_sharded};
use sdx_oracle::Differential;

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

#[test]
fn sharded_fuzz_sweep_agrees_with_spec_at_every_probe() {
    for shards in [2, 8] {
        let stats = run_smoke_sharded(0xD1FF, 12, 40, shards)
            .unwrap_or_else(|m| panic!("sharded ({shards}) differential mismatch:\n{m}"));
        assert!(
            stats.delivers > 0,
            "sharded ({shards}) sweep was vacuous: {stats}"
        );
        assert!(
            stats.packets > 12 * 40,
            "boundary probes missing from the sweep: {stats}"
        );
    }
}

/// Four participants, adjacent /8s, and a wide `/7` outbound match that
/// covers both — compiled with enough shards that the two /8s land in
/// different slices, so the wide clause must survive the cut.
fn straddling_exchange() -> SdxController {
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 1);
    let c = ParticipantConfig::new(3, 65003, 1);
    let d = ParticipantConfig::new(4, 65004, 1);
    for cfg in [&a, &b, &c, &d] {
        ctl.add_participant(cfg.clone(), ExportPolicy::allow_all());
    }
    // B and C both announce both halves of 10.0.0.0/7; C's paths win.
    ctl.rs.process_update(
        pid(2),
        &b.announce([prefix("10.0.0.0/8"), prefix("11.0.0.0/8")], &[65002, 7, 9]),
    );
    ctl.rs.process_update(
        pid(3),
        &c.announce([prefix("10.0.0.0/8"), prefix("11.0.0.0/8")], &[65003, 9]),
    );
    ctl.rs
        .process_update(pid(4), &d.announce([prefix("40.0.0.0/8")], &[65004, 4]));
    // A's policy: port-80 traffic for the whole /7 goes to B, overriding
    // the best route (C) on both sides of any shard cut through the /7.
    ctl.set_outbound(
        pid(1),
        Some(
            P::match_(FieldMatch::NwDst(prefix("10.0.0.0/7")))
                >> P::match_(FieldMatch::TpDst(80))
                >> P::fwd(PortId::Virt(pid(2))),
        ),
    );
    ctl
}

#[test]
fn wide_match_straddling_a_shard_boundary_keeps_spec_verdicts() {
    for shards in [4, 16] {
        let mut ctl = straddling_exchange();
        ctl.compiler.set_shards(shards);
        let mut vnh = VnhAllocator::new(VnhAllocator::default_pool());
        let report = ctl
            .compiler
            .compile_all(&ctl.rs, &mut vnh)
            .expect("compile");
        let plan = ctl
            .compiler
            .shard_plan()
            .expect("a compile leaves a plan")
            .clone();
        // The announced space genuinely splits: 10/8 and 11/8 must not
        // share a shard, or the straddle never happens.
        assert_ne!(
            plan.shard_of(prefix("10.0.0.0/8")),
            plan.shard_of(prefix("11.0.0.0/8")),
            "{shards} shards: plan failed to cut the /7 — test vacuous"
        );
        let diff = Differential::new(&ctl.compiler, &ctl.rs, &report);
        // Probe the policy's match space densely around every boundary,
        // plus the far corners of both /8s, at the policy port and off it.
        let mut dsts: Vec<Ipv4Addr> = vec![
            ip("10.0.0.1"),
            ip("10.255.255.254"),
            ip("11.0.0.1"),
            ip("11.255.255.254"),
            ip("40.1.2.3"),
        ];
        for b in plan.boundaries() {
            dsts.push(b);
            dsts.push(Ipv4Addr(b.0.wrapping_sub(1)));
            dsts.push(Ipv4Addr(b.0.wrapping_add(1)));
        }
        let mut delivered = 0;
        for &dst in &dsts {
            for dport in [80u16, 443] {
                for from in 1..=4u32 {
                    let pkt = Packet::tcp(ip("9.0.0.9"), dst, 4096, dport);
                    let outcome = diff
                        .check(PortId::Phys(pid(from), 1), &pkt)
                        .unwrap_or_else(|m| panic!("{shards} shards: cross-shard mismatch:\n{m}"));
                    if matches!(outcome, sdx_oracle::Outcome::Deliver { .. }) {
                        delivered += 1;
                    }
                }
            }
        }
        assert!(
            delivered > 0,
            "{shards} shards: straddle probes all dropped"
        );
        // And the generic boundary sweep agrees too.
        for (from, pkt) in boundary_probes(&ctl.compiler, &plan) {
            diff.check(from, &pkt)
                .unwrap_or_else(|m| panic!("{shards} shards: boundary probe mismatch:\n{m}"));
        }
    }
}
