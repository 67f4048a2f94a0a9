//! The differential suite: spec interpreter vs compiled fabric.
//!
//! Three tiers of evidence, cheapest first:
//!
//! 1. **Fixtures** — the Figure 1 exchange, probed exhaustively, with the
//!    paper's headline behaviours spot-asserted on the *agreed* verdicts,
//!    and one clause whose `/7` match spans two announced `/8`s.
//! 2. **Deployed cross-check** — the emulated data plane (`Fabric::send`,
//!    with real border routers and an ARP responder) must agree with the
//!    agreed oracle verdict, tying the oracle's fabric model to the
//!    actual packet-pushing machinery.
//! 3. **Property fuzzing** — random exchanges and packets from seeds,
//!    shrunk by proptest to a single integer on failure, plus a
//!    loop-freedom assertion on every fabric walk.
//!
//! And one sabotage test: a table compiled as if every announced route had
//! been exported to everyone must make the harness fail with a per-stage
//! trace that names the consistency stage.

use proptest::prelude::*;
use sdx_bgp::route_server::{ExportPolicy, RouteServer};
use sdx_core::compiler::CompileReport;
use sdx_core::vnh::VnhAllocator;
use sdx_core::{ParticipantConfig, SdxCompiler, SdxController};
use sdx_ixp::testkit;
use sdx_net::{ip, prefix, FieldMatch, Ipv4Addr, Packet, ParticipantId, PortId};
use sdx_oracle::diff::run_smoke;
use sdx_oracle::{synth, Differential, Outcome};
use sdx_policy::Policy;
use sdx_telemetry::{Event, Registry};

fn compiled(
    mut compiler: SdxCompiler,
    rs: RouteServer,
) -> (SdxCompiler, RouteServer, CompileReport) {
    let mut vnh = VnhAllocator::new(VnhAllocator::default_pool());
    let report = compiler.compile_all(&rs, &mut vnh).expect("compiles");
    (compiler, rs, report)
}

fn a1() -> PortId {
    PortId::Phys(ParticipantId(1), 1)
}

#[test]
fn figure1_grid_agrees_and_matches_the_paper() {
    let (compiler, rs) = testkit::figure1_compiler();
    let (compiler, rs, report) = compiled(compiler, rs);
    let diff = Differential::new(&compiler, &rs, &report);

    // Exhaustive grid: every port x every announced prefix (+ one
    // unroutable) x low/high sources x the clause ports. Any mismatch
    // fails here with both traces rendered. Agreement also proves loop
    // freedom: the spec side never produces NonTerminating, so an agreed
    // verdict can't be one.
    let probes = synth::probe_grid(&compiler, &rs);
    let delivered = diff.check_all(&probes).unwrap_or_else(|m| panic!("{m}"));
    assert!(delivered > 0, "grid must exercise real deliveries");

    let verdict = |src: Ipv4Addr, dst: Ipv4Addr, dport: u16| {
        diff.check(a1(), &Packet::tcp(src, dst, 4321, dport))
            .unwrap_or_else(|m| panic!("{m}"))
    };
    let low = Ipv4Addr::new(9, 0, 0, 1);
    let high = Ipv4Addr::new(200, 0, 0, 1);
    let p1 = Ipv4Addr::new(10, 0, 0, 9);
    let b1 = PortId::Phys(ParticipantId(2), 1);
    let b2 = PortId::Phys(ParticipantId(2), 2);
    let c1 = PortId::Phys(ParticipantId(3), 1);
    let d1 = PortId::Phys(ParticipantId(4), 1);

    // A's web traffic goes via B, split by B's inbound TE policy.
    assert_eq!(
        verdict(low, p1, 80),
        Outcome::Deliver {
            port: b1,
            nw_dst: p1
        }
    );
    assert_eq!(
        verdict(high, p1, 80),
        Outcome::Deliver {
            port: b2,
            nw_dst: p1
        }
    );
    // A's HTTPS traffic goes via C.
    assert_eq!(
        verdict(low, p1, 443),
        Outcome::Deliver {
            port: c1,
            nw_dst: p1
        }
    );
    // Unpolicied traffic follows BGP best (C's shorter path for p1).
    assert_eq!(
        verdict(low, p1, 22),
        Outcome::Deliver {
            port: c1,
            nw_dst: p1
        }
    );
    // B hides 40/8 from A, so A's web clause toward B is *inconsistent*
    // for p4 and must fall back to the BGP default via C.
    let p4 = Ipv4Addr::new(40, 0, 0, 9);
    assert_eq!(
        verdict(low, p4, 80),
        Outcome::Deliver {
            port: c1,
            nw_dst: p4
        }
    );
    // p5 is announced only by D.
    let p5 = Ipv4Addr::new(50, 0, 0, 9);
    assert_eq!(
        verdict(low, p5, 80),
        Outcome::Deliver {
            port: d1,
            nw_dst: p5
        }
    );
    // Unrouted destinations never enter the fabric.
    let dark = Ipv4Addr::new(203, 0, 113, 9);
    assert_eq!(verdict(low, dark, 80), Outcome::Drop);
}

#[test]
fn deployed_fabric_agrees_with_the_oracle_verdict() {
    // Three-way cross-check: spec interpreter == fabric evaluator (the
    // oracle pair) == the actual emulated data plane with border routers
    // and ARP. `figure1_compiler` builds the same exchange the controller
    // deploys.
    let mut ctl = testkit::figure1_controller();
    let mut fabric = ctl.deploy().expect("deploys");
    let report = ctl.report.clone().expect("deploy stores the report");
    let diff = Differential::new(&ctl.compiler, &ctl.rs, &report);

    let probes = synth::probe_grid(&ctl.compiler, &ctl.rs);
    let mut delivered = 0;
    for (from, pkt) in probes {
        let agreed = diff.check(from, &pkt).unwrap_or_else(|m| panic!("{m}"));
        let sent = fabric.send(from, pkt);
        let wire = match sent.len() {
            0 => Outcome::Drop,
            1 => Outcome::Deliver {
                port: sent[0].loc,
                nw_dst: sent[0].pkt.nw_dst,
            },
            _ => Outcome::Multi(sent.iter().map(|d| (d.loc, d.pkt.nw_dst)).collect()),
        };
        assert_eq!(
            agreed, wire,
            "oracle and deployed fabric disagree for {pkt:?} in at {from}"
        );
        if matches!(agreed, Outcome::Deliver { .. }) {
            delivered += 1;
        }
    }
    assert!(delivered > 0);
    assert_eq!(fabric.stuck_at_virtual, 0);
}

#[test]
fn pinned_smoke_sweep_agrees_and_sees_both_verdicts() {
    // The fixed-seed sweep: 40 random exchanges from seed 42, 6 probes
    // each. A red run reproduces bit for bit from the seed.
    let stats = run_smoke(42, 40, 6).unwrap_or_else(|m| panic!("{m}"));
    assert!(stats.packets >= 200, "sweep too small: {stats}");
    assert!(
        stats.delivers > 0 && stats.drops > 0,
        "a healthy sweep exercises both verdicts: {stats}"
    );
}

/// Four participants, adjacent /8s, and a wide `/7` outbound match that
/// covers both: one clause whose affected set is two announced prefixes
/// on either side of the /7's midpoint.
fn wide_match_exchange() -> SdxController {
    let mut ctl = SdxController::new();
    let cfgs: Vec<ParticipantConfig> = (1..=4)
        .map(|i| ParticipantConfig::new(i, 65000 + i, 1))
        .collect();
    for cfg in &cfgs {
        ctl.add_participant(cfg.clone(), ExportPolicy::allow_all());
    }
    let (p10, p11) = (prefix("10.0.0.0/8"), prefix("11.0.0.0/8"));
    // B and C both announce both halves of 10.0.0.0/7; C's paths win.
    ctl.rs.process_update(
        ParticipantId(2),
        &cfgs[1].announce([p10, p11], &[65002, 7, 9]),
    );
    ctl.rs
        .process_update(ParticipantId(3), &cfgs[2].announce([p10, p11], &[65003, 9]));
    ctl.rs.process_update(
        ParticipantId(4),
        &cfgs[3].announce([prefix("40.0.0.0/8")], &[65004, 4]),
    );
    // A's policy: port-80 traffic for the whole /7 goes to B, overriding
    // the best route (C) for both /8s.
    ctl.set_outbound(
        ParticipantId(1),
        Some(
            Policy::match_(FieldMatch::NwDst(prefix("10.0.0.0/7")))
                >> Policy::match_(FieldMatch::TpDst(80))
                >> Policy::fwd(PortId::Virt(ParticipantId(2))),
        ),
    );
    ctl
}

#[test]
fn a_wide_match_over_two_prefixes_keeps_spec_verdicts() {
    let mut ctl = wide_match_exchange();
    let mut vnh = VnhAllocator::new(VnhAllocator::default_pool());
    let report = ctl
        .compiler
        .compile_all(&ctl.rs, &mut vnh)
        .expect("compile");
    let diff = Differential::new(&ctl.compiler, &ctl.rs, &report);
    // The far corners of both /8s and the seam between them, at the
    // policy port and off it, from every participant.
    let dsts = [
        "10.0.0.1",
        "10.255.255.254",
        "10.255.255.255",
        "11.0.0.0",
        "11.0.0.1",
        "11.255.255.254",
        "40.1.2.3",
    ];
    let mut delivered = 0;
    for dst in dsts {
        for dport in [80u16, 443] {
            for from in 1..=4u32 {
                let pkt = Packet::tcp(Ipv4Addr::new(9, 0, 0, 9), ip(dst), 4096, dport);
                let outcome = diff
                    .check(PortId::Phys(ParticipantId(from), 1), &pkt)
                    .unwrap_or_else(|m| panic!("{m}"));
                if matches!(outcome, Outcome::Deliver { .. }) {
                    delivered += 1;
                }
            }
        }
    }
    assert!(delivered > 0, "wide-match probes all dropped");
    // Both halves of the /7 follow A's clause to B at port 80.
    for dst in ["10.255.255.254", "11.0.0.1"] {
        let pkt = Packet::tcp(Ipv4Addr::new(9, 0, 0, 9), ip(dst), 4096, 80);
        assert_eq!(
            diff.check(a1(), &pkt).unwrap_or_else(|m| panic!("{m}")),
            Outcome::Deliver {
                port: PortId::Phys(ParticipantId(2), 1),
                nw_dst: ip(dst)
            }
        );
    }
}

#[test]
fn ixp50_workload_agrees_on_sampled_probes() {
    let (compiler, rs) = testkit::ixp50();
    let (compiler, rs, report) = compiled(compiler, rs);
    let diff = Differential::new(&compiler, &rs, &report);
    let probes = synth::sample_probes(&compiler, &rs, 50, 400);
    let delivered = diff.check_all(&probes).unwrap_or_else(|m| panic!("{m}"));
    assert!(
        delivered > 0,
        "sampled probes must exercise real deliveries"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole property: for a random IXP (participants, RIBs,
    /// export filters, outbound/inbound policies) and random packets, the
    /// reference interpreter and the compiled fabric agree — and no
    /// fabric walk loops.
    #[test]
    fn random_exchanges_agree(seed in 0u32..u32::MAX) {
        let mut ex = synth::exchange(seed as u64);
        let mut vnh = VnhAllocator::new(VnhAllocator::default_pool());
        let report = ex
            .compiler
            .compile_all(&ex.rs, &mut vnh)
            .expect("generated exchanges stay inside compilable shapes");
        let diff = Differential::new(&ex.compiler, &ex.rs, &report);
        for (from, pkt) in synth::packets(&ex, seed as u64, 40) {
            match diff.check(from, &pkt) {
                Ok(outcome) => prop_assert!(
                    outcome != Outcome::NonTerminating,
                    "agreed on a forwarding loop?!"
                ),
                Err(m) => prop_assert!(false, "seed {seed}: {m}"),
            }
        }
    }

    /// Wide-match companion: the same agreement property over the *wide*
    /// policy universe — whole-/16 range matches with wildcard transport
    /// ports, nested /24 sub-ranges, source-half refinements, and
    /// sequential modify chains (`SetTpSrc >> SetTpDst >> fwd`). These are
    /// the shapes the port-keyed generator never emits, so they regress
    /// on their own seed stream.
    #[test]
    fn wide_match_exchanges_agree(seed in 0u32..u32::MAX) {
        let mut ex = synth::exchange_wide(seed as u64);
        let mut vnh = VnhAllocator::new(VnhAllocator::default_pool());
        let report = ex
            .compiler
            .compile_all(&ex.rs, &mut vnh)
            .expect("wide exchanges stay inside compilable shapes");
        let diff = Differential::new(&ex.compiler, &ex.rs, &report);
        for (from, pkt) in synth::packets(&ex, seed as u64, 40) {
            match diff.check(from, &pkt) {
                Ok(outcome) => prop_assert!(
                    outcome != Outcome::NonTerminating,
                    "agreed on a forwarding loop?!"
                ),
                Err(m) => prop_assert!(false, "wide seed {seed}: {m}"),
            }
        }
    }
}

/// Pinned wide-generator seeds, one per clause shape (found by sweeping
/// the generator and inspecting which arm each seed draws): bare /16
/// range, nested /24 sub-range, source-half refinement, modify chain,
/// and the single-clause wildcard-destination policy. Kept as an
/// explicit test (not just `.proptest-regressions`) so the coverage is
/// visible and survives a regression-file wipe.
#[test]
fn wide_generator_pinned_seeds_agree() {
    for seed in [0u64, 1, 2, 3, 5, 8, 13, 21, 34, 55] {
        let mut ex = synth::exchange_wide(seed);
        let mut vnh = VnhAllocator::new(VnhAllocator::default_pool());
        let report = ex
            .compiler
            .compile_all(&ex.rs, &mut vnh)
            .unwrap_or_else(|e| panic!("wide seed {seed} failed to compile: {e}"));
        let diff = Differential::new(&ex.compiler, &ex.rs, &report);
        for (from, pkt) in synth::packets(&ex, seed, 60) {
            if let Err(m) = diff.check(from, &pkt) {
                panic!("wide seed {seed}: {m}");
            }
        }
    }
}

#[test]
fn sabotaged_compiler_is_caught_with_a_readable_trace() {
    // The Prelude-style bug class — joining policies with *announced*
    // routes instead of *exported* ones — without a switch in the
    // compiler: compile against a copy of the route server whose export
    // filter was opened, which silently honours A's `fwd(B)` for the
    // prefix B hid from A, and judge the result with the real one.
    let (compiler, rs) = testkit::figure1_compiler();
    let mut leaky = rs.clone();
    leaky.set_export_policy(ParticipantId(2), ExportPolicy::allow_all());
    let (compiler, _, report) = compiled(compiler, leaky);
    let diff = Differential::new(&compiler, &rs, &report);

    let probes = synth::probe_grid(&compiler, &rs);
    let mismatch = diff
        .check_all(&probes)
        .expect_err("the sabotaged consistency filter must be detected");

    // The counterexample renders a per-stage, side-by-side story...
    let msg = mismatch.to_string();
    assert!(msg.contains("oracle mismatch"), "got: {msg}");
    assert!(msg.contains("spec says:"), "got: {msg}");
    assert!(msg.contains("fabric says:"), "got: {msg}");
    assert!(msg.contains("[spec] "), "got: {msg}");
    assert!(msg.contains("[fabric] "), "got: {msg}");
    assert!(
        msg.contains("consistency"),
        "the spec trace should name the consistency stage: {msg}"
    );

    // ...and mirrors into the telemetry journal for replay tooling.
    let reg = Registry::new();
    mismatch.emit(&reg);
    let entries = reg.journal().entries();
    assert!(entries.iter().any(|e| matches!(
        &e.event,
        Event::Custom { name, .. } if name == "oracle.mismatch"
    )));
    assert!(entries.iter().any(|e| matches!(
        &e.event,
        Event::Custom { name, .. } if name.starts_with("oracle.spec.")
    )));
    assert!(entries.iter().any(|e| matches!(
        &e.event,
        Event::Custom { name, .. } if name.starts_with("oracle.fabric.")
    )));
}
