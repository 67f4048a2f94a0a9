//! The burst fast path against its definition: one prefix at a time.
//!
//! `fast_update_burst` derives each viewer's forwarding clauses and each
//! receiver's stage-2 inputs once per burst; `fast_update` runs the same
//! code over a one-prefix burst, so nothing is shared between calls. The
//! two must agree exactly — rules, ARP bindings, VNH updates, in the same
//! order, with the same VNH ids — including where an injected fault stops
//! them and what the allocator looks like afterwards.

use sdx::bgp::msg::UpdateMessage;
use sdx::bgp::route_server::RouteServer;
use sdx::core::compiler::SdxCompiler;
use sdx::core::incremental::DeltaResult;
use sdx::core::vnh::VnhAllocator;
use sdx::ixp::testkit;
use sdx::net::{prefix, Prefix};
use sdx::{FaultPlan, InjectionPoint, SdxError};

/// The per-prefix loop the burst replaces: concatenated `fast_update`s.
fn per_prefix(
    compiler: &mut SdxCompiler,
    rs: &RouteServer,
    vnh: &mut VnhAllocator,
    prefixes: &[Prefix],
    faults: &mut FaultPlan,
) -> Result<DeltaResult, SdxError> {
    let mut merged = DeltaResult::default();
    for &p in prefixes {
        let d = compiler.fast_update_burst_with_faults(rs, vnh, &[p], faults)?;
        merged.rules.extend(d.rules);
        merged.arp_bindings.extend(d.arp_bindings);
        merged.prefixes.extend(d.prefixes);
        merged.vnh_updates.extend(d.vnh_updates);
    }
    Ok(merged)
}

/// Runs both over fresh allocators and identical fault plans and compares
/// everything observable. `fail_at`: fire at the k-th `VnhAlloc` crossing.
fn assert_burst_equals_per_prefix(
    compiler: &mut SdxCompiler,
    rs: &RouteServer,
    prefixes: &[Prefix],
    fail_at: Option<u64>,
) {
    let plan = || match fail_at {
        Some(k) => FaultPlan::seeded(1).fail_nth(InjectionPoint::VnhAlloc, k),
        None => FaultPlan::disabled(),
    };
    let (mut vnh_burst, mut vnh_loop) = (VnhAllocator::default(), VnhAllocator::default());
    let (mut faults_burst, mut faults_loop) = (plan(), plan());
    let burst =
        compiler.fast_update_burst_with_faults(rs, &mut vnh_burst, prefixes, &mut faults_burst);
    let looped = per_prefix(compiler, rs, &mut vnh_loop, prefixes, &mut faults_loop);
    let what = format!("{} prefixes, fault at {fail_at:?}", prefixes.len());
    match (burst, looped) {
        (Ok(b), Ok(l)) => {
            assert_eq!(b.rules, l.rules, "rules: {what}");
            assert_eq!(b.arp_bindings, l.arp_bindings, "arp bindings: {what}");
            assert_eq!(b.prefixes, l.prefixes, "prefixes: {what}");
            assert_eq!(b.vnh_updates, l.vnh_updates, "vnh updates: {what}");
            assert_eq!(
                fail_at, None,
                "an armed fault inside the burst must fire: {what}"
            );
        }
        (Err(b), Err(l)) => assert_eq!(b.to_string(), l.to_string(), "{what}"),
        (b, l) => panic!(
            "{what}: burst {:?} but per-prefix {:?}",
            b.map(|d| d.rules.len()),
            l.map(|d| d.rules.len())
        ),
    }
    // Both stopped at the same allocation: same crossings, and the next
    // id each allocator hands out is the same.
    assert_eq!(
        faults_burst.crossings(InjectionPoint::VnhAlloc),
        faults_loop.crossings(InjectionPoint::VnhAlloc),
        "{what}"
    );
    assert_eq!(vnh_burst.remaining(), vnh_loop.remaining(), "{what}");
    assert_eq!(vnh_burst.allocate(), vnh_loop.allocate(), "{what}");
}

fn check_all_sizes(compiler: &mut SdxCompiler, rs: &RouteServer, pool: &[Prefix]) {
    for n in [1, 3, 64] {
        let burst = &pool[..n.min(pool.len())];
        assert_burst_equals_per_prefix(compiler, rs, burst, None);
        // How many allocations the burst makes decides which k can fire.
        let allocs = compiler
            .fast_update_burst(rs, &mut VnhAllocator::default(), burst)
            .expect("unfaulted burst")
            .arp_bindings
            .len() as u64;
        for k in [1, allocs / 2, allocs] {
            if (1..=allocs).contains(&k) {
                assert_burst_equals_per_prefix(compiler, rs, burst, Some(k));
            }
        }
    }
}

#[test]
fn figure1_bursts_equal_per_prefix_updates() {
    let (mut compiler, mut rs) = testkit::figure1_compiler();
    // C withdraws p1 (A's best flips to B); B withdraws p3 (gone
    // entirely); 60/8 was never announced.
    rs.process_update(
        sdx::net::ParticipantId(3),
        &UpdateMessage::withdraw([prefix("10.0.0.0/8")]),
    );
    rs.process_update(
        sdx::net::ParticipantId(2),
        &UpdateMessage::withdraw([prefix("30.0.0.0/8")]),
    );
    let pool: Vec<Prefix> = [
        "10.0.0.0/8",
        "30.0.0.0/8",
        "20.0.0.0/8",
        "40.0.0.0/8",
        "50.0.0.0/8",
        "60.0.0.0/8",
    ]
    .iter()
    .map(|p| prefix(p))
    .collect();
    check_all_sizes(&mut compiler, &rs, &pool);
}

#[test]
fn ixp50_bursts_equal_per_prefix_updates() {
    let (mut compiler, mut rs) = testkit::ixp50();
    // 64 prefixes spread over the table; every third loses one announcer
    // (a best-path flip, or the prefix vanishing if it had only one).
    let all = rs.all_prefixes();
    let pool: Vec<Prefix> = all
        .iter()
        .step_by(all.len() / 64)
        .copied()
        .take(64)
        .collect();
    assert_eq!(pool.len(), 64);
    for &p in pool.iter().step_by(3) {
        let announcer = rs.loc_rib().announcers(p)[0];
        rs.process_update(announcer, &UpdateMessage::withdraw([p]));
    }
    let delta = compiler
        .fast_update_burst(&rs, &mut VnhAllocator::default(), &pool)
        .expect("burst");
    assert!(
        delta.arp_bindings.len() >= 16,
        "the pool must exercise policy viewers, not only re-advertisements: {} allocations",
        delta.arp_bindings.len()
    );
    check_all_sizes(&mut compiler, &rs, &pool);
}
