//! Shape-regression tests: small-scale versions of the paper's evaluation
//! sweeps, with the *trends* asserted programmatically. If a code change
//! breaks linearity of Figure 7 or sub-linearity of Figure 6, these fail
//! long before anyone re-reads the experiment output.

use sdx::core::vnh::VnhAllocator;
use sdx::ixp::policy_workload::{assign_policies, PolicyWorkloadParams};
use sdx::ixp::topology::{build, TopologyParams};
use sdx::net::Prefix;

fn compile_at(participants: usize, policy_prefixes: usize) -> (usize, usize, f64) {
    let mut ixp = build(&TopologyParams {
        participants,
        prefixes: 6000,
        seed: 11,
        ..Default::default()
    });
    assign_policies(
        &mut ixp,
        &PolicyWorkloadParams {
            policy_prefixes,
            seed: 12,
            ..Default::default()
        },
    );
    let rs = ixp.route_server();
    let mut compiler = sdx::core::compiler::SdxCompiler::new();
    for p in &ixp.participants {
        compiler.upsert_participant(p.clone());
    }
    let mut vnh = VnhAllocator::default();
    let t = std::time::Instant::now();
    let report = compiler.compile_all(&rs, &mut vnh).expect("compiles");
    (
        report.stats.group_count,
        report.stats.forwarding_rules,
        t.elapsed().as_secs_f64(),
    )
}

#[test]
fn fig6_shape_groups_sublinear_in_prefixes() {
    // Figure 6's y-axis is the number of FEC groups the *compiler*
    // creates — next-hop partitions of the policy-affected prefixes —
    // not a raw minimum-disjoint-subsets decomposition of the full
    // announcement sets (that quantity tracks announcement diversity,
    // grows near-linearly by construction of the synthetic workload, and
    // is not what the paper plots; the differential oracle's Figure 6
    // re-derivation in EXPERIMENTS.md has the numbers). So: sweep the
    // policy-prefix count and read `stats.group_count` off the compile
    // report, exactly as the figure's pipeline does.
    let mut counts = Vec::new();
    for px in [800usize, 1600, 3200] {
        let (groups, _, _) = compile_at(60, px);
        counts.push((px, groups));
    }
    // Monotone non-decreasing…
    assert!(counts.windows(2).all(|w| w[0].1 <= w[1].1), "{counts:?}");
    // …and sub-linear: quadrupling the prefixes must not quadruple groups.
    let (x0, g0) = counts[0];
    let (x1, g1) = counts[2];
    let prefix_ratio = x1 as f64 / x0 as f64;
    let group_ratio = g1 as f64 / g0.max(1) as f64;
    assert!(
        group_ratio < prefix_ratio * 0.8,
        "groups grew {group_ratio:.2}x for {prefix_ratio:.2}x prefixes: {counts:?}"
    );
    // Groups ≪ policy prefixes at the top end.
    assert!(counts[2].1 * 2 < counts[2].0, "{counts:?}");
}

#[test]
fn fig7_shape_rules_linear_in_groups() {
    // Rules per group stays roughly constant across the sweep.
    let mut ratios = Vec::new();
    for px in [800usize, 1600, 3200] {
        let (groups, rules, _) = compile_at(60, px);
        assert!(groups > 0);
        ratios.push(rules as f64 / groups as f64);
    }
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    assert!(
        max / min < 2.0,
        "rules/group must stay near-constant (linear Fig 7): {ratios:?}"
    );
}

#[test]
fn fig7_shape_more_participants_more_rules() {
    let (_, rules_small, _) = compile_at(40, 1600);
    let (_, rules_large, _) = compile_at(80, 1600);
    assert!(
        rules_large > rules_small,
        "more participants must mean more rules ({rules_small} vs {rules_large})"
    );
}

#[test]
fn fig9_shape_delta_rules_linear_in_burst() {
    let mut ixp = build(&TopologyParams {
        participants: 60,
        prefixes: 6000,
        seed: 13,
        ..Default::default()
    });
    assign_policies(
        &mut ixp,
        &PolicyWorkloadParams {
            policy_prefixes: 3200,
            seed: 14,
            ..Default::default()
        },
    );
    let rs = ixp.route_server();
    let mut compiler = sdx::core::compiler::SdxCompiler::new();
    for p in &ixp.participants {
        compiler.upsert_participant(p.clone());
    }
    let mut vnh = VnhAllocator::default();
    let base = compiler.compile_all(&rs, &mut vnh).expect("compiles");
    let mut affected: Vec<Prefix> = base.vnh_of.keys().map(|(_, p)| p).collect();
    affected.sort();
    affected.dedup();
    assert!(affected.len() >= 40);

    let small: Vec<Prefix> = affected.iter().copied().take(10).collect();
    let large: Vec<Prefix> = affected.iter().copied().take(40).collect();
    let d_small = compiler
        .fast_update_burst(&rs, &mut vnh, &small)
        .expect("delta")
        .additional_rules();
    let d_large = compiler
        .fast_update_burst(&rs, &mut vnh, &large)
        .expect("delta")
        .additional_rules();
    let ratio = d_large as f64 / d_small.max(1) as f64;
    assert!(
        (2.0..8.0).contains(&ratio),
        "4x burst should cost ≈4x rules, got {ratio:.1}x ({d_small} → {d_large})"
    );
}

#[test]
fn fig10_shape_fast_path_stays_sub_second() {
    let mut ixp = build(&TopologyParams {
        participants: 60,
        prefixes: 6000,
        seed: 15,
        ..Default::default()
    });
    assign_policies(
        &mut ixp,
        &PolicyWorkloadParams {
            policy_prefixes: 3200,
            seed: 16,
            ..Default::default()
        },
    );
    let rs = ixp.route_server();
    let mut compiler = sdx::core::compiler::SdxCompiler::new();
    for p in &ixp.participants {
        compiler.upsert_participant(p.clone());
    }
    let mut vnh = VnhAllocator::default();
    let base = compiler.compile_all(&rs, &mut vnh).expect("compiles");
    let affected: Vec<Prefix> = base.vnh_of.keys().map(|(_, p)| p).take(16).collect();
    for p in affected {
        let d = compiler.fast_update(&rs, &mut vnh, p).expect("delta");
        assert!(
            d.elapsed < std::time::Duration::from_secs(1),
            "fast path took {:?} for {p}",
            d.elapsed
        );
    }
}
