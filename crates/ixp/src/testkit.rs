//! Shared test fixtures: the exchanges every integration test (and the
//! differential oracle) builds.
//!
//! Before this module existed, the Figure 1 exchange was copy-pasted —
//! with small drifts — across `tests/figure1.rs`, `tests/isolation.rs`,
//! `tests/multistage_fib.rs`, and `tests/parallel_compile.rs`. The
//! builders here are the single source of truth; tests layer their own
//! policies or deployments on top.
//!
//! Everything returns *undeployed* state so callers can mutate policies
//! or export filters before `deploy()` / `compile_all()`.

use std::collections::BTreeMap;

use sdx_bgp::route_server::{ExportPolicy, RouteServer};
use sdx_core::compiler::SdxCompiler;
use sdx_core::controller::SdxController;
use sdx_core::fec::FecId;
use sdx_core::participant::ParticipantConfig;
use sdx_core::vnh::VnhAllocator;
use sdx_core::vswitch;
use sdx_net::{prefix, ParticipantId, Prefix};
use sdx_policy::{parse_policy, Policy};

use crate::policy_workload::{assign_policies, PolicyWorkloadParams};
use crate::topology::{build, TopologyParams};

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

/// Draws ids from `vnh` with [`VnhAllocator::allocate`] until only
/// `leave` are free: a pool too small for what comes next, made of real
/// draws. Returns the ids last drawn first; releasing them in that order
/// makes the pool hand them out again in the order it would have.
pub fn drain_vnh(vnh: &mut VnhAllocator, leave: u64) -> Vec<FecId> {
    let mut drawn = Vec::new();
    while vnh.remaining() > leave {
        drawn.push(vnh.allocate().0);
    }
    drawn.reverse();
    drawn
}

/// The participant-name book for the Figure 1 exchange: A (1 port),
/// B (2 ports), C (1 port), D (1 port).
fn figure1_book() -> BTreeMap<ParticipantId, Vec<u8>> {
    [
        (pid(1), vec![1]),
        (pid(2), vec![1, 2]),
        (pid(3), vec![1]),
        (pid(4), vec![1]),
    ]
    .into()
}

/// AS A's application-specific peering policy from Figure 1: web via B,
/// HTTPS via C.
pub fn figure1_outbound_a() -> Policy {
    parse_policy(
        "(match(dstport = 80) >> fwd(B)) + (match(dstport = 443) >> fwd(C))",
        &vswitch::resolver_for(pid(1), &figure1_book()),
    )
    .expect("A's policy")
}

/// AS B's inbound traffic-engineering policy from Figure 1: low half of
/// the source space on B1, high half on B2.
pub fn figure1_inbound_b() -> Policy {
    parse_policy(
        "(match(srcip = {0.0.0.0/1}) >> fwd(B1)) + (match(srcip = {128.0.0.0/1}) >> fwd(B2))",
        &vswitch::resolver_for(pid(2), &figure1_book()),
    )
    .expect("B's policy")
}

/// The paper's Figure 1 exchange, controller-driven and ready to
/// `deploy()`: A runs the application-specific peering policy, B (two
/// ports) runs the inbound TE policy and hides p4 (40/8) from A, C and D
/// are policy-free, and the Figure 1b RIB is loaded (p1,p2 via B long /
/// C short; p3 only via B; p4 via B hidden and C; p5 only via D).
pub fn figure1_controller() -> SdxController {
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 2);
    let c = ParticipantConfig::new(3, 65003, 1);
    let d = ParticipantConfig::new(4, 65004, 1);

    let mut ctl = SdxController::new();
    ctl.add_participant(
        a.clone().with_outbound(figure1_outbound_a()),
        ExportPolicy::allow_all(),
    );
    let mut b_export = ExportPolicy::allow_all();
    b_export.deny(pid(1), prefix("40.0.0.0/8")); // B hides p4 from A
    ctl.add_participant(b.clone().with_inbound(figure1_inbound_b()), b_export);
    ctl.add_participant(c.clone(), ExportPolicy::allow_all());
    ctl.add_participant(d.clone(), ExportPolicy::allow_all());
    load_figure1_rib(&mut ctl.rs, &b, &c, &d);
    ctl
}

/// The Figure 1 exchange as a bare compiler + route server, for tests
/// that drive `compile_all` directly (pipeline determinism, the oracle).
/// Same topology, policies, exports, and RIB as
/// [`figure1_controller`].
pub fn figure1_compiler() -> (SdxCompiler, RouteServer) {
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 2);
    let c = ParticipantConfig::new(3, 65003, 1);
    let d = ParticipantConfig::new(4, 65004, 1);

    let mut rs = RouteServer::new();
    rs.add_peer(a.route_source(), ExportPolicy::allow_all());
    let mut b_export = ExportPolicy::allow_all();
    b_export.deny(pid(1), prefix("40.0.0.0/8"));
    rs.add_peer(b.route_source(), b_export);
    rs.add_peer(c.route_source(), ExportPolicy::allow_all());
    rs.add_peer(d.route_source(), ExportPolicy::allow_all());
    load_figure1_rib(&mut rs, &b, &c, &d);

    let mut compiler = SdxCompiler::new();
    compiler.upsert_participant(a.with_outbound(figure1_outbound_a()));
    compiler.upsert_participant(b.with_inbound(figure1_inbound_b()));
    compiler.upsert_participant(c);
    compiler.upsert_participant(d);
    (compiler, rs)
}

fn load_figure1_rib(
    rs: &mut RouteServer,
    b: &ParticipantConfig,
    c: &ParticipantConfig,
    d: &ParticipantConfig,
) {
    for (pfx, path) in [
        ("10.0.0.0/8", vec![65002, 100, 200]),
        ("20.0.0.0/8", vec![65002, 100, 200]),
        ("30.0.0.0/8", vec![65002, 300]),
        ("40.0.0.0/8", vec![65002, 400]),
    ] {
        rs.process_update(pid(2), &b.announce([prefix(pfx)], &path));
    }
    for (pfx, path) in [
        ("10.0.0.0/8", vec![65003, 200]),
        ("20.0.0.0/8", vec![65003, 200]),
        ("40.0.0.0/8", vec![65003, 400]),
    ] {
        rs.process_update(pid(3), &c.announce([prefix(pfx)], &path));
    }
    rs.process_update(pid(4), &d.announce([prefix("50.0.0.0/8")], &[65004, 500]));
}

/// A minimal three-party exchange (A, B, C — one port each, all exports
/// open, one /8 announced apiece: 11/8, 22/8, 33/8). The isolation tests
/// install adversarial policies on top of this before deploying.
pub fn three_party_exchange() -> SdxController {
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 1);
    let c = ParticipantConfig::new(3, 65003, 1);
    ctl.add_participant(a.clone(), ExportPolicy::allow_all());
    ctl.add_participant(b.clone(), ExportPolicy::allow_all());
    ctl.add_participant(c.clone(), ExportPolicy::allow_all());
    ctl.rs
        .process_update(pid(1), &a.announce([prefix("11.0.0.0/8")], &[65001]));
    ctl.rs
        .process_update(pid(2), &b.announce([prefix("22.0.0.0/8")], &[65002]));
    ctl.rs
        .process_update(pid(3), &c.announce([prefix("33.0.0.0/8")], &[65003]));
    ctl
}

/// The multistage-FIB exchange of §4.2 / Figure 2: a viewer (A) with a
/// port-80 policy toward B; B and C both announce the returned 64
/// prefixes with identical behaviour, C on the shorter (best) path.
/// Undeployed; the test decides when to `deploy()`.
pub fn multistage_exchange() -> (SdxController, Vec<Prefix>) {
    let a = ParticipantConfig::new(1, 65001, 1).with_outbound(
        parse_policy(
            "match(dstport = 80) >> fwd(B)",
            &vswitch::resolver_for(
                pid(1),
                &[(pid(1), vec![1]), (pid(2), vec![1]), (pid(3), vec![1])].into(),
            ),
        )
        .expect("A's policy"),
    );
    let b = ParticipantConfig::new(2, 65002, 1);
    let c = ParticipantConfig::new(3, 65003, 1);
    let mut ctl = SdxController::new();
    ctl.add_participant(a, ExportPolicy::allow_all());
    ctl.add_participant(b.clone(), ExportPolicy::allow_all());
    ctl.add_participant(c.clone(), ExportPolicy::allow_all());

    let prefixes: Vec<Prefix> = (0..64u32)
        .map(|i| prefix(&format!("10.{i}.0.0/16")))
        .collect();
    ctl.rs.process_update(
        pid(2),
        &b.announce(prefixes.iter().copied(), &[65002, 7, 9]),
    );
    ctl.rs
        .process_update(pid(3), &c.announce(prefixes.iter().copied(), &[65003, 9]));
    (ctl, prefixes)
}

/// The 50-participant synthetic workload used by the pipeline-determinism
/// suite and the oracle: `TopologyParams { participants: 50, prefixes:
/// 3000, seed: 17 }` with the §6.1 policy mix over 800 policy prefixes
/// (seed 18), loaded into a bare compiler + route server.
pub fn ixp50() -> (SdxCompiler, RouteServer) {
    let mut ixp = build(&TopologyParams {
        participants: 50,
        prefixes: 3000,
        seed: 17,
        ..Default::default()
    });
    assign_policies(
        &mut ixp,
        &PolicyWorkloadParams {
            policy_prefixes: 800,
            seed: 18,
            ..Default::default()
        },
    );
    let rs = ixp.route_server();
    let mut compiler = SdxCompiler::new();
    for p in &ixp.participants {
        compiler.upsert_participant(p.clone());
    }
    (compiler, rs)
}
