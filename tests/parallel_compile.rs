//! Determinism tests for the parallel compile pipeline (DESIGN.md §11):
//! `Parallelism::Threads(4)` must produce a **byte-identical**
//! `CompileReport` to `Parallelism::Serial`:
//! same classifier rules in the same order, same FEC groups, same VNH map,
//! same ARP bindings. Checked on the paper's Figure 1 exchange and on a
//! 50-participant `sdx-ixp` workload.

use sdx::bgp::route_server::RouteServer;
use sdx::core::compiler::{CompileReport, Parallelism, SdxCompiler};
use sdx::core::vnh::VnhAllocator;
use sdx::ixp::testkit;

fn compile_with(
    compiler: &mut SdxCompiler,
    rs: &RouteServer,
    parallelism: Parallelism,
) -> CompileReport {
    compiler.options.parallelism = parallelism;
    // Cold memo and cold unit cache per run so every variant does
    // identical work (a warm phase A would never fan out).
    compiler.clear_memo();
    compiler.clear_unit_cache();
    let mut vnh = VnhAllocator::default();
    compiler.compile_all(rs, &mut vnh).expect("compiles")
}

/// Full structural equality, field by field. `stats` carries wall-clock
/// timings and is deliberately excluded.
fn assert_reports_identical(a: &CompileReport, b: &CompileReport, what: &str) {
    assert_eq!(
        a.classifier.rules(),
        b.classifier.rules(),
        "{what}: classifier rules differ"
    );
    assert_eq!(a.groups, b.groups, "{what}: FEC groups differ");
    assert_eq!(
        a.arp_bindings, b.arp_bindings,
        "{what}: ARP bindings differ"
    );
    assert_eq!(a.vnh_of, b.vnh_of, "{what}: VNH map differs");
    assert_eq!(
        a.stats.group_count, b.stats.group_count,
        "{what}: group counts differ"
    );
    assert_eq!(
        a.stats.rule_count, b.stats.rule_count,
        "{what}: rule counts differ"
    );
}

fn check_all_variants(compiler: &mut SdxCompiler, rs: &RouteServer, scale: &str) {
    let serial = compile_with(compiler, rs, Parallelism::Serial);
    for threads in [2usize, 4, 8] {
        let parallel = compile_with(compiler, rs, Parallelism::Threads(threads));
        assert_reports_identical(
            &parallel,
            &serial,
            &format!("{scale}: threads({threads}) vs serial"),
        );
    }
    let auto = compile_with(compiler, rs, Parallelism::Auto);
    assert_reports_identical(&auto, &serial, &format!("{scale}: auto vs serial"));
}

#[test]
fn figure1_parallel_report_is_byte_identical_to_serial() {
    // The Figure 1 exchange from the paper: small, but exercises outbound
    // + inbound policies, hidden exports, and policy-free participants.
    let (mut compiler, rs) = testkit::figure1_compiler();
    check_all_variants(&mut compiler, &rs, "figure1");
}

#[test]
fn fifty_participant_workload_parallel_report_is_byte_identical_to_serial() {
    let (mut compiler, rs) = testkit::ixp50();
    check_all_variants(&mut compiler, &rs, "ixp-50");
}
