//! Reproduces **Figure 9** — additional forwarding rules per update burst.
//!
//! The §4.3.2 fast path trades rules for time: every updated prefix gets a
//! fresh VNH and a privately recompiled rule slice at high priority,
//! bypassing the minimum-disjoint-subset optimization. This experiment
//! replays worst-case bursts (every update changes a best path) of 10–100
//! prefixes and counts the delta rules that must sit in the table until
//! background re-optimization coalesces them. The paper's shape: linear in
//! burst size, steeper with more participants (≈3,000 rules at 100
//! updates with 300 participants).
//!
//! Run: `cargo run --release -p sdx-bench --bin repro_fig9 [--json out.json]`

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sdx_bench::{print_table, row, Workbench};
use sdx_core::vnh::VnhAllocator;
use sdx_net::Prefix;
use sdx_telemetry::MetricsSnapshot;

fn main() {
    let participants = [100usize, 200, 300];
    let burst_sizes = [10usize, 20, 40, 60, 80, 100];

    let mut metrics = MetricsSnapshot::default();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &n in &participants {
        let wb = Workbench::new(n, 25_000, 12_800, 9 + n as u64);
        let mut compiler = wb.compiler();
        let mut vnh = VnhAllocator::default();
        let base = compiler
            .compile_all(&wb.rs, &mut vnh)
            .expect("base compile");

        // Worst case: bursts drawn from the policy-affected prefixes, so
        // every update forces a fresh VNH and new rules.
        let mut affected: Vec<Prefix> = base.vnh_of.keys().map(|(_, p)| p).collect();
        affected.sort();
        affected.dedup();
        let mut rng = StdRng::seed_from_u64(99 + n as u64);
        affected.shuffle(&mut rng);

        for &size in &burst_sizes {
            let burst: Vec<Prefix> = affected.iter().copied().take(size).collect();
            let delta = compiler
                .fast_update_burst(&wb.rs, &mut vnh, &burst)
                .expect("fast path");
            rows.push(vec![
                n.to_string(),
                size.to_string(),
                delta.additional_rules().to_string(),
                format!("{:.1}", delta.additional_rules() as f64 / size as f64),
            ]);
            json.push(row([
                ("participants", n.into()),
                ("burst_size", size.into()),
                ("additional_rules", delta.additional_rules().into()),
            ]));
        }
        metrics.absorb(compiler.telemetry().snapshot());
    }
    print_table(
        "Figure 9: additional rules vs BGP update burst size",
        &[
            "participants",
            "burst (updates)",
            "additional rules",
            "rules/update",
        ],
        &rows,
    );
    println!(
        "\n  expected shape (paper): additional rules grow linearly with the\n  \
         burst size; more participants with policies ⇒ steeper slope."
    );
    sdx_bench::report("fig9", &json, &metrics);
}
