//! Shard-invariance property tests: on random exchanges from
//! [`sdx_oracle::synth`], a compile at any shard count — cold or served
//! from a warm unit cache — must produce *the same fabric* as a cold
//! compile at one shard, which is the whole-exchange computation (one
//! unit per viewer spanning the address space, nothing cached) through
//! the only phase A there is.
//!
//! "The same" is checked rule-for-rule after canonical relabeling
//! ([`canonicalize_report`]): the one observable difference a warm
//! compile is allowed to introduce is VNH id numbering (surviving groups
//! keep the ids they hold), and the relabeling quotients exactly that away
//! — ids renumbered 1..N in (viewer, group-position) order, VNH addresses
//! and VMACs rewritten to follow, in the classifier's matches and action
//! mods included. Anything else that differs — rule order, group
//! membership, group count, ARP bindings, the route server's VNH rewrite
//! map — is a real divergence and fails the test. Two *cold* compiles
//! draw ids from one pool in group enumeration order, so they must agree
//! without any relabeling at all.
//!
//! Counts (groups, classifier rules) are additionally compared raw,
//! before canonicalization, so a relabeling bug cannot mask a size skew.

use proptest::prelude::*;
use sdx::core::compiler::CompileReport;
use sdx::core::{canonicalize_report, SdxCompiler, VnhAllocator, DEFAULT_SHARDS};
use sdx_oracle::synth;

/// Cold-compiles the seed's exchange at `shards` on a fresh compiler and a
/// fresh allocator.
fn compile_with(seed: u64, shards: usize) -> (SdxCompiler, CompileReport) {
    let mut ex = synth::exchange(seed);
    ex.compiler.set_shards(shards);
    let mut vnh = VnhAllocator::new(VnhAllocator::default_pool());
    let report = ex
        .compiler
        .compile_all(&ex.rs, &mut vnh)
        .unwrap_or_else(|e| panic!("seed {seed} failed to compile at {shards} shards: {e:?}"));
    (ex.compiler, report)
}

fn assert_equivalent(seed: u64, shards: usize, base: &CompileReport, sharded: &CompileReport) {
    let what = format!("seed {seed} at {shards} shards");
    // Raw counts first: sizes must match before any relabeling.
    assert_eq!(
        sharded.classifier.rules().len(),
        base.classifier.rules().len(),
        "{what}: classifier size differs"
    );
    let group_count = |r: &CompileReport| -> usize { r.groups.values().map(|g| g.len()).sum() };
    assert_eq!(
        group_count(sharded),
        group_count(base),
        "{what}: total group count differs"
    );
    for (viewer, groups) in &base.groups {
        assert_eq!(
            sharded.groups.get(viewer).map_or(0, |g| g.len()),
            groups.len(),
            "{what}: group count for viewer {viewer} differs"
        );
    }
    // Then full rule-for-rule identity modulo VNH id renumbering.
    let pool = VnhAllocator::default_pool();
    let a = canonicalize_report(sharded, pool);
    let b = canonicalize_report(base, pool);
    assert_eq!(a.classifier, b.classifier, "{what}: classifier differs");
    assert_eq!(a.groups, b.groups, "{what}: FEC groups differ");
    assert_eq!(
        a.arp_bindings, b.arp_bindings,
        "{what}: ARP bindings differ"
    );
    assert_eq!(a.vnh_of, b.vnh_of, "{what}: VNH rewrite map differs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 1 ≡ 2 ≡ 8 (the default) ≡ 64 shards on arbitrary exchanges — and,
    /// both sides being cold, identical before relabeling too.
    #[test]
    fn sharded_compile_is_invariant_under_shard_count(seed in 0u64..1_000_000) {
        let (_c, base) = compile_with(seed, 1);
        for shards in [2, DEFAULT_SHARDS, 64] {
            let (_c, sharded) = compile_with(seed, shards);
            assert_equivalent(seed, shards, &base, &sharded);
            prop_assert_eq!(&sharded.classifier, &base.classifier);
            prop_assert_eq!(&sharded.groups, &base.groups);
            prop_assert_eq!(&sharded.arp_bindings, &base.arp_bindings);
            prop_assert_eq!(&sharded.vnh_of, &base.vnh_of);
        }
    }

    /// A second compile of the *same* compiler (warm unit cache, nothing
    /// dirty) serves every unit from cache and still matches the cold
    /// one-shard baseline — the cache cannot go stale silently.
    #[test]
    fn warm_cache_recompile_is_still_invariant(seed in 0u64..1_000_000) {
        let (_c, base) = compile_with(seed, 1);
        let mut ex = synth::exchange(seed);
        let mut vnh = VnhAllocator::new(VnhAllocator::default_pool());
        ex.compiler.compile_all(&ex.rs, &mut vnh).expect("cold compile");
        let warm = ex.compiler.compile_all(&ex.rs, &mut vnh).expect("warm compile");
        assert_equivalent(seed, DEFAULT_SHARDS, &base, &warm);
    }
}
