//! Deterministic generators for random exchanges and probe packets.
//!
//! Proptest drives these with a single `u64` seed (the strategy shrinks
//! over seeds, the generator turns a seed into a whole IXP), so every
//! counterexample is reproducible from one integer. The generators stay
//! inside the oracle's modelled semantics on purpose: clause matches are
//! made pairwise-disjoint (unique destination ports) so outbound policies
//! never multicast, rewrite clauses constrain `dstip` to a prefix that
//! excludes the rewrite target so "rewrite to the address you already
//! have" never arises, and filler ASNs avoid the participants' own ASNs
//! so AS-path loop protection fires only when a participant genuinely
//! re-hears itself. See `DESIGN.md` §10.1 for the full exclusion list.

use sdx_bgp::route_server::{ExportPolicy, RouteServer};
use sdx_core::compiler::SdxCompiler;
use sdx_core::participant::ParticipantConfig;
use sdx_net::{FieldMatch, Ipv4Addr, Mod, Packet, ParticipantId, PortId, Prefix};
use sdx_policy::Policy;

/// Destination ports policies match on; probes bias toward these.
pub const CLAUSE_PORTS: [u16; 5] = [80, 443, 22, 53, 8080];

/// A tiny deterministic PRNG (xorshift64*), so exchanges are a pure
/// function of the seed with no `rand` dependency.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` (any value, including 0, is fine).
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A uniformly chosen element of `xs` (`xs` non-empty).
    pub fn pick<'s, T>(&mut self, xs: &'s [T]) -> &'s T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// The fixed prefix universe exchanges announce from: six /16 supernets
/// with two nested /24s each, so LPM, partial coverage (`dst_coverage`),
/// and supernet/subnet splits all get exercised.
pub fn prefix_pool() -> Vec<Prefix> {
    let mut pool = Vec::new();
    for i in 0..6u8 {
        pool.push(Prefix::new(Ipv4Addr::new(10, i, 0, 0), 16));
        pool.push(Prefix::new(Ipv4Addr::new(10, i, 1, 0), 24));
        pool.push(Prefix::new(Ipv4Addr::new(10, i, 2, 0), 24));
    }
    pool
}

/// A generated exchange: participants + policies loaded into a compiler,
/// routes + export filters loaded into a route server. Undeployed —
/// callers run `compile_all` themselves.
pub struct GeneratedExchange {
    /// The compiler holding participants and their policies.
    pub compiler: SdxCompiler,
    /// The route server holding announcements and export filters.
    pub rs: RouteServer,
    /// The seed everything above is a pure function of.
    pub seed: u64,
}

/// Builds a random exchange from `seed`: 3–6 participants (1–2 ports
/// each), random announcement subsets of [`prefix_pool`] with diverse
/// AS-path lengths, sprinkled export denials, and random outbound/inbound
/// policies in the shapes the compiler supports.
pub fn exchange(seed: u64) -> GeneratedExchange {
    build_exchange(seed, false)
}

/// Like [`exchange`], but participants draw their outbound policies from
/// the *wide* generator (`outbound_policy_wide`): whole-network range
/// matches with no transport-port constraint, nested sub-range matches,
/// source-half refinements with wildcard destinations, and sequential
/// modify chains. Same seed, different policy universe — so the two
/// streams regress independently.
pub fn exchange_wide(seed: u64) -> GeneratedExchange {
    build_exchange(seed, true)
}

fn build_exchange(seed: u64, wide: bool) -> GeneratedExchange {
    let mut rng = Rng::new(seed);
    let pool = prefix_pool();
    let n = 3 + rng.below(4) as u32; // 3..=6 participants

    let cfgs: Vec<ParticipantConfig> = (1..=n)
        .map(|id| ParticipantConfig::new(id, 65000 + id, 1 + rng.below(2) as u8))
        .collect();

    let mut rs = RouteServer::new();
    for cfg in &cfgs {
        let mut export = ExportPolicy::allow_all();
        // Sparse denials: per (peer, prefix) with p=1/4, plus a rare
        // blanket deny_peer — these are what make the consistency filter
        // earn its keep.
        for other in 1..=n {
            if other == cfg.id.0 {
                continue;
            }
            if rng.chance(1, 16) {
                export.deny_peer(ParticipantId(other));
                continue;
            }
            for p in &pool {
                if rng.chance(1, 4) {
                    export.deny(ParticipantId(other), *p);
                }
            }
        }
        rs.add_peer(cfg.route_source(), export);
    }

    for cfg in &cfgs {
        // Everyone announces at least one prefix; each further pool entry
        // with p=1/3. Filler ASNs stay far below 65001..=65006 so loop
        // protection only triggers on the announcer's own ASN.
        let forced = rng.below(pool.len() as u64) as usize;
        let announced: Vec<Prefix> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| *i == forced || rng.chance(1, 3))
            .map(|(_, p)| *p)
            .collect();
        let mut path = vec![65000 + cfg.id.0];
        for _ in 0..=rng.below(3) {
            path.push(100 + rng.below(59_000) as u32);
        }
        rs.process_update(cfg.id, &cfg.announce(announced, &path));
    }

    let mut compiler = SdxCompiler::new();
    for cfg in &cfgs {
        let mut cfg = cfg.clone();
        if rng.chance(2, 3) {
            let pol = if wide {
                outbound_policy_wide(&mut rng, &cfgs, cfg.id)
            } else {
                outbound_policy(&mut rng, &cfgs, cfg.id, &pool)
            };
            if let Some(pol) = pol {
                cfg = cfg.with_outbound(pol);
            }
        }
        if rng.chance(1, 2) {
            cfg = cfg
                .clone()
                .with_inbound(inbound_policy(&mut rng, &cfgs, &cfg));
        }
        compiler.upsert_participant(cfg);
    }

    GeneratedExchange { compiler, rs, seed }
}

/// A random outbound policy for `me`: 1–3 clauses, each on a *distinct*
/// destination port (pairwise disjoint ⇒ never multicasts), optionally
/// refined by a source or destination predicate, targeting a mix of
/// `fwd(peer)`, port steering, destination rewrites, and mod-only
/// clauses.
pub fn outbound_policy(
    rng: &mut Rng,
    cfgs: &[ParticipantConfig],
    me: ParticipantId,
    pool: &[Prefix],
) -> Option<Policy> {
    let others: Vec<&ParticipantConfig> = cfgs.iter().filter(|c| c.id != me).collect();
    let mut ports = CLAUSE_PORTS.to_vec();
    let n_clauses = 1 + rng.below(3);
    let mut policy = Policy::drop();
    for _ in 0..n_clauses {
        let dstport = ports.remove(rng.below(ports.len() as u64) as usize);
        let mut clause = Policy::match_(FieldMatch::TpDst(dstport));
        let kind = rng.below(20);
        if kind < 14 {
            // fwd(peer), optionally refined.
            match rng.below(3) {
                0 => {
                    clause = clause
                        >> Policy::match_(FieldMatch::NwSrc(Prefix::new(
                            Ipv4Addr::new(if rng.chance(1, 2) { 0 } else { 128 }, 0, 0, 0),
                            1,
                        )));
                }
                1 => {
                    clause = clause >> Policy::match_(FieldMatch::NwDst(*rng.pick(pool)));
                }
                _ => {}
            }
            clause = clause >> Policy::fwd(PortId::Virt(rng.pick(&others).id));
        } else if kind < 17 {
            // Port steering: a peer's real physical port, bypassing its
            // inbound policy.
            let target = rng.pick(&others);
            let port = *rng.pick(&target.ports);
            clause = clause >> Policy::fwd(PortId::Phys(target.id, port.index));
        } else if kind < 19 {
            // Destination rewrite (wide-area LB): constrain dstip to one
            // /16 and rewrite into a *different* /16, so the rewrite
            // always changes the address.
            let from_net = rng.below(6) as u8;
            let to_net = (from_net + 1 + rng.below(5) as u8) % 6;
            let target = Ipv4Addr::new(10, to_net, 0, 1 + rng.below(200) as u8);
            clause = clause
                >> Policy::match_(FieldMatch::NwDst(Prefix::new(
                    Ipv4Addr::new(10, from_net, 0, 0),
                    16,
                )))
                >> Policy::modify(Mod::SetNwDst(target));
            if rng.chance(1, 2) {
                clause = clause >> Policy::fwd(PortId::Virt(rng.pick(&others).id));
            }
        } else {
            // Mod-only clause: rewrites a header but forwards nowhere.
            // The compiler emits nothing for it (a known exclusion both
            // oracle sides model as "default path, original packet").
            clause = clause >> Policy::modify(Mod::SetTpDst(4000 + rng.below(1000) as u16));
        }
        policy = policy + clause;
    }
    if policy.is_drop() {
        None
    } else {
        Some(policy)
    }
}

/// A random *wide* outbound policy for `me`: where [`outbound_policy`]
/// keys every clause on a distinct destination port, this generator emits
/// the shapes that leave whole header fields wild — range matches over an
/// entire /16 (every port, every source), nested /24 sub-ranges,
/// source-half refinements with wildcard destinations, and sequential
/// *modify chains* (several header rewrites composed with `>>` before the
/// `fwd`). Disjointness (⇒ no multicast) comes from giving each clause a
/// distinct /16 network instead of a distinct port.
pub fn outbound_policy_wide(
    rng: &mut Rng,
    cfgs: &[ParticipantConfig],
    me: ParticipantId,
) -> Option<Policy> {
    let others: Vec<&ParticipantConfig> = cfgs.iter().filter(|c| c.id != me).collect();
    // Rarely, the widest shape the compiler supports: a single clause
    // over one source half with a fully wildcard destination.
    if rng.chance(1, 6) {
        let half = Ipv4Addr::new(if rng.chance(1, 2) { 0 } else { 128 }, 0, 0, 0);
        return Some(
            Policy::match_(FieldMatch::NwSrc(Prefix::new(half, 1)))
                >> Policy::fwd(PortId::Virt(rng.pick(&others).id)),
        );
    }
    let mut nets: Vec<u8> = (0..6).collect();
    let n_clauses = 1 + rng.below(3);
    let mut policy = Policy::drop();
    for _ in 0..n_clauses {
        let net = nets.remove(rng.below(nets.len() as u64) as usize);
        let mut clause = match rng.below(4) {
            0 => {
                // Bare range match: the whole /16, every port and source.
                Policy::match_(FieldMatch::NwDst(Prefix::new(
                    Ipv4Addr::new(10, net, 0, 0),
                    16,
                )))
            }
            1 => {
                // Nested sub-range: one of the /24s inside the /16, so
                // LPM and the range boundary both get exercised.
                Policy::match_(FieldMatch::NwDst(Prefix::new(
                    Ipv4Addr::new(10, net, 1 + rng.below(2) as u8, 0),
                    24,
                )))
            }
            2 => {
                // Range match refined by a source half; destination
                // ports stay wild.
                let half = Ipv4Addr::new(if rng.chance(1, 2) { 0 } else { 128 }, 0, 0, 0);
                Policy::match_(FieldMatch::NwDst(Prefix::new(
                    Ipv4Addr::new(10, net, 0, 0),
                    16,
                ))) >> Policy::match_(FieldMatch::NwSrc(Prefix::new(half, 1)))
            }
            _ => {
                // Modify chain: two transport rewrites in sequence
                // before the forward.
                Policy::match_(FieldMatch::NwDst(Prefix::new(
                    Ipv4Addr::new(10, net, 0, 0),
                    16,
                ))) >> Policy::modify(Mod::SetTpSrc(5000 + rng.below(1000) as u16))
                    >> Policy::modify(Mod::SetTpDst(6000 + rng.below(1000) as u16))
            }
        };
        clause = clause >> Policy::fwd(PortId::Virt(rng.pick(&others).id));
        policy = policy + clause;
    }
    if policy.is_drop() {
        None
    } else {
        Some(policy)
    }
}

/// A random inbound policy for `me`: clauses over *disjoint* source-space
/// quarters (never multicasts), each steering to one of `me`'s own ports —
/// or, rarely, a foreign port (the middlebox idiom).
fn inbound_policy(rng: &mut Rng, cfgs: &[ParticipantConfig], me: &ParticipantConfig) -> Policy {
    let quarters: [Ipv4Addr; 4] = [
        Ipv4Addr::new(0, 0, 0, 0),
        Ipv4Addr::new(64, 0, 0, 0),
        Ipv4Addr::new(128, 0, 0, 0),
        Ipv4Addr::new(192, 0, 0, 0),
    ];
    let n_clauses = 1 + rng.below(3);
    let mut used = Vec::new();
    let mut policy = Policy::drop();
    for _ in 0..n_clauses {
        let q = rng.below(4) as usize;
        if used.contains(&q) {
            continue;
        }
        used.push(q);
        let target = if rng.chance(1, 8) && cfgs.len() > 1 {
            let others: Vec<&ParticipantConfig> = cfgs.iter().filter(|c| c.id != me.id).collect();
            let other = *rng.pick(&others);
            PortId::Phys(other.id, rng.pick(&other.ports).index)
        } else {
            PortId::Phys(me.id, rng.pick(&me.ports).index)
        };
        policy = policy
            + (Policy::match_(FieldMatch::NwSrc(Prefix::new(quarters[q], 2)))
                >> Policy::fwd(target));
    }
    if policy.is_drop() {
        // All quarters collided; fall back to the primary port for the
        // whole space (equivalent to no policy, but exercises the path).
        Policy::fwd(PortId::Phys(me.id, me.primary_port().index))
    } else {
        policy
    }
}

/// `n` random probe packets (with ingress ports) for `ex`: destinations
/// biased toward the announced pool (supernet hosts, nested-/24 hosts)
/// with a sliver of unroutable 203.0.113.0/24, sources split across the
/// inbound policies' quarters, destination ports biased toward
/// [`CLAUSE_PORTS`].
pub fn packets(ex: &GeneratedExchange, seed: u64, n: usize) -> Vec<(PortId, Packet)> {
    let mut rng = Rng::new(seed ^ 0xDEAD_BEEF);
    let ports: Vec<PortId> = ex
        .compiler
        .participants()
        .values()
        .flat_map(|c| c.port_ids())
        .collect();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let from = *rng.pick(&ports);
        let dst = match rng.below(20) {
            0..=13 => Ipv4Addr::new(10, rng.below(6) as u8, 0, 1 + rng.below(200) as u8),
            14..=16 => Ipv4Addr::new(
                10,
                rng.below(6) as u8,
                1 + rng.below(2) as u8,
                1 + rng.below(200) as u8,
            ),
            _ => Ipv4Addr::new(203, 0, 113, 1 + rng.below(200) as u8),
        };
        let src = if rng.chance(1, 2) {
            Ipv4Addr::new(9, 0, 0, 1 + rng.below(200) as u8)
        } else {
            Ipv4Addr::new(200, 0, 0, 1 + rng.below(200) as u8)
        };
        let dport = if rng.chance(3, 5) {
            *rng.pick(&CLAUSE_PORTS)
        } else {
            1024 + rng.below(40_000) as u16
        };
        out.push((
            from,
            Packet::tcp(src, dst, 1024 + rng.below(1000) as u16, dport),
        ));
    }
    out
}

/// `n` random probes for an *arbitrary* exchange (any compiler + route
/// server, not just generated ones): destinations are representative
/// hosts of randomly chosen announced prefixes (plus a sliver of
/// unroutable addresses), sources split low/high for inbound-policy
/// coverage, destination ports biased toward [`CLAUSE_PORTS`]. This is
/// the sampler for workloads whose full [`probe_grid`] would be huge.
pub fn sample_probes(
    compiler: &SdxCompiler,
    rs: &RouteServer,
    seed: u64,
    n: usize,
) -> Vec<(PortId, Packet)> {
    let mut rng = Rng::new(seed ^ 0x5A17_B0A7);
    let ports: Vec<PortId> = compiler
        .participants()
        .values()
        .flat_map(|c| c.port_ids())
        .collect();
    let announced = rs.all_prefixes();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let from = *rng.pick(&ports);
        let dst = if announced.is_empty() || rng.chance(1, 10) {
            Ipv4Addr::new(203, 0, 113, 1 + rng.below(200) as u8)
        } else {
            let p = *rng.pick(&announced);
            Ipv4Addr(p.addr().0 + rng.below(p.size().min(256) - 1) as u32 + 1)
        };
        let src = if rng.chance(1, 2) {
            Ipv4Addr::new(9, 0, 0, 1 + rng.below(200) as u8)
        } else {
            Ipv4Addr::new(200, 0, 0, 1 + rng.below(200) as u8)
        };
        let dport = if rng.chance(3, 5) {
            *rng.pick(&CLAUSE_PORTS)
        } else {
            1024 + rng.below(40_000) as u16
        };
        out.push((from, Packet::tcp(src, dst, 4321, dport)));
    }
    out
}

/// A systematic probe grid for fixture exchanges: every physical port ×
/// (one representative host per announced prefix + one unroutable
/// address) × low/high source × the clause ports. Exhaustive for
/// Figure-1-sized fixtures; use [`packets`] for big synthetic IXPs.
pub fn probe_grid(compiler: &SdxCompiler, rs: &RouteServer) -> Vec<(PortId, Packet)> {
    let mut dsts: Vec<Ipv4Addr> = rs
        .all_prefixes()
        .iter()
        .map(|p| Ipv4Addr(p.addr().0 + 9))
        .collect();
    dsts.push(Ipv4Addr::new(203, 0, 113, 9));
    let srcs = [Ipv4Addr::new(9, 0, 0, 1), Ipv4Addr::new(200, 0, 0, 1)];
    let mut out = Vec::new();
    for cfg in compiler.participants().values() {
        for port in cfg.port_ids() {
            for &dst in &dsts {
                for &src in &srcs {
                    for &dport in &[80u16, 443, 22, 8080] {
                        out.push((port, Packet::tcp(src, dst, 4321, dport)));
                    }
                }
            }
        }
    }
    out
}
