//! The differential harness: spec verdict vs fabric verdict, packet by
//! packet, with readable counterexamples.

use core::fmt;

use sdx_bgp::route_server::RouteServer;
use sdx_core::compiler::{CompileReport, SdxCompiler};
use sdx_core::vnh::VnhAllocator;
use sdx_net::{Packet, PortId};
use sdx_telemetry::{Event, Registry};

use crate::fabric::FabricEvaluator;
use crate::spec::SpecInterpreter;
use crate::synth;
use crate::trace::Trace;
use crate::Outcome;

/// A packet on which the two evaluations disagreed — the harness's whole
/// reason to exist. Displays as a per-stage, side-by-side story.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// The ingress port the packet entered at.
    pub from: PortId,
    /// The offending packet.
    pub pkt: Packet,
    /// What the specification says should happen.
    pub spec: Outcome,
    /// What the compiled fabric actually does.
    pub fabric: Outcome,
    /// The spec side's stage-by-stage decisions.
    pub spec_trace: Trace,
    /// The fabric side's stage-by-stage decisions.
    pub fabric_trace: Trace,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "oracle mismatch: packet in at {} ({} -> {}, dstport {})",
            self.from, self.pkt.nw_src, self.pkt.nw_dst, self.pkt.tp_dst
        )?;
        writeln!(f, "  spec says:   {}", self.spec)?;
        writeln!(f, "  fabric says: {}", self.fabric)?;
        writeln!(f, "spec trace:")?;
        write!(f, "{}", self.spec_trace.render())?;
        writeln!(f, "fabric trace:")?;
        write!(f, "{}", self.fabric_trace.render())
    }
}

impl Mismatch {
    /// Mirrors the mismatch into `reg`'s journal: one `oracle.mismatch`
    /// event with the verdict summary, then every trace step from both
    /// sides as `oracle.spec.*` / `oracle.fabric.*` events.
    pub fn emit(&self, reg: &Registry) {
        reg.record_event(Event::Custom {
            name: "oracle.mismatch".to_string(),
            detail: format!(
                "at {} dst {} dstport {}: spec {} vs fabric {}",
                self.from, self.pkt.nw_dst, self.pkt.tp_dst, self.spec, self.fabric
            ),
        });
        self.spec_trace.emit(reg);
        self.fabric_trace.emit(reg);
    }
}

/// Both oracle sides over one compiled exchange.
pub struct Differential<'a> {
    spec: SpecInterpreter<'a>,
    fabric: FabricEvaluator<'a>,
}

impl<'a> Differential<'a> {
    /// A harness over `report` as compiled from `compiler` + `rs`.
    pub fn new(compiler: &'a SdxCompiler, rs: &'a RouteServer, report: &'a CompileReport) -> Self {
        Differential {
            spec: SpecInterpreter::new(compiler, rs),
            fabric: FabricEvaluator::new(compiler, rs, report),
        }
    }

    /// A harness whose fabric side walks the *deployed* flow table
    /// (patch history and all) instead of the report's classifier — the
    /// check that delta reconciliation left the data plane
    /// packet-equivalent to what a from-scratch compile would install.
    pub fn over_table(
        compiler: &'a SdxCompiler,
        rs: &'a RouteServer,
        report: &'a CompileReport,
        table: &'a sdx_openflow::table::FlowTable,
    ) -> Self {
        Differential {
            spec: SpecInterpreter::new(compiler, rs),
            fabric: FabricEvaluator::over_table(compiler, rs, report, table),
        }
    }

    /// Evaluates one packet both ways. `Ok` is the agreed outcome; `Err`
    /// carries the full mismatch (boxed — it holds both traces).
    pub fn check(&self, from: PortId, pkt: &Packet) -> Result<Outcome, Box<Mismatch>> {
        let (spec, spec_trace) = self.spec.verdict(from, pkt);
        let (fabric, fabric_trace) = self.fabric.verdict(from, pkt);
        if spec == fabric {
            Ok(spec)
        } else {
            Err(Box::new(Mismatch {
                from,
                pkt: *pkt,
                spec,
                fabric,
                spec_trace,
                fabric_trace,
            }))
        }
    }

    /// Checks every probe, returning how many packets were *delivered*
    /// (so callers can assert the run wasn't vacuously all-drops), or the
    /// first mismatch.
    pub fn check_all(&self, probes: &[(PortId, Packet)]) -> Result<usize, Box<Mismatch>> {
        let mut delivered = 0;
        for (from, pkt) in probes {
            if matches!(self.check(*from, pkt)?, Outcome::Deliver { .. }) {
                delivered += 1;
            }
        }
        Ok(delivered)
    }
}

/// Aggregate counts from a [`run_smoke`] sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SmokeStats {
    /// Exchanges generated and compiled.
    pub exchanges: usize,
    /// Packets checked across all exchanges.
    pub packets: usize,
    /// Packets both sides agreed were delivered somewhere.
    pub delivers: usize,
    /// Packets both sides agreed were dropped.
    pub drops: usize,
}

impl fmt::Display for SmokeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} exchanges, {} packets ({} delivered, {} dropped)",
            self.exchanges, self.packets, self.delivers, self.drops
        )
    }
}

/// The deterministic smoke sweep (pinned at seed 42 in the differential
/// suite): `exchanges` random IXPs from consecutive seeds starting at
/// `seed`, `packets_per` probes each, differentially checked. Returns
/// counts or the first mismatch.
pub fn run_smoke(
    seed: u64,
    exchanges: usize,
    packets_per: usize,
) -> Result<SmokeStats, Box<Mismatch>> {
    let mut stats = SmokeStats {
        exchanges,
        packets: 0,
        delivers: 0,
        drops: 0,
    };
    for i in 0..exchanges {
        let case = seed.wrapping_add(i as u64);
        let mut ex = synth::exchange(case);
        let mut vnh = VnhAllocator::new(VnhAllocator::default_pool());
        let report = ex
            .compiler
            .compile_all(&ex.rs, &mut vnh)
            .unwrap_or_else(|e| {
                panic!("generated exchange (seed {case}) failed to compile: {e:?}")
            });
        let diff = Differential::new(&ex.compiler, &ex.rs, &report);
        for (from, pkt) in synth::packets(&ex, case, packets_per) {
            match diff.check(from, &pkt)? {
                Outcome::Deliver { .. } => stats.delivers += 1,
                Outcome::Drop => stats.drops += 1,
                _ => {}
            }
            stats.packets += 1;
        }
    }
    Ok(stats)
}

/// A fresh [`SdxCompiler`] holding a copy of `book`'s participants and
/// global policy fragments — nothing compiled, nothing cached.
pub fn cold_book(book: &SdxCompiler) -> SdxCompiler {
    let mut cold = SdxCompiler::new();
    for cfg in book.participants().values() {
        cold.upsert_participant(cfg.clone());
    }
    for (owner, fragment) in book.global_policies() {
        cold.add_global_policy(*owner, fragment.clone());
    }
    cold
}

/// The reference the equivalence suites compare an incremental compile
/// against: a [`cold_book`] copy of `book` compiled over a copy of `rs` on
/// a fresh allocator: every viewer's signature map built whole, by the
/// join by next hop, where a warm compile patched it prefix by prefix.
pub fn cold_compile(book: &SdxCompiler, rs: &RouteServer) -> CompileReport {
    cold_book(book)
        .compile_all(&rs.clone(), &mut VnhAllocator::default())
        .expect("cold compile")
}
