//! The fabric evaluator: the same packet, but through the **compiled
//! artifact** instead of the spec.
//!
//! This side plays the hardware. It reads everything from the
//! [`CompileReport`]:
//!
//! 1. **Border router / FIB**: the sender's LPM decision (`routed_lpm`,
//!    shared with the spec side — unmodified BGP is part of the spec),
//!    then the *exact* `(sender, prefix)` entry of [`CompileReport::vnh_of`]
//!    to learn whether that route was rewritten to a virtual next hop.
//! 2. **ARP**: a VNH resolves to its FEC's VMAC via
//!    [`CompileReport::vmac_for`] (the sender's own FEC groups); a real
//!    next hop resolves to the participant port that owns the address,
//!    mirroring the controller's static port bindings. No binding, no
//!    frame.
//! 3. **Classifier walk**: first-match stepping over the composed rule
//!    table, re-injecting outputs that land on virtual ports, with a
//!    seen-set and a step budget so forwarding loops are *detected and
//!    reported* ([`Outcome::NonTerminating`]) instead of hanging the
//!    harness. The optimized pipeline emits a single-lookup classifier, so
//!    a healthy walk takes exactly one step — the loop check is there to
//!    catch compilers that stop guaranteeing that.
//!
//! Nothing in here consults a policy or the route server's decision
//! process beyond the FIB; if this side and the spec side agree on every
//! packet, the compiler preserved the semantics.

use sdx_bgp::route_server::RouteServer;
use sdx_core::compiler::{CompileReport, SdxCompiler};
use sdx_net::{Ipv4Addr, LocatedPacket, MacAddr, Packet, PortId, Prefix};
use sdx_openflow::table::FlowTable;

use crate::trace::{fmt_match, Trace};
use crate::{routed_lpm, Outcome};

/// Walks beyond this many classifier steps are declared non-terminating.
/// The compiled pipeline needs exactly one step per packet; 32 leaves
/// room for any future multi-table design while still bounding the walk.
const STEP_BUDGET: usize = 32;

/// The fabric-side oracle: border-router FIB + ARP + compiled classifier.
pub struct FabricEvaluator<'a> {
    compiler: &'a SdxCompiler,
    rs: &'a RouteServer,
    report: &'a CompileReport,
    /// When set, classifier steps walk this *deployed* flow table —
    /// priorities, patch history and all — instead of the report's
    /// pristine classifier. This is how the harness checks that a
    /// delta-patched table is packet-equivalent to a from-scratch
    /// compilation.
    table: Option<&'a FlowTable>,
    announced: Vec<Prefix>,
}

impl<'a> FabricEvaluator<'a> {
    /// An evaluator over `report` as compiled from `compiler` + `rs`.
    /// The announced-prefix list is snapshotted here; rebuild after BGP
    /// churn (the report would be stale anyway).
    pub fn new(compiler: &'a SdxCompiler, rs: &'a RouteServer, report: &'a CompileReport) -> Self {
        FabricEvaluator {
            compiler,
            rs,
            report,
            table: None,
            announced: rs.all_prefixes(),
        }
    }

    /// An evaluator whose classifier stage reads the deployed `table`
    /// (highest-priority first match over live [`FlowEntry`] buckets)
    /// rather than `report.classifier`. The FIB and ARP stages still come
    /// from `report` — pass the report the controller actually committed.
    ///
    /// [`FlowEntry`]: sdx_openflow::table::FlowEntry
    pub fn over_table(
        compiler: &'a SdxCompiler,
        rs: &'a RouteServer,
        report: &'a CompileReport,
        table: &'a FlowTable,
    ) -> Self {
        FabricEvaluator {
            compiler,
            rs,
            report,
            table: Some(table),
            announced: rs.all_prefixes(),
        }
    }

    /// Evaluates a packet entering the fabric at `from`, returning the
    /// compiled outcome and the stage-by-stage trace.
    pub fn verdict(&self, from: PortId, pkt: &Packet) -> (Outcome, Trace) {
        let mut t = Trace::new("fabric");
        let sender = from.participant();

        // Stage 0: the border router's FIB.
        let Some(p_star) = routed_lpm(self.rs, &self.announced, sender, pkt.nw_dst) else {
            t.push(
                "route",
                format!("no FIB entry covers {}: router drops", pkt.nw_dst),
            );
            return (Outcome::Drop, t);
        };
        t.push("route", format!("FIB matches {p_star}"));

        // Stage 0b: ARP for the route's next hop — the VMAC tag for
        // rewritten routes, the peer's physical MAC otherwise.
        let dl_dst = match self.report.vnh_of.get(&(sender, p_star)) {
            Some(vnh) => {
                let Some(vmac) = self.report.vmac_for(sender, *vnh) else {
                    t.push(
                        "arp",
                        format!("route carries VNH {vnh} but no FEC owns it: ARP fails, drop"),
                    );
                    return (Outcome::Drop, t);
                };
                t.push(
                    "arp",
                    format!("route carries VNH {vnh}; SDX ARP answers VMAC {vmac}"),
                );
                vmac
            }
            None => {
                let best = self
                    .rs
                    .best_for(sender, p_star)
                    .expect("p_star was chosen because a best route exists");
                let nh = best.attrs.next_hop;
                // Un-rewritten routes carry a real peering-LAN next hop;
                // the controller statically binds every participant
                // port's addr → MAC (install_static_arp).
                let Some(mac) = self
                    .compiler
                    .participants()
                    .values()
                    .flat_map(|cfg| cfg.ports.iter())
                    .find(|port| port.addr == nh)
                    .map(|port| port.mac)
                else {
                    t.push(
                        "arp",
                        format!("no static ARP binding for next hop {nh}: drop"),
                    );
                    return (Outcome::Drop, t);
                };
                t.push("arp", format!("next hop {nh} resolves to {mac}"));
                mac
            }
        };

        let dl_src = match from {
            PortId::Phys(_, idx) => self
                .compiler
                .participant(sender)
                .and_then(|cfg| cfg.port_mac(idx))
                .unwrap_or(MacAddr::ZERO),
            PortId::Virt(_) => MacAddr::ZERO,
        };

        let start = LocatedPacket::at(from, pkt.with_macs(dl_src, dl_dst));
        let outcome = self.walk(from, start, &mut t);
        (outcome, t)
    }

    /// Bounded first-match stepping over the composed classifier.
    fn walk(&self, from: PortId, start: LocatedPacket, t: &mut Trace) -> Outcome {
        let mut queue = vec![start];
        let mut seen: Vec<LocatedPacket> = Vec::new();
        let mut delivered: Vec<(PortId, Ipv4Addr)> = Vec::new();
        let mut steps = 0usize;

        while let Some(lp) = queue.pop() {
            if seen.contains(&lp) {
                t.push(
                    "classifier",
                    format!("revisited state at {}: forwarding loop", lp.loc),
                );
                return Outcome::NonTerminating;
            }
            seen.push(lp);
            steps += 1;
            if steps > STEP_BUDGET {
                t.push(
                    "classifier",
                    format!("step budget of {STEP_BUDGET} exhausted: declaring a loop"),
                );
                return Outcome::NonTerminating;
            }

            let outs: Vec<LocatedPacket> = match self.table {
                Some(table) => {
                    // Deployed-table mode: highest-priority first match
                    // over the live entries, buckets applied as installed.
                    // `classify` answers through the compiled matcher; the
                    // oracle dual-runs the linear reference walk and
                    // asserts `(index, entry)` identity on every probe, so
                    // the fast path can never silently change semantics.
                    let fast = table.classify(&lp);
                    let linear = table.classify_linear(&lp);
                    assert_eq!(
                        fast.map(|(i, e)| (i, e.priority, e.pattern)),
                        linear.map(|(i, e)| (i, e.priority, e.pattern)),
                        "compiled matcher diverged from the linear walk at {} \
                         (epoch {}, {} entries)",
                        lp.loc,
                        table.epoch(),
                        table.len(),
                    );
                    let Some((idx, entry)) = fast else {
                        t.push("classifier", format!("table miss at {}", lp.loc));
                        continue;
                    };
                    if entry.is_drop() {
                        t.push(
                            "classifier",
                            format!(
                                "entry #{idx} prio {} [{}] -> drop",
                                entry.priority,
                                fmt_match(&entry.pattern)
                            ),
                        );
                        continue;
                    }
                    t.push(
                        "classifier",
                        format!(
                            "entry #{idx} prio {} [{}] -> {} bucket(s)",
                            entry.priority,
                            fmt_match(&entry.pattern),
                            entry.buckets.len()
                        ),
                    );
                    FlowTable::apply_entry(entry, &lp)
                }
                None => {
                    let rules = self.report.classifier.rules();
                    let Some((idx, rule)) = rules
                        .iter()
                        .enumerate()
                        .find(|(_, r)| r.matches.matches(&lp))
                    else {
                        // from_rules guarantees totality; a miss means the
                        // table was built some other way. Report, don't
                        // panic.
                        t.push("classifier", format!("table miss at {}", lp.loc));
                        continue;
                    };
                    if rule.is_drop() {
                        t.push(
                            "classifier",
                            format!("rule #{idx} [{}] -> drop", fmt_match(&rule.matches)),
                        );
                        continue;
                    }
                    t.push(
                        "classifier",
                        format!(
                            "rule #{idx} [{}] -> {} action(s)",
                            fmt_match(&rule.matches),
                            rule.actions.len()
                        ),
                    );
                    rule.actions.iter().map(|a| a.apply(&lp)).collect()
                }
            };
            for out in outs {
                match out.loc {
                    PortId::Phys(..) => {
                        if out.loc == from {
                            t.push(
                                "deliver",
                                format!("{} is the ingress port: hairpin suppressed", out.loc),
                            );
                        } else {
                            let d = (out.loc, out.pkt.nw_dst);
                            if !delivered.contains(&d) {
                                t.push(
                                    "deliver",
                                    format!("delivered at {} (dst {})", out.loc, out.pkt.nw_dst),
                                );
                                delivered.push(d);
                            }
                        }
                    }
                    PortId::Virt(_) => {
                        t.push(
                            "classifier",
                            format!("output re-enters the fabric at {}", out.loc),
                        );
                        queue.push(out);
                    }
                }
            }
        }

        match delivered.len() {
            0 => Outcome::Drop,
            1 => {
                let (port, nw_dst) = delivered[0];
                Outcome::Deliver { port, nw_dst }
            }
            _ => Outcome::Multi(delivered),
        }
    }
}
