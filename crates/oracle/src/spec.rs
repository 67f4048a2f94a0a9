//! The reference interpreter: SDX forwarding semantics read straight off
//! the specification.
//!
//! A packet from participant X is handled exactly as §3–§4 of the paper
//! prescribe, with **no compiled artifact in the loop**:
//!
//! 1. X's border router does an LPM over the routes the route server
//!    exported to it; no route → the packet never enters the fabric.
//! 2. X's outbound policy (including global fragments, via
//!    [`SdxCompiler::effective_outbound`]) is evaluated denotationally by
//!    [`sdx_policy::eval()`]. A matching `fwd(Y)` clause applies **only if**
//!    BGP consistency holds: Y must have exported a route for the packet's
//!    best-match prefix (or for the rewritten address, for wide-area-LB
//!    clauses). Inapplicable or absent clauses fall to the BGP default.
//! 3. The chosen receiver's inbound policy picks the physical delivery
//!    port; unmatched traffic falls through to the receiver's primary
//!    port (the NEXT_HOP its announcements carry). Port-steering clauses
//!    (`fwd(E1)`) deliver directly, bypassing the owner's inbound policy.
//! 4. A delivery back out the ingress port is hairpin-suppressed.
//!
//! Divergences between this interpreter and the compiled fabric are, by
//! construction, compiler bugs (or spec-model bugs — both worth finding).

use sdx_bgp::route_server::RouteServer;
use sdx_core::compiler::SdxCompiler;
use sdx_core::vswitch::participant_name;
use sdx_net::{LocatedPacket, Packet, ParticipantId, PortId, Prefix};
use sdx_policy::eval::eval_unicast;

use crate::trace::Trace;
use crate::{routed_lpm, Outcome};

/// Where stage 1 (the sender's outbound policy + consistency filter)
/// decided the packet goes next.
enum Next {
    /// No clause applied: follow the BGP best route with the original
    /// packet.
    Default,
    /// A consistent `fwd(Y)` (or routed rewrite): enter Y's virtual
    /// switch carrying the clause's output packet.
    Stage2(ParticipantId, Packet),
    /// Port steering (`fwd(E1)`): deliver at the exact port, bypassing
    /// the owner's inbound policy.
    Direct(PortId, Packet),
}

/// The spec-side oracle. Holds the policy book (compiler) and route
/// server it interprets; both are read-only.
pub struct SpecInterpreter<'a> {
    compiler: &'a SdxCompiler,
    rs: &'a RouteServer,
    announced: Vec<Prefix>,
}

impl<'a> SpecInterpreter<'a> {
    /// An interpreter over `compiler`'s participants/policies and `rs`'s
    /// routes. The announced-prefix list is snapshotted here; rebuild the
    /// interpreter after BGP churn.
    pub fn new(compiler: &'a SdxCompiler, rs: &'a RouteServer) -> Self {
        SpecInterpreter {
            compiler,
            rs,
            announced: rs.all_prefixes(),
        }
    }

    /// Evaluates a packet entering the fabric at `from`, returning the
    /// specified outcome and the stage-by-stage trace.
    pub fn verdict(&self, from: PortId, pkt: &Packet) -> (Outcome, Trace) {
        let mut t = Trace::new("spec");
        let sender = from.participant();

        // Stage 0: the sender's border router. No usable route, no packet.
        let Some(p_star) = routed_lpm(self.rs, &self.announced, sender, pkt.nw_dst) else {
            t.push(
                "route",
                format!(
                    "no route exported to {} covers {}: router drops",
                    participant_name(sender),
                    pkt.nw_dst
                ),
            );
            return (Outcome::Drop, t);
        };
        t.push(
            "route",
            format!("{} matches {p_star} (longest exported prefix)", pkt.nw_dst),
        );

        // Stage 1: outbound policy + BGP consistency.
        let next = match self.stage1(from, pkt, p_star, &mut t) {
            Ok(next) => next,
            Err(outcome) => return (outcome, t),
        };
        let (receiver, pkt2) = match next {
            Next::Direct(port, out) => {
                t.push(
                    "deliver",
                    format!("port steering delivers at {port}, bypassing inbound policy"),
                );
                return (self.deliver(from, port, &out, &mut t), t);
            }
            Next::Stage2(nh, out) => (nh, out),
            Next::Default => {
                let best = self
                    .rs
                    .best_for(sender, p_star)
                    .expect("p_star was chosen because a best route exists");
                let nh = best.source.participant;
                t.push(
                    "default",
                    format!(
                        "BGP best route for {p_star} is via {}",
                        participant_name(nh)
                    ),
                );
                (nh, *pkt)
            }
        };

        // Stage 2: the receiver's inbound policy, then primary-port
        // delivery.
        let port = match self.stage2(receiver, &pkt2, &mut t) {
            Ok(port) => port,
            Err(outcome) => return (outcome, t),
        };
        (self.deliver(from, port, &pkt2, &mut t), t)
    }

    /// Outbound evaluation. `Err` carries an early outcome (policy shapes
    /// the compiler rejects, reported rather than guessed at).
    fn stage1(
        &self,
        from: PortId,
        pkt: &Packet,
        p_star: Prefix,
        t: &mut Trace,
    ) -> Result<Next, Outcome> {
        let sender = from.participant();
        let Some(pol) = self.compiler.effective_outbound(sender) else {
            t.push("outbound", "no outbound policy: default path");
            return Ok(Next::Default);
        };
        let lp = LocatedPacket::at(from, *pkt);
        let out = match eval_unicast(&pol, &lp) {
            Ok(Some(out)) => out,
            Ok(None) => {
                t.push("outbound", "no clause matched: default path");
                return Ok(Next::Default);
            }
            Err(outs) => {
                t.push(
                    "outbound",
                    "outbound policy multicasts — the compiler rejects this shape",
                );
                return Err(Outcome::Multi(
                    outs.iter().map(|o| (o.loc, o.pkt.nw_dst)).collect(),
                ));
            }
        };

        let rewritten = out.pkt.nw_dst != pkt.nw_dst;
        if rewritten {
            // Wide-area load balancing (§3.2): consistency is checked on
            // the *rewritten* address.
            return Ok(match out.loc {
                PortId::Virt(nh) => {
                    if self
                        .rs
                        .reachable_via_addr(sender, out.pkt.nw_dst)
                        .contains(&nh)
                    {
                        t.push(
                            "consistency",
                            format!(
                                "rewrite to {} is reachable via {}: clause applies",
                                out.pkt.nw_dst,
                                participant_name(nh)
                            ),
                        );
                        Next::Stage2(nh, out.pkt)
                    } else {
                        t.push(
                            "consistency",
                            format!(
                                "{} did not export a route for rewritten {}: default path, original packet",
                                participant_name(nh),
                                out.pkt.nw_dst
                            ),
                        );
                        Next::Default
                    }
                }
                PortId::Phys(..) if out.loc != from => {
                    t.push(
                        "consistency",
                        "rewrite with a port-steering target cannot be consistency-checked: \
                         the compiler drops the rule; default path, original packet",
                    );
                    Next::Default
                }
                _ => {
                    // Rewrite without an explicit fwd: follow the
                    // rewritten address's own best route.
                    match self.rs.best_for_addr(sender, out.pkt.nw_dst) {
                        Some(r) => {
                            let nh = r.source.participant;
                            t.push(
                                "consistency",
                                format!(
                                    "rewrite to {} follows its best route via {}",
                                    out.pkt.nw_dst,
                                    participant_name(nh)
                                ),
                            );
                            Next::Stage2(nh, out.pkt)
                        }
                        None => {
                            t.push(
                                "consistency",
                                format!(
                                    "rewritten address {} is unroutable: default path, original packet",
                                    out.pkt.nw_dst
                                ),
                            );
                            Next::Default
                        }
                    }
                }
            });
        }

        Ok(match out.loc {
            loc if loc == from => {
                t.push(
                    "outbound",
                    "clause modifies without forwarding: the fabric sheds the mods and \
                     keeps the default path (known exclusion)",
                );
                Next::Default
            }
            PortId::Virt(nh) => {
                if self.rs.reachable_via(sender, p_star).any(|a| a == nh) {
                    t.push(
                        "consistency",
                        format!(
                            "{} exported a route for {p_star}: fwd({}) applies",
                            participant_name(nh),
                            participant_name(nh)
                        ),
                    );
                    Next::Stage2(nh, out.pkt)
                } else {
                    t.push(
                        "consistency",
                        format!(
                            "{} did not export a route for {p_star}: fwd({}) suppressed, default path",
                            participant_name(nh),
                            participant_name(nh)
                        ),
                    );
                    Next::Default
                }
            }
            PortId::Phys(owner, idx) => {
                if self.compiler.participant(owner).is_none() {
                    t.push(
                        "outbound",
                        format!(
                            "steering target {}:{idx} belongs to no participant: rule dropped, default path",
                            participant_name(owner)
                        ),
                    );
                    Next::Default
                } else {
                    Next::Direct(out.loc, out.pkt)
                }
            }
        })
    }

    /// Inbound evaluation at the receiver's virtual switch: the clause's
    /// physical port, or the primary-port fallback.
    fn stage2(
        &self,
        receiver: ParticipantId,
        pkt: &Packet,
        t: &mut Trace,
    ) -> Result<PortId, Outcome> {
        let Some(cfg) = self.compiler.participant(receiver) else {
            t.push(
                "inbound",
                format!(
                    "{} has no participant config: no stage-2 block, packet dropped",
                    participant_name(receiver)
                ),
            );
            return Err(Outcome::Drop);
        };
        if let Some(inb) = cfg.inbound.as_ref() {
            let lp = LocatedPacket::at(PortId::Virt(receiver), *pkt);
            match eval_unicast(inb, &lp) {
                Ok(Some(out)) => match out.loc {
                    port @ PortId::Phys(..) => {
                        t.push(
                            "inbound",
                            format!(
                                "{}'s inbound policy picks {port}",
                                participant_name(receiver)
                            ),
                        );
                        return Ok(port);
                    }
                    other => {
                        // The compiler rejects inbound clauses without a
                        // physical target; if we ever get here the policy
                        // could not have compiled.
                        t.push(
                            "inbound",
                            format!(
                                "inbound clause escapes the virtual switch (to {other}) — \
                                 the compiler rejects this shape; treating as fall-through"
                            ),
                        );
                    }
                },
                Ok(None) => {
                    t.push(
                        "inbound",
                        "no inbound clause matched (explicit drops fall through to delivery)",
                    );
                }
                Err(outs) => {
                    t.push("inbound", "inbound policy multicasts");
                    return Err(Outcome::Multi(
                        outs.iter().map(|o| (o.loc, o.pkt.nw_dst)).collect(),
                    ));
                }
            }
        }
        let primary = cfg.primary_port();
        let port = PortId::Phys(receiver, primary.index);
        t.push(
            "inbound",
            format!(
                "fallback delivery at {}'s primary port {port}",
                participant_name(receiver)
            ),
        );
        Ok(port)
    }

    /// Final delivery with hairpin suppression (a switch never emits a
    /// frame back out its ingress port).
    fn deliver(&self, from: PortId, port: PortId, pkt: &Packet, t: &mut Trace) -> Outcome {
        if port == from {
            t.push(
                "deliver",
                format!("{port} is the ingress port: hairpin suppressed"),
            );
            return Outcome::Drop;
        }
        t.push(
            "deliver",
            format!("delivered at {port} (dst {})", pkt.nw_dst),
        );
        Outcome::Deliver {
            port,
            nw_dst: pkt.nw_dst,
        }
    }
}
