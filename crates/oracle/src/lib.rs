//! # sdx-oracle — the packet-level semantic oracle
//!
//! The SDX compiler (in `sdx-core`) turns participant policies, the route
//! server's Adj-RIB-Out, and BGP best routes into one composed switch
//! classifier. This crate answers the question *"did it compile the right
//! thing?"* by evaluating the same symbolic packet two independent ways:
//!
//! * [`spec::SpecInterpreter`] — the **reference interpreter**. It reads
//!   the *specification* directly: each participant's virtual-switch
//!   policy (via [`mod@sdx_policy::eval`]'s denotational semantics), joined
//!   with the route server's consistency filters and best-route defaults.
//!   It never looks at a compiled rule.
//! * [`fabric::FabricEvaluator`] — the **fabric evaluator**. It plays the
//!   border router (FIB lookup, VNH resolution, ARP tagging — all read
//!   from the [`sdx_core::compiler::CompileReport`]) and then steps the
//!   packet through the compiled classifier rule by rule, with a bounded
//!   walk that proves loop freedom.
//! * [`diff::Differential`] — the harness asserting the two agree, with
//!   per-stage [`trace::Trace`]s rendered on mismatch and mirrored into
//!   the `sdx-telemetry` journal as `oracle.*` events.
//! * [`synth`] — deterministic, seedable generators for random exchanges
//!   (participants, RIBs, export policies, policies) and probe packets,
//!   driven by proptest in the differential test suite.
//!
//! What each side trusts is spelled out in `DESIGN.md` §10.1, along with the
//! oracle's known exclusions (MAC-field matches, mod-only clauses, and
//! friends).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod fabric;
pub mod schedule;
pub mod spec;
pub mod synth;
pub mod trace;

use sdx_bgp::route_server::RouteServer;
use sdx_net::{Ipv4Addr, ParticipantId, PortId, Prefix};

pub use diff::{cold_book, cold_compile, Differential, Mismatch, SmokeStats};
pub use fabric::FabricEvaluator;
pub use schedule::{reoptimize_verified, UpdateVerifier};
pub use spec::SpecInterpreter;
pub use trace::{Trace, TraceStep};

/// Where a packet ends up, in terms both evaluation strategies share.
///
/// Destination MACs are deliberately *not* part of the verdict: the spec
/// side has no notion of the fabric's VMAC tags, and §4.1's guarantee is
/// about delivery port and (post-rewrite) destination address, which is
/// what participants observe. The fabric side counts a frame as delivered
/// only if it carries the MAC of the port it leaves on: the router there
/// drops any other.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Delivered at a physical port, carrying this destination address.
    Deliver {
        /// The physical delivery port.
        port: PortId,
        /// The delivered packet's destination IP (after any rewrites).
        nw_dst: Ipv4Addr,
    },
    /// Dropped: no route, no matching rule, or hairpin suppression.
    Drop,
    /// More than one delivery — multicast. The spec side emits this only
    /// for policies the compiler would reject; the fabric side emits it
    /// if the compiled tables ever duplicate a packet.
    Multi(Vec<(PortId, Ipv4Addr)>),
    /// The fabric walk revisited a state or exceeded its step budget —
    /// a forwarding loop. Never produced by the spec side, so any loop
    /// is automatically a mismatch.
    NonTerminating,
}

impl core::fmt::Display for Outcome {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Outcome::Deliver { port, nw_dst } => write!(f, "deliver at {port} (dst {nw_dst})"),
            Outcome::Drop => write!(f, "drop"),
            Outcome::Multi(outs) => {
                write!(f, "multicast to ")?;
                for (i, (port, dst)) in outs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{port} (dst {dst})")?;
                }
                Ok(())
            }
            Outcome::NonTerminating => write!(f, "NON-TERMINATING (forwarding loop)"),
        }
    }
}

/// The border router's FIB decision, shared verbatim by both oracle sides:
/// the longest announced prefix covering `dst` for which the route server
/// exports a best route to `viewer`. `None` means the router holds no
/// usable route and the packet never enters the fabric.
///
/// Both sides trusting this one function is deliberate — the border
/// router runs *unmodified BGP* (§4.2), so its LPM-over-received-routes
/// behaviour is part of the specification, not of the artifact under
/// test.
pub(crate) fn routed_lpm(
    rs: &RouteServer,
    announced: &[Prefix],
    viewer: ParticipantId,
    dst: Ipv4Addr,
) -> Option<Prefix> {
    announced
        .iter()
        .copied()
        .filter(|p| p.contains(dst) && rs.best_for(viewer, *p).is_some())
        .max_by_key(|p| p.len())
}
