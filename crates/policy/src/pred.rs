//! Predicates: boolean tests over located packets.
//!
//! A predicate denotes a set of located packets. The AST supports full
//! boolean structure (`&`, `|`, `!`); compilation to classifiers (in
//! [`mod@crate::compile`]) handles negation by flipping rule actions, so no
//! DNF explosion is needed for `!`.

use core::ops;

use sdx_net::{FieldMatch, LocatedPacket, Prefix};

/// A boolean predicate over located packets.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Pred {
    /// Matches every packet (`identity` in Pyretic).
    Any,
    /// Matches no packet.
    None,
    /// A single-field test, e.g. `dstport=80`.
    Test(FieldMatch),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// `match(f)` — a single-field test.
    pub fn test(f: FieldMatch) -> Pred {
        Pred::Test(f)
    }

    /// Disjunction over several source prefixes (e.g. "traffic from
    /// YouTube's prefixes", §3.2).
    pub fn src_in(prefixes: impl IntoIterator<Item = Prefix>) -> Pred {
        prefixes
            .into_iter()
            .map(|p| Pred::Test(FieldMatch::NwSrc(p)))
            .reduce(|a, b| a | b)
            .unwrap_or(Pred::None)
    }

    /// Evaluates the predicate on a located packet.
    pub fn eval(&self, lp: &LocatedPacket) -> bool {
        match self {
            Pred::Any => true,
            Pred::None => false,
            Pred::Test(f) => sdx_net::HeaderMatch::of(*f).matches(lp),
            Pred::And(a, b) => a.eval(lp) && b.eval(lp),
            Pred::Or(a, b) => a.eval(lp) || b.eval(lp),
            Pred::Not(a) => !a.eval(lp),
        }
    }

    /// Structural size (diagnostics and compile-cost accounting).
    pub fn size(&self) -> usize {
        match self {
            Pred::Any | Pred::None | Pred::Test(_) => 1,
            Pred::And(a, b) | Pred::Or(a, b) => 1 + a.size() + b.size(),
            Pred::Not(a) => 1 + a.size(),
        }
    }
}

impl ops::BitAnd for Pred {
    type Output = Pred;
    fn bitand(self, rhs: Pred) -> Pred {
        // Cheap simplifications keep compiled classifiers small.
        match (self, rhs) {
            (Pred::Any, p) | (p, Pred::Any) => p,
            (Pred::None, _) | (_, Pred::None) => Pred::None,
            (a, b) => Pred::And(Box::new(a), Box::new(b)),
        }
    }
}

impl ops::BitOr for Pred {
    type Output = Pred;
    fn bitor(self, rhs: Pred) -> Pred {
        match (self, rhs) {
            (Pred::Any, _) | (_, Pred::Any) => Pred::Any,
            (Pred::None, p) | (p, Pred::None) => p,
            (a, b) => Pred::Or(Box::new(a), Box::new(b)),
        }
    }
}

impl ops::Not for Pred {
    type Output = Pred;
    fn not(self) -> Pred {
        match self {
            Pred::Any => Pred::None,
            Pred::None => Pred::Any,
            Pred::Not(inner) => *inner,
            p => Pred::Not(Box::new(p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{ip, prefix, Packet, ParticipantId, PortId};

    fn pkt(dst_port: u16) -> LocatedPacket {
        LocatedPacket::at(
            PortId::Phys(ParticipantId(1), 1),
            Packet::tcp(ip("10.0.0.1"), ip("20.0.0.1"), 999, dst_port),
        )
    }

    #[test]
    fn constants() {
        assert!(Pred::Any.eval(&pkt(80)));
        assert!(!Pred::None.eval(&pkt(80)));
    }

    #[test]
    fn single_test() {
        let p = Pred::test(FieldMatch::TpDst(80));
        assert!(p.eval(&pkt(80)));
        assert!(!p.eval(&pkt(443)));
    }

    #[test]
    fn boolean_combinators() {
        let web = Pred::test(FieldMatch::TpDst(80));
        let from10 = Pred::test(FieldMatch::NwSrc(prefix("10.0.0.0/8")));
        assert!((web.clone() & from10.clone()).eval(&pkt(80)));
        assert!(!(web.clone() & !from10.clone()).eval(&pkt(80)));
        assert!((Pred::test(FieldMatch::TpDst(443)) | web.clone()).eval(&pkt(80)));
        assert!((!web).eval(&pkt(443)));
    }

    #[test]
    fn simplifications() {
        let t = Pred::test(FieldMatch::TpDst(80));
        assert_eq!(t.clone() & Pred::Any, t);
        assert_eq!(Pred::Any & t.clone(), t);
        assert_eq!(t.clone() & Pred::None, Pred::None);
        assert_eq!(t.clone() | Pred::Any, Pred::Any);
        assert_eq!(t.clone() | Pred::None, t);
        assert_eq!(!(!t.clone()), t);
        assert_eq!(!Pred::Any, Pred::None);
        assert_eq!(!Pred::None, Pred::Any);
    }

    #[test]
    fn src_in_builds_disjunction() {
        let f = Pred::src_in([prefix("10.0.0.0/8")]);
        assert!(f.eval(&pkt(80)));
        assert_eq!(Pred::src_in([]), Pred::None);
    }

    #[test]
    fn size_counts_nodes() {
        let t = Pred::test(FieldMatch::TpDst(80));
        assert_eq!(t.size(), 1);
        assert_eq!((t.clone() & Pred::test(FieldMatch::TpSrc(1))).size(), 3);
        assert_eq!((!(t.clone() | t.clone())).size(), 4);
    }
}
