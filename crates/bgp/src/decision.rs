//! The BGP decision process (RFC 4271 §9.1.2.2) as a total order.
//!
//! The route server runs this on behalf of every participant to pick the
//! best route per prefix. Steps, in order:
//!
//! 1. highest LOCAL_PREF (missing = 100)
//! 2. shortest AS_PATH (AS_SET counts as one hop)
//! 3. lowest ORIGIN (IGP < EGP < INCOMPLETE)
//! 4. lowest MED (missing = 0)
//! 5. lowest router id
//! 6. lowest peer address
//! 7. lowest announcer ([`ParticipantId`](sdx_net::ParticipantId))
//!
//! Two deliberate simplifications, both standard route-server practice and
//! both documented in DESIGN.md §5: every session at an IXP route server is
//! eBGP so the eBGP-vs-iBGP step never discriminates, and MED is compared
//! across neighbouring ASes ("always-compare-med"). The latter keeps the
//! relation a *total order*, which the property tests verify. The last
//! step makes it strict among candidates for one prefix, which hold one
//! route per announcer: no two of them compare equal.
//!
//! The order is not re-derived per query. The Loc-RIB stores each
//! prefix's candidates sorted by it, best first
//! ([`LocRib::upsert`](crate::rib::LocRib::upsert)), so a viewer's best
//! route is the first candidate exported to it, and neither the stored
//! order nor any viewer's choice depends on the order updates arrived in.

use core::cmp::Ordering;

use crate::rib::Route;

/// Default LOCAL_PREF per RFC 4271 when the attribute is absent.
pub const DEFAULT_LOCAL_PREF: u32 = 100;

/// Compares two routes for the same prefix; `Ordering::Greater` means `a`
/// is preferred over `b`.
pub fn compare(a: &Route, b: &Route) -> Ordering {
    let lp = |r: &Route| r.attrs.local_pref.unwrap_or(DEFAULT_LOCAL_PREF);
    let med = |r: &Route| r.attrs.med.unwrap_or(0);

    lp(a)
        .cmp(&lp(b)) // higher local-pref wins
        .then_with(|| {
            b.attrs
                .as_path
                .selection_len()
                .cmp(&a.attrs.as_path.selection_len()) // shorter path wins
        })
        .then_with(|| b.attrs.origin.cmp(&a.attrs.origin)) // lower origin wins
        .then_with(|| med(b).cmp(&med(a))) // lower MED wins
        .then_with(|| b.source.router_id.cmp(&a.source.router_id)) // lower id wins
        .then_with(|| b.source.peer_addr.cmp(&a.source.peer_addr)) // lower addr wins
        .then_with(|| b.source.participant.cmp(&a.source.participant)) // lower announcer wins
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::attrs::{AsPath, Origin, PathAttributes};
    use crate::rib::{Route, RouteSource};
    use sdx_net::{ip, Asn, Ipv4Addr, ParticipantId, RouterId};
    use std::sync::Arc;

    /// The decision process run afresh over `candidates`: the
    /// reference the stored order is tested against.
    pub(crate) fn best_route<'a>(
        candidates: impl IntoIterator<Item = &'a Route>,
    ) -> Option<&'a Route> {
        candidates.into_iter().max_by(|a, b| compare(a, b))
    }

    fn route(path_len: usize, f: impl FnOnce(&mut Route)) -> Route {
        let mut r = Route {
            source: RouteSource {
                participant: ParticipantId(1),
                asn: Asn(65001),
                router_id: RouterId(100),
                peer_addr: ip("172.0.0.1"),
            },
            attrs: Arc::new(PathAttributes::new(
                AsPath::sequence((0..path_len as u32).map(|i| 65100 + i)),
                ip("172.0.0.1"),
            )),
        };
        f(&mut r);
        r
    }

    #[test]
    fn local_pref_dominates_path_length() {
        let short = route(1, |_| {});
        let long_pref = route(5, |r| Arc::make_mut(&mut r.attrs).local_pref = Some(200));
        assert_eq!(compare(&long_pref, &short), Ordering::Greater);
        assert_eq!(best_route([&short, &long_pref]).unwrap(), &long_pref);
    }

    #[test]
    fn shorter_as_path_wins() {
        let a = route(2, |_| {});
        let b = route(3, |_| {});
        assert_eq!(compare(&a, &b), Ordering::Greater);
    }

    #[test]
    fn origin_breaks_path_tie() {
        let igp = route(2, |r| Arc::make_mut(&mut r.attrs).origin = Origin::Igp);
        let inc = route(2, |r| {
            Arc::make_mut(&mut r.attrs).origin = Origin::Incomplete
        });
        assert_eq!(compare(&igp, &inc), Ordering::Greater);
    }

    #[test]
    fn lower_med_wins() {
        let low = route(2, |r| Arc::make_mut(&mut r.attrs).med = Some(10));
        let high = route(2, |r| Arc::make_mut(&mut r.attrs).med = Some(20));
        assert_eq!(compare(&low, &high), Ordering::Greater);
        // Missing MED behaves as zero.
        let missing = route(2, |_| {});
        assert_eq!(compare(&missing, &low), Ordering::Greater);
    }

    #[test]
    fn router_id_is_late_tiebreak() {
        let a = route(2, |r| r.source.router_id = RouterId(1));
        let b = route(2, |r| r.source.router_id = RouterId(2));
        assert_eq!(compare(&a, &b), Ordering::Greater);
    }

    #[test]
    fn peer_addr_breaks_router_id_tie() {
        let a = route(2, |r| r.source.peer_addr = Ipv4Addr(1));
        let b = route(2, |r| r.source.peer_addr = Ipv4Addr(2));
        assert_eq!(compare(&a, &b), Ordering::Greater);
    }

    #[test]
    fn announcer_is_final_tiebreak() {
        let a = route(2, |r| r.source.participant = ParticipantId(1));
        let b = route(2, |r| r.source.participant = ParticipantId(2));
        assert_eq!(compare(&a, &b), Ordering::Greater);
        assert_eq!(best_route([&b, &a]), Some(&a));
        assert_eq!(best_route([&a, &b]), Some(&a));
    }

    #[test]
    fn best_of_empty_is_none() {
        assert!(best_route(std::iter::empty()).is_none());
    }

    #[test]
    fn identical_routes_compare_equal() {
        let a = route(2, |_| {});
        let b = route(2, |_| {});
        assert_eq!(compare(&a, &b), Ordering::Equal);
    }
}
