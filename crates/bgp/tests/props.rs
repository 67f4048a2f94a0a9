//! Property-based tests for the BGP substrate.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use sdx_bgp::attrs::{AsPath, AsPathSegment, Community, Origin, PathAttributes};
use sdx_bgp::decision;
use sdx_bgp::msg::{BgpMessage, NotificationCode, OpenMessage, UpdateMessage};
use sdx_bgp::rib::{LocRib, Route, RouteSource};
use sdx_bgp::session::{Session, SessionEvent, SessionState};
use sdx_bgp::wire;
use sdx_net::{Asn, Ipv4Addr, ParticipantId, Prefix, RouterId};

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(Ipv4Addr(a), l))
}

fn arb_aspath() -> impl Strategy<Value = AsPath> {
    proptest::collection::vec(
        prop_oneof![
            proptest::collection::vec(1u32..1_000_000, 1..6)
                .prop_map(|v| AsPathSegment::Sequence(v.into_iter().map(Asn).collect())),
            proptest::collection::vec(1u32..1_000_000, 1..4)
                .prop_map(|v| AsPathSegment::Set(v.into_iter().map(Asn).collect())),
        ],
        0..4,
    )
    .prop_map(|segments| AsPath { segments })
}

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        arb_aspath(),
        any::<u32>(),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        proptest::collection::vec((any::<u16>(), any::<u16>()), 0..4),
        0u8..3,
    )
        .prop_map(|(path, nh, med, lp, comms, origin)| {
            let mut a = PathAttributes::new(path, Ipv4Addr(nh));
            a.med = med;
            a.local_pref = lp;
            a.communities = comms.into_iter().map(|(x, y)| Community(x, y)).collect();
            a.origin = Origin::from_value(origin).unwrap();
            a
        })
}

fn arb_update() -> impl Strategy<Value = UpdateMessage> {
    (
        proptest::collection::vec(arb_prefix(), 0..8),
        proptest::option::of(arb_attrs()),
        proptest::collection::vec(arb_prefix(), 0..8),
    )
        .prop_map(|(withdrawn, attrs, mut nlri)| {
            // NLRI requires attributes (the decoder enforces this).
            if attrs.is_none() {
                nlri.clear();
            }
            UpdateMessage {
                withdrawn,
                attrs,
                nlri,
            }
        })
}

fn arb_message() -> impl Strategy<Value = BgpMessage> {
    prop_oneof![
        Just(BgpMessage::Keepalive),
        (1u32..65000, any::<u16>(), any::<u32>()).prop_map(|(asn, hold, rid)| {
            BgpMessage::Open(OpenMessage {
                version: 4,
                asn: Asn(asn),
                hold_time: hold,
                router_id: RouterId(rid),
            })
        }),
        (1u8..=6, any::<u8>()).prop_map(|(c, s)| BgpMessage::Notification {
            code: NotificationCode::from_value(c).unwrap(),
            subcode: s,
        }),
        arb_update().prop_map(BgpMessage::Update),
    ]
}

fn arb_session_event() -> impl Strategy<Value = SessionEvent> {
    prop_oneof![
        Just(SessionEvent::ManualStart),
        Just(SessionEvent::Connected),
        Just(SessionEvent::HoldTimerExpired),
        Just(SessionEvent::ManualStop),
        arb_message().prop_map(SessionEvent::Received),
    ]
}

fn arb_route() -> impl Strategy<Value = Route> {
    (arb_attrs(), 0u32..16, any::<u32>(), any::<u32>()).prop_map(|(attrs, p, rid, addr)| Route {
        source: RouteSource {
            participant: ParticipantId(p),
            asn: Asn(65000 + p),
            router_id: RouterId(rid),
            peer_addr: Ipv4Addr(addr),
        },
        attrs: Arc::new(attrs),
    })
}

/// Attributes drawn from a few values each, so that routes often tie on
/// every attribute and the source tiebreaks decide.
fn arb_tied_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        0u32..3,
        proptest::option::of(0u32..2),
        proptest::option::of(99u32..101),
        0u8..3,
    )
        .prop_map(|(len, med, lp, origin)| {
            let mut a = PathAttributes::new(AsPath::sequence(100..100 + len), Ipv4Addr(1));
            a.med = med;
            a.local_pref = lp;
            a.origin = Origin::from_value(origin).unwrap();
            a
        })
}

/// The decision process run afresh over `candidates`: the reference
/// the Loc-RIB's stored ranking is held to.
fn best_route<'a>(candidates: impl IntoIterator<Item = &'a Route>) -> Option<&'a Route> {
    candidates
        .into_iter()
        .max_by(|a, b| decision::compare(a, b))
}

proptest! {
    /// Wire encode → decode is the identity on every message.
    #[test]
    fn wire_roundtrip(msg in arb_message()) {
        let mut buf = wire::encode(&msg);
        let got = wire::decode(&mut buf).expect("decode");
        prop_assert_eq!(got, msg);
        prop_assert!(buf.is_empty());
    }

    /// Any truncation of a valid frame is rejected, never mis-parsed.
    #[test]
    fn wire_truncation_always_rejected(msg in arb_message(), frac in 0.0f64..1.0) {
        let buf = wire::encode(&msg);
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        let mut short = buf.slice(..cut);
        prop_assert_eq!(wire::decode(&mut short), Err(wire::WireError::Truncated));
    }

    /// Random bytes never panic the decoder.
    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut buf = bytes::Bytes::from(bytes);
        let _ = wire::decode(&mut buf);
    }

    /// The decision process is antisymmetric and transitive (a total
    /// preorder refined to a total order by the tiebreaks).
    #[test]
    fn decision_is_consistent(a in arb_route(), b in arb_route(), c in arb_route()) {
        use core::cmp::Ordering;
        prop_assert_eq!(decision::compare(&a, &b), decision::compare(&b, &a).reverse());
        if decision::compare(&a, &b) == Ordering::Greater
            && decision::compare(&b, &c) == Ordering::Greater
        {
            prop_assert_eq!(decision::compare(&a, &c), Ordering::Greater);
        }
    }

    /// Best-route selection is order-independent.
    #[test]
    fn best_route_order_independent(routes in proptest::collection::vec(arb_route(), 1..8)) {
        let best1 = best_route(routes.iter()).cloned();
        let mut rev = routes.clone();
        rev.reverse();
        let best2 = best_route(rev.iter()).cloned();
        // The winner may be a tie-equal route; compare by decision equality.
        let (b1, b2) = (best1.unwrap(), best2.unwrap());
        prop_assert_eq!(decision::compare(&b1, &b2), core::cmp::Ordering::Equal);
    }

    /// After any sequence of upserts and removes over two prefixes, each
    /// prefix's candidates are strictly ranked by the decision process,
    /// best first, and the same routes announced in another order leave
    /// the very same slices. Router ids and peer addresses come from a
    /// pool of three, so the announcer tiebreak is exercised.
    #[test]
    fn loc_rib_keeps_candidates_ranked(
        ops in proptest::collection::vec(
            (0usize..2, 0u32..6, 0u32..3, proptest::option::of(arb_tied_attrs())),
            0..32,
        ),
    ) {
        use core::cmp::Ordering;
        let prefixes = [
            Prefix::new(Ipv4Addr(0x0a00_0000), 8),
            Prefix::new(Ipv4Addr(0x0b00_0000), 8),
        ];
        let route = |p: u32, id: u32, attrs: PathAttributes| Route {
            source: RouteSource {
                participant: ParticipantId(p),
                asn: Asn(65000 + p),
                router_id: RouterId(id),
                peer_addr: Ipv4Addr(id),
            },
            attrs: Arc::new(attrs),
        };
        let mut rib = LocRib::new();
        // What each (prefix, announcer) holds after the sequence.
        let mut held: BTreeMap<(usize, u32), Route> = BTreeMap::new();
        for (i, p, id, attrs) in ops {
            match attrs {
                Some(attrs) => {
                    let r = route(p, id, attrs);
                    held.insert((i, p), r.clone());
                    rib.upsert(prefixes[i], r);
                }
                None => {
                    held.remove(&(i, p));
                    rib.remove(prefixes[i], ParticipantId(p));
                }
            }
            for prefix in prefixes {
                let ranked = rib.candidates(prefix);
                for pair in ranked.windows(2) {
                    prop_assert_eq!(decision::compare(&pair[0], &pair[1]), Ordering::Greater);
                }
                prop_assert_eq!(ranked.first(), best_route(ranked));
            }
        }
        for reversed in [false, true] {
            let mut again = LocRib::new();
            let arrivals: Vec<_> = match reversed {
                false => held.iter().collect(),
                true => held.iter().rev().collect(),
            };
            for (&(i, _), r) in arrivals {
                again.upsert(prefixes[i], r.clone());
            }
            for prefix in prefixes {
                prop_assert_eq!(again.candidates(prefix), rib.candidates(prefix));
            }
        }
    }

    /// The session FSM never panics and always lands in one of the five
    /// declared states, whatever the event sequence — and its invariants
    /// hold at every step: negotiated hold time and peer parameters exist
    /// only once the OPEN exchange completed, and are gone again in Idle.
    #[test]
    fn session_fsm_total_under_arbitrary_events(
        hold in proptest::num::u16::ANY,
        events in proptest::collection::vec(arb_session_event(), 0..48),
    ) {
        let mut s = Session::new(OpenMessage {
            version: 4,
            asn: Asn(65001),
            hold_time: hold,
            router_id: RouterId(1),
        });
        for ev in events {
            let out = s.handle(ev);
            let state = s.state();
            prop_assert!(matches!(
                state,
                SessionState::Idle
                    | SessionState::Connect
                    | SessionState::OpenSent
                    | SessionState::OpenConfirm
                    | SessionState::Established
            ));
            // A reset must land in Idle with session context cleared.
            if out.reset {
                prop_assert_eq!(state, SessionState::Idle);
            }
            if state == SessionState::Idle {
                prop_assert_eq!(s.negotiated_hold_time(), None);
                prop_assert!(s.peer().is_none());
            }
            // OPEN parameters exist exactly from OpenConfirm onwards.
            let open_done = matches!(
                state,
                SessionState::OpenConfirm | SessionState::Established
            );
            prop_assert_eq!(s.negotiated_hold_time().is_some(), open_done);
            prop_assert_eq!(s.peer().is_some(), open_done);
            // UPDATEs are only ever delivered while Established.
            if !out.updates.is_empty() {
                prop_assert_eq!(state, SessionState::Established);
            }
        }
    }

    /// AS-path prepending increases selection length monotonically and
    /// never changes the origin AS.
    #[test]
    fn prepend_properties(path in arb_aspath(), asn in 1u32..100_000, n in 1usize..4) {
        let pre = path.prepend(Asn(asn), n);
        prop_assert!(pre.selection_len() >= path.selection_len());
        prop_assert_eq!(pre.first_as(), Some(Asn(asn)));
        if path.origin_as().is_some() {
            prop_assert_eq!(pre.origin_as(), path.origin_as());
        }
    }
}
