//! Redirection through middleboxes, with BGP-attribute grouping (§2, §3.2).
//!
//! The paper's example: *"an AS could specify that all traffic sent by
//! YouTube servers traverses a video-transcoding middlebox hosted at a
//! particular port (E1) at the SDX"*, selecting YouTube's prefixes with an
//! AS-path regular expression over the RIB:
//!
//! ```text
//! YouTubePrefixes = RIB.filter('as_path', '.*43515$')
//! match(srcip = {YouTubePrefixes}) >> fwd(E1)
//! ```
//!
//! Run: `cargo run --release --example middlebox_redirection`

use sdx::bgp::aspath_re::AsPathRegex;
use sdx::bgp::route_server::ExportPolicy;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::net::{ip, prefix, Packet, ParticipantId, PortId};
use sdx::policy::{Policy, Pred};

fn main() {
    let pid = ParticipantId;
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1); // the AS wanting transcoding
    let b = ParticipantConfig::new(2, 65002, 1); // transit carrying YouTube
    let e = ParticipantConfig::new(5, 65005, 1); // hosts the middlebox at E1
    ctl.add_participant(a.clone(), ExportPolicy::allow_all());
    ctl.add_participant(b.clone(), ExportPolicy::allow_all());
    ctl.add_participant(e.clone(), ExportPolicy::allow_all());

    // B carries a YouTube prefix (origin AS 43515) and an unrelated one.
    ctl.rs.process_update(
        pid(2),
        &b.announce([prefix("208.65.152.0/22")], &[65002, 3356, 43515]),
    );
    ctl.rs.process_update(
        pid(2),
        &b.announce([prefix("151.101.0.0/16")], &[65002, 54113]),
    );
    // A announces its own eyeball prefix so return traffic routes.
    ctl.rs
        .process_update(pid(1), &a.announce([prefix("99.0.0.0/8")], &[65001]));

    // ---- RIB.filter('as_path', '.*43515$') --------------------------------
    let re = AsPathRegex::compile(".*43515$").expect("pattern compiles");
    let youtube_prefixes = ctl.rs.filter_as_path(pid(1), &re);
    println!("RIB.filter('as_path', '.*43515$') = {youtube_prefixes:?}");

    // ---- match(srcip = {YouTubePrefixes}) >> fwd(E1) ----------------------
    // A's *inbound* policy: video traffic arriving for A's eyeballs is
    // steered to the transcoding middlebox at port E1 instead of A's own
    // router. (The middlebox re-injects transcoded traffic itself —
    // "service chaining", §8.)
    let policy = Policy::filter(Pred::src_in(youtube_prefixes.iter().copied()))
        >> Policy::fwd(PortId::Phys(pid(5), 1));
    ctl.set_inbound(pid(1), Some(policy));
    let fabric = ctl.deploy().expect("deploy");

    // Transit B carries YouTube-sourced video traffic toward A's eyeball
    // prefix: it detours through the middlebox port E1.
    let from_youtube = fabric.send(
        PortId::Phys(pid(2), 1),
        Packet::udp(ip("208.65.153.9"), ip("99.0.0.1"), 1935, 40000),
    );
    println!(
        "video flow from 208.65.153.9 -> {}",
        from_youtube
            .first()
            .map(|d| d.loc.to_string())
            .unwrap_or_else(|| "dropped".into())
    );
    assert_eq!(
        from_youtube[0].loc,
        PortId::Phys(pid(5), 1),
        "via middlebox E1"
    );

    // Unrelated traffic toward A is delivered to A's router untouched.
    let other = fabric.send(
        PortId::Phys(pid(2), 1),
        Packet::udp(ip("151.101.1.1"), ip("99.0.0.1"), 443, 40000),
    );
    println!(
        "non-YouTube flow from 151.101.1.1 -> {}",
        other
            .first()
            .map(|d| d.loc.to_string())
            .unwrap_or_else(|| "dropped".into())
    );
    assert_eq!(other[0].loc, PortId::Phys(pid(1), 1), "direct to A");
}
