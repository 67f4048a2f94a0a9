//! `sdxd` — run an SDX daemon on loopback.
//!
//! Binds the BGP, OpenFlow, and telemetry endpoints on ephemeral
//! loopback ports and prints them as one JSON line on stdout, then
//! serves until stdin closes (or a `stop` line arrives). A `reoptimize`
//! line on stdin re-optimizes in dependency-ordered waves, each streamed
//! to every switch behind a barrier; a pass that fails is rolled back
//! whole. On shutdown a final JSON summary line is printed.
//!
//! The exchange is the paper's four-participant topology (AS 65001..
//! 65004, B with two ports), policy-free with an empty RIB: routes
//! arrive the real way, over BGP sessions.
//!
//! ```text
//! $ sdxd
//! {"bgp":"127.0.0.1:41001","openflow":"127.0.0.1:41002","telemetry":"127.0.0.1:41003"}
//! ```

use std::io::BufRead;

use sdx_bgp::ExportPolicy;
use sdx_core::{ParticipantConfig, SdxController};
use sdx_runtime::{daemon, DaemonConfig};

fn main() {
    let mut cfg = DaemonConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--hold" => {
                cfg.hold_time = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--hold <seconds>");
            }
            "--help" | "-h" => {
                eprintln!("usage: sdxd [--hold <s>]");
                eprintln!(
                    "stdin: `reoptimize` re-optimizes in ordered waves, all or nothing; \
                     `stop`/EOF shuts down"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let mut ctl = SdxController::new();
    for (id, asn, ports) in [(1, 65001, 1), (2, 65002, 2), (3, 65003, 1), (4, 65004, 1)] {
        ctl.add_participant(
            ParticipantConfig::new(id, asn, ports),
            ExportPolicy::allow_all(),
        );
    }

    let handle = daemon::start(ctl, cfg).expect("daemon start");
    println!(
        "{{\"bgp\":\"{}\",\"openflow\":\"{}\",\"telemetry\":\"{}\"}}",
        handle.bgp_addr, handle.openflow_addr, handle.telemetry_addr
    );

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "stop" => break,
            "reoptimize" => handle.reoptimize(),
            "" => {}
            other => eprintln!("unknown command: {other}"),
        }
    }

    let report = handle.stop();
    println!(
        "{{\"updates\":{},\"compiles\":{},\"coalesced_bursts\":{},\"batches_streamed\":{}}}",
        report.updates, report.compiles, report.coalesced_bursts, report.batches_streamed
    );
}
