//! A beta(k) transfer over real UDP loopback sockets, scheduled on the
//! wall clock by the real-time driver: both endpoints step inside their
//! `[c1, c2]` windows (scaled by a tick duration), packets cross an actual
//! `UdpSocket`, and the receiver's output is checked against the input.
//!
//! Run with: `cargo run --example udp_transfer`
//!
//! For a two-terminal version of the same transfer (separate processes,
//! real ports), see the walkthrough in `docs/NET.md` or run
//! `rstp net help`.

use rstp::core::{ProtocolKind, TimingParams};
use rstp::net::{codec_for, run_receiver, run_transmitter, DriverConfig, TickClock, UdpTransport};
use rstp::sim::harness::random_input;
use std::time::{Duration, Instant};

fn main() {
    let params = TimingParams::from_ticks(1, 2, 8).expect("valid parameters");
    let k = 4u64;
    let kind = ProtocolKind::Beta { k };
    let n = 256;
    let tick = Duration::from_micros(500);
    let input = random_input(n, 42);

    println!(
        "beta(k={k}) over UDP loopback: {n} bits, {params}, tick = {:?}",
        tick
    );

    // Two cross-wired sockets on 127.0.0.1, one per endpoint.
    let codec = codec_for(kind).expect("k fits the wire");
    let (mut t_end, mut r_end) = UdpTransport::loopback_pair(codec).expect("loopback sockets");
    println!(
        "transmitter {} <-> receiver {}",
        t_end.local_addr().expect("addr"),
        r_end.local_addr().expect("addr")
    );

    // A shared epoch a moment in the future, so both drivers take their
    // first step at tick 0 like the simulator's processes.
    let epoch = Instant::now() + Duration::from_millis(5);
    let t_clock = TickClock::with_epoch(epoch, tick);
    let r_clock = TickClock::with_epoch(epoch, tick);
    let cfg = DriverConfig::new(params, tick).with_max_wall(Duration::from_secs(30));

    let t_input = input.clone();
    let transmitter = std::thread::spawn(move || {
        run_transmitter(kind, params, &t_input, &mut t_end, t_clock, &cfg)
    });
    let receiver =
        std::thread::spawn(move || run_receiver(kind, params, n, &mut r_end, r_clock, &cfg));

    let t_report = transmitter.join().expect("join").expect("transmitter run");
    let r_report = receiver.join().expect("join").expect("receiver run");

    assert_eq!(
        r_report.written, input,
        "received sequence differs from input"
    );
    println!(
        "transmitter: {} steps, {} data packets, {} deadline misses, wall {:.3} s",
        t_report.steps,
        t_report.data_sends,
        t_report.deadline_misses,
        t_report.wall_elapsed.as_secs_f64()
    );
    println!(
        "receiver   : {} steps, {} packets received, latency {}",
        r_report.steps, r_report.recvs, r_report.latency
    );
    if let Some(effort) = t_report.effort_ticks(n, tick) {
        println!("wall effort: {effort:.3} ticks/message over a real socket");
    }
    println!("delivered  : Y = X (exact)");
}
