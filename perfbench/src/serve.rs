//! The `serve-rw` workload: closed-loop rounds against an in-process
//! server.
//!
//! One *round* starts a `Server` at its default `ServeConfig` (apart
//! from the object space) on a loopback port, proves it can take a
//! transaction (a HELLO handshake), drives `run_load` as a closed loop
//! (each connection keeps a fixed number of transactions in flight),
//! then drains through `ServerHandle::request_shutdown` and `join`.
//! `run_load`'s own `shutdown_after` is not used: it sends SHUTDOWN as
//! soon as connection 0 finishes its share, which refuses the other
//! connections' remaining work.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use semcluster::serve::{
    read_frame, run_load, LoadConfig, LoadSummary, Request, Response, ServeConfig, ServeReport,
    Server, TxnOp, TxnRequest,
};

use semcluster_faults::splitmix64;

/// Client connections (one thread each).
pub const CONNECTIONS: u32 = 2;
/// Transactions each connection keeps in flight.
pub const IN_FLIGHT: u32 = 32;
/// Logical sessions per connection.
pub const SESSIONS_PER_CONN: u32 = 64;
/// Transactions per session in one round.
pub const TXNS_PER_SESSION: u32 = 20;
/// Operations per transaction.
pub const OPS_PER_TXN: u16 = 4;
/// Percentage of operations that write: with four operations about
/// half the transactions are read-only (0.84^4).
pub const WRITE_PCT: u32 = 16;
/// Object-id space, far larger than the transactions in flight.
pub const OBJECTS: u32 = 1 << 20;

/// What one round measured.
pub struct Round {
    /// `Server::start` until a client's HELLO is answered, seconds.
    pub setup_s: f64,
    /// `run_load`, seconds.
    pub run_s: f64,
    /// `request_shutdown` + `join`, seconds.
    pub teardown_s: f64,
    /// The client's summary.
    pub load: LoadSummary,
    /// Client-observed latencies are in `load`; the server's view here.
    pub server: ServeReport,
}

impl Round {
    /// The whole round, seconds.
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.run_s + self.teardown_s
    }
}

/// Per-request attribution records a traced round's server retains.
pub const TRACE_REQUESTS: usize = 1 << 16;

/// The server configuration of every round; a traced round also
/// retains per-request attribution records.
pub fn serve_config(traced: bool) -> ServeConfig {
    ServeConfig {
        objects: OBJECTS,
        trace_requests: if traced { TRACE_REQUESTS } else { 0 },
        ..ServeConfig::default()
    }
}

/// The load of round `round` of a run seeded with `seed`.
pub fn load_config(addr: String, seed: u64, round: u64) -> LoadConfig {
    LoadConfig {
        addr,
        connections: CONNECTIONS,
        sessions_per_conn: SESSIONS_PER_CONN,
        txns_per_session: TXNS_PER_SESSION,
        ops_per_txn: OPS_PER_TXN,
        write_pct: WRITE_PCT,
        objects: OBJECTS,
        pipeline: IN_FLIGHT,
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(round),
        shutdown_after: false,
        ..LoadConfig::default()
    }
}

/// Open a connection and register one session: once the HELLO is
/// answered the server can take a transaction.
fn handshake(addr: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(&Request::Hello { sessions: 1 }.encode().encode())
        .map_err(|e| format!("send HELLO: {e}"))?;
    let frame = read_frame(&mut stream)
        .map_err(|e| format!("read HELLO reply: {e}"))?
        .ok_or("connection closed before the HELLO reply")?;
    match Response::parse(&frame) {
        Ok(Response::HelloOk { .. }) => {}
        other => return Err(format!("unexpected HELLO reply: {other:?}")),
    }
    let _ = stream.write_all(&Request::Bye.encode().encode());
    let _ = read_frame(&mut stream);
    Ok(())
}

/// Run one round; a failure to start, load or drain is an `Err`.
pub fn round(seed: u64, index: u64, traced: bool) -> Result<Round, String> {
    let cfg = serve_config(traced);
    let tick_us = 1_000 * cfg.tick_ms.max(1);
    let t0 = Instant::now();
    let handle = Server::start(cfg, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = handle.addr().to_string();
    let ready = handshake(&addr);
    let setup_s = t0.elapsed().as_secs_f64();
    let load = ready.and_then(|()| {
        let t = Instant::now();
        run_load(&load_config(addr, seed, index))
            .map(|load| (load, t.elapsed().as_secs_f64()))
            .map_err(|e| format!("run_load: {e}"))
    });
    // The drain waits out the server's periodic ticks, so its length
    // depends on when shutdown arrives within a tick. Rounds of one run
    // last about the same time and would all hit one phase; an untimed
    // pause drawn from the seed spreads them over a whole tick.
    std::thread::sleep(Duration::from_micros(
        splitmix64(seed ^ index.rotate_left(32)) % tick_us,
    ));
    let t2 = Instant::now();
    handle.request_shutdown();
    let server = handle.join().map_err(|e| format!("drain: {e}"));
    let teardown_s = t2.elapsed().as_secs_f64();
    let (load, run_s) = load?;
    Ok(Round {
        setup_s,
        run_s,
        teardown_s,
        load,
        server: server?,
    })
}

/// Mean of one attribution span per acknowledged request, in ms.
pub fn span_mean_ms(server: &ServeReport, span: &str) -> f64 {
    server
        .stats
        .latency(span)
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.sum_us as f64 / h.count as f64 / 1e3)
}

/// Microseconds to encode and decode the workload's TXN frame once,
/// averaged over enough repetitions to last a few tenths of a second.
pub fn frame_codec_us() -> f64 {
    let txn = Request::Txn(TxnRequest {
        session: 1,
        client_txn: 42,
        deadline_ms: 2_000,
        ops: (0..OPS_PER_TXN)
            .map(|k| TxnOp {
                write: k == 0,
                object: 1_000 + u32::from(k),
            })
            .collect(),
    });
    let reps = 400_000u32;
    let t = Instant::now();
    let mut bytes = 0usize;
    for _ in 0..reps {
        let wire = std::hint::black_box(&txn).encode().encode();
        bytes += wire.len();
        let mut cursor = std::io::Cursor::new(wire);
        let frame = read_frame(&mut cursor)
            .ok()
            .flatten()
            .expect("frame decodes");
        let back = Request::parse(&frame).expect("request decodes");
        std::hint::black_box(back);
    }
    std::hint::black_box(bytes);
    t.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
}
