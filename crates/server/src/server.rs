//! The accept loop and per-connection protocol drivers.
//!
//! Threading model (mirrors the trainer's "spawn once, live forever"
//! idiom): one accept thread owns the [`TcpListener`]; each accepted
//! connection gets a reader thread that decodes frames, feeds the
//! shared [`ServeRuntime`] and writes responses back in request order.
//! The runtime's own worker pool does the actual query work, so a slow
//! connection never blocks another connection's queries — only its own
//! socket.
//!
//! Shutdown is **drain-then-stop**: [`Server::shutdown`] (or a client's
//! `Shutdown` admin frame) flips the stop flag, wakes the accept loop
//! with a loopback connect, and closes the **read** side of every live
//! connection. No new connections or requests are accepted, every
//! request already received is still answered (write sides stay open
//! until the reader threads flush), an idle client cannot hold the
//! drain hostage (blocked reads see EOF; blocked writes to a stalled
//! consumer fail after [`ServerOptions::write_timeout`]), and once
//! every reader thread has exited the runtime is shut down and its
//! final [`ServeDiagnostics`] — including the transport's
//! connection/frame counters — are returned instead of discarded.

use cpd_serve::wire::{
    read_request_versioned, write_response_versioned, RequestFrame, ResponseFrame, WireError,
    WIRE_VERSION,
};
use cpd_serve::{BatchItem, NetStats, QueryResponse, ServeDiagnostics, ServeRuntime};
use cpd_telemetry::{ActiveTrace, Counter, KeepReason};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Most pipelined `Query` frames folded into one `submit_batch`
    /// call (further buffered frames simply form the next batch).
    pub max_batch: usize,
    /// Per-socket write timeout. A client that stops consuming
    /// responses eventually fills the TCP send buffer and would
    /// otherwise block its reader thread in `flush()` forever —
    /// closing its read side (the drain) cannot unblock a write, so
    /// without this cap one stalled client could hang
    /// [`Server::shutdown`]. `None` disables the cap (trusted
    /// clients only).
    pub write_timeout: Option<std::time::Duration>,
    /// Per-socket read timeout. A timeout **between** frames is an
    /// idle (healthy) client and the connection keeps waiting; a
    /// timeout **mid-frame** is a half-dead or slow-loris peer — the
    /// stream can no longer be trusted and the connection is reaped
    /// (counted in `cpd_server_read_timeouts_total`) instead of
    /// pinning its reader thread forever. `None` disables the cap
    /// (trusted clients only).
    pub read_timeout: Option<std::time::Duration>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            max_batch: 128,
            write_timeout: Some(std::time::Duration::from_secs(30)),
            read_timeout: Some(std::time::Duration::from_secs(30)),
        }
    }
}

/// Where to connect to wake a listener blocked in `accept()` out of
/// its loop: the bound address itself — unless it is a wildcard bind
/// (`0.0.0.0` / `::`), which is not connectable on every platform, in
/// which case the loopback of the same family (with the bound port)
/// is used instead.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut wake = bound;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake.ip() {
            std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    wake
}

/// State shared by the accept loop, every connection thread and the
/// [`Server`] handle.
struct Shared {
    runtime: ServeRuntime,
    stop: AtomicBool,
    /// The bound address, kept for the self-connect that wakes the
    /// accept loop out of `accept()` at shutdown.
    addr: SocketAddr,
    max_batch: usize,
    write_timeout: Option<std::time::Duration>,
    read_timeout: Option<std::time::Duration>,
    /// Monotonic connection ids for the `streams` drain registry (the
    /// count itself lives in the `connections` registry counter).
    next_conn_id: AtomicU64,
    /// Transport counters, registered in the runtime's
    /// [`Registry`](cpd_serve::Registry) so they show up in the
    /// Prometheus scrape alongside the query-class histograms.
    connections: Counter,
    frames_in: Counter,
    frames_out: Counter,
    /// Connections reaped because a read deadline expired mid-frame
    /// (half-dead peers, slow-loris attempts).
    read_timeouts: Counter,
    /// Reader-thread handles, pushed by the accept loop and joined at
    /// shutdown (the drain).
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// One clone of each **live** connection's socket, keyed by
    /// connection id, so shutdown can close the read sides: every
    /// request already received is still answered (the write sides
    /// stay open until the reader threads flush and exit), but an idle
    /// client can no longer hold the drain hostage. A connection
    /// removes its entry as it exits — the clone would otherwise hold
    /// the fd open and the peer would never see the close.
    streams: Mutex<Vec<(u64, TcpStream)>>,
}

impl Shared {
    fn net(&self) -> NetStats {
        NetStats {
            connections: self.connections.get(),
            frames_in: self.frames_in.get(),
            frames_out: self.frames_out.get(),
        }
    }

    /// Flip the stop flag, poke the accept loop awake and start the
    /// connection drain.
    fn trigger_stop(&self) {
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks in `accept()`; a throwaway connection
        // makes it return so it can observe the flag. `wake_addr`
        // redirects wildcard binds (0.0.0.0 / ::) to the same-family
        // loopback, which is what is actually connectable.
        let _ = TcpStream::connect(wake_addr(self.addr));
        // Close every connection's read side: blocked readers see EOF
        // and exit after answering what they already received.
        let streams = match self.streams.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        for (_, stream) in streams.iter() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    }

    /// Drop a finished connection's socket clone (so the fd closes as
    /// soon as its reader thread is done with it).
    fn deregister_stream(&self, conn_id: u64) {
        let mut streams = match self.streams.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        streams.retain(|(id, _)| *id != conn_id);
    }
}

/// A running CPD query server: the accept loop plus the serving
/// runtime behind it.
///
/// Dropping the handle without calling [`Server::shutdown`] or
/// [`Server::join`] stops the accept loop but does **not** block on the
/// drain — the runtime tears down when its last connection thread
/// exits. Prefer the explicit calls; they return the final
/// diagnostics.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port) and start accepting connections over `runtime`.
    pub fn start(
        addr: impl ToSocketAddrs,
        runtime: ServeRuntime,
        options: ServerOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = runtime.registry();
        let connections = registry.counter(
            "cpd_server_connections_total",
            "TCP connections accepted since the server started.",
            &[],
        );
        let frames_in = registry.counter(
            "cpd_server_frames_in_total",
            "Request frames decoded off client sockets.",
            &[],
        );
        let frames_out = registry.counter(
            "cpd_server_frames_out_total",
            "Response frames written back to clients.",
            &[],
        );
        let read_timeouts = registry.counter(
            "cpd_server_read_timeouts_total",
            "Connections reaped because a read deadline expired mid-frame.",
            &[],
        );
        let shared = Arc::new(Shared {
            runtime,
            stop: AtomicBool::new(false),
            addr,
            max_batch: options.max_batch.max(1),
            write_timeout: options.write_timeout,
            read_timeout: options.read_timeout,
            next_conn_id: AtomicU64::new(0),
            connections,
            frames_in,
            frames_out,
            read_timeouts,
            conns: Mutex::new(Vec::new()),
            streams: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new().name("cpd-accept".into());
        let accept = accept.spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.stop.load(Ordering::Acquire) {
                    break; // Includes the shutdown wake-up connect.
                }
                let Ok(stream) = stream else { continue };
                // Without a registered clone the drain could never
                // force-close this connection's read side — refuse to
                // serve it rather than risk a hostage shutdown.
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                let conn_id = accept_shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                accept_shared.connections.inc();
                match accept_shared.streams.lock() {
                    Ok(mut streams) => streams.push((conn_id, clone)),
                    Err(poisoned) => poisoned.into_inner().push((conn_id, clone)),
                }
                // A `trigger_stop` racing this accept may have swept
                // `streams` before the push above; re-checking the flag
                // after registering (the mutex orders the two) closes
                // the gap where a late connection would dodge the drain
                // and hang the shutdown join.
                if accept_shared.stop.load(Ordering::Acquire) {
                    let _ = stream.shutdown(std::net::Shutdown::Read);
                }
                let conn_shared = Arc::clone(&accept_shared);
                let reader = std::thread::Builder::new().name("cpd-conn".into());
                let spawned = reader.spawn(move || {
                    serve_connection(&conn_shared, stream);
                    conn_shared.deregister_stream(conn_id);
                });
                // A connection no thread could take is closed unserved:
                // the failed spawn dropped the stream, and this drops
                // its registered clone.
                let Ok(handle) = spawned else {
                    accept_shared.deregister_stream(conn_id);
                    continue;
                };
                let mut conns = match accept_shared.conns.lock() {
                    Ok(conns) => conns,
                    // Nothing panics while holding this lock; recover
                    // rather than propagate.
                    Err(poisoned) => poisoned.into_inner(),
                };
                // Reap finished connections as new ones arrive, so a
                // long-lived server's handle list is bounded by *live*
                // connections, not lifetime ones (dropping a finished
                // handle just detaches an already-exited thread).
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
        })?;
        Ok(Self {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (port resolved, for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The serving runtime behind the listener — e.g. for an
    /// in-process [`reload`](ServeRuntime::reload) from the process
    /// that owns the server, without a wire round trip.
    pub fn runtime(&self) -> &ServeRuntime {
        &self.shared.runtime
    }

    /// Live counters: the runtime's query/cache stats plus this
    /// transport's connection and frame counters.
    pub fn diagnostics(&self) -> ServeDiagnostics {
        let mut d = self.shared.runtime.diagnostics();
        d.net = self.shared.net();
        d
    }

    /// Graceful drain-then-shutdown: stop accepting, answer everything
    /// already received, close the connections, join every thread,
    /// shut the runtime down, and return the final diagnostics.
    pub fn shutdown(mut self) -> ServeDiagnostics {
        self.shared.trigger_stop();
        self.finish()
    }

    /// Wait for a client's `Shutdown` admin frame to trigger the stop,
    /// then drain exactly like [`Server::shutdown`].
    pub fn join(mut self) -> ServeDiagnostics {
        self.finish()
    }

    fn finish(&mut self) -> ServeDiagnostics {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop has exited, so no new handles can appear.
        let handles = match self.shared.conns.lock() {
            Ok(mut conns) => std::mem::take(&mut *conns),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for h in handles {
            let _ = h.join();
        }
        // Every frame-producing thread has been joined, so this
        // snapshot is the final account; the runtime's own worker pool
        // is joined when the last `Arc<Shared>` drops (here, as the
        // caller consumed `self`).
        let mut d = self.shared.runtime.diagnostics();
        d.net = self.shared.net();
        d
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shared.trigger_stop();
        }
    }
}

/// One decoded frame plus the instants that bracket its socket read —
/// the trace's `socket_read` span bounds, and the anchor for any wire
/// deadline budget the frame carries (the budget counts from when the
/// server *received* the request, not from whenever a worker gets to
/// it). `read_start` is when the server began waiting on the socket,
/// so the first frame of a quiet connection includes the peer's think
/// time; pipelined frames are already buffered and read back-to-back.
struct ReadFrame {
    frame: RequestFrame,
    version: u8,
    read_start: Instant,
    received: Instant,
}

/// Outcome of one read pass over a connection's socket.
struct ReadBatch {
    /// Decoded frames, in arrival order.
    frames: Vec<ReadFrame>,
    /// A decode failure hit after `frames` (answered, then the
    /// connection closes — framing can no longer be trusted).
    error: Option<WireError>,
    /// The peer closed cleanly after `frames`.
    eof: bool,
    /// The read deadline expired **between** frames: the peer is just
    /// idle, the stream is still synchronized, keep the connection.
    idle: bool,
}

/// Read one blocking frame, then drain every further frame the socket
/// has already buffered (bounded by `max_batch`) — this is what turns a
/// pipelining client's stream into one `submit_batch` call.
fn read_pipelined(reader: &mut BufReader<TcpStream>, max_batch: usize) -> ReadBatch {
    let mut out = ReadBatch {
        frames: Vec::new(),
        error: None,
        eof: false,
        idle: false,
    };
    let read_start = Instant::now();
    match read_request_versioned(reader) {
        Ok(Some((frame, version))) => out.frames.push(ReadFrame {
            frame,
            version,
            read_start,
            received: Instant::now(),
        }),
        Ok(None) => {
            out.eof = true;
            return out;
        }
        Err(WireError::Timeout { mid_frame: false }) => {
            out.idle = true;
            return out;
        }
        Err(e) => {
            out.error = Some(e);
            return out;
        }
    }
    // `buffer()` only reports bytes already pulled off the socket, so
    // these extra reads never block the batch behind a slow sender
    // (except the benign case of a frame split across the buffer
    // boundary, whose tail is already in flight).
    while !reader.buffer().is_empty() && out.frames.len() < max_batch {
        let read_start = Instant::now();
        match read_request_versioned(reader) {
            Ok(Some((frame, version))) => out.frames.push(ReadFrame {
                frame,
                version,
                read_start,
                received: Instant::now(),
            }),
            Ok(None) => {
                out.eof = true;
                break;
            }
            Err(e) => {
                out.error = Some(e);
                break;
            }
        }
    }
    out
}

/// Drive one connection until its client disconnects, the framing
/// breaks, or a shutdown is requested. An acknowledged `Shutdown` frame
/// triggers the stop **whatever exit path follows it** — a client that
/// sends `Shutdown` and slams its socket without reading the ack still
/// gets its drain.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    if drive_connection(shared, stream) {
        shared.trigger_stop();
    }
}

/// The connection protocol loop; returns whether a `Shutdown` admin
/// frame was received.
fn drive_connection(shared: &Shared, stream: TcpStream) -> bool {
    let _ = stream.set_nodelay(true);
    // A stalled consumer fails its writes after this cap instead of
    // pinning the reader thread (and with it the shutdown join).
    let _ = stream.set_write_timeout(shared.write_timeout);
    // A peer that stops sending mid-frame fails its read after this
    // cap (idle between-frame timeouts are tolerated below).
    let _ = stream.set_read_timeout(shared.read_timeout);
    let mut shutdown_requested = false;
    let Ok(read_half) = stream.try_clone() else {
        return shutdown_requested;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    // The server answers in the version its peer speaks: v3 clients
    // get v3 frames (no trace fields), v4 clients get the mirror.
    // Tracked per frame, applied to the responses that follow it.
    let mut peer_version = WIRE_VERSION;
    let mut respond = |writer: &mut BufWriter<TcpStream>, frame: &ResponseFrame, version: u8| {
        shared.frames_out.inc();
        write_response_versioned(writer, frame, version)
    };

    loop {
        let batch = read_pipelined(&mut reader, shared.max_batch);
        shared.frames_in.add(batch.frames.len() as u64);

        // Answer the decoded frames in order, folding consecutive
        // Query frames into single runtime batches.
        let mut queries: Vec<BatchItem> = Vec::new();
        for read in batch.frames {
            peer_version = read.version;
            match read.frame {
                RequestFrame::Query {
                    request,
                    deadline_ms,
                    trace,
                } => {
                    // Anchor the client's remaining-budget at decode
                    // time; the runtime drops the job at dequeue if
                    // the moment has passed.
                    let deadline = deadline_ms
                        .map(|ms| read.received + std::time::Duration::from_millis(u64::from(ms)));
                    let tracer = shared.runtime.tracer();
                    // Three trace postures: adopt a sampled wire
                    // context (span tree shared with the client),
                    // carry an unsampled context's id for tail
                    // forensics, or — for untraced clients — let the
                    // server head-sample at its own edge.
                    let (active, trace_id) = match &trace {
                        Some(ctx) if ctx.sampled => {
                            let t = tracer
                                .adopt(ctx, read.read_start)
                                .expect("sampled context always adopts");
                            t.record_between(
                                "socket_read",
                                ctx.parent_span,
                                read.read_start,
                                read.received,
                            );
                            (Some((t, ctx.parent_span)), None)
                        }
                        Some(ctx) => (None, Some(ctx.trace_id)),
                        None => match tracer.mint(read.read_start) {
                            Some(t) => {
                                t.record_between("socket_read", 0, read.read_start, read.received);
                                (Some((t, 0)), None)
                            }
                            None => (None, None),
                        },
                    };
                    queries.push(BatchItem {
                        request,
                        deadline,
                        trace: active,
                        trace_id,
                    });
                    continue;
                }
                admin => {
                    if !flush_queries(
                        shared,
                        &mut queries,
                        &mut writer,
                        peer_version,
                        &mut respond,
                    ) {
                        return shutdown_requested;
                    }
                    let reply = match admin {
                        RequestFrame::Reload { path } => match shared.runtime.reload(&path) {
                            Ok(generation) => ResponseFrame::Reloaded { generation },
                            Err(e) => ResponseFrame::Error(e),
                        },
                        RequestFrame::Stats => {
                            let mut d = shared.runtime.diagnostics();
                            d.net = shared.net();
                            ResponseFrame::Stats(Box::new(d))
                        }
                        // Metrics, Health and Traces are answered
                        // inline on the reader thread, never queued
                        // behind the query pool — a scrape, liveness
                        // probe or forensic dump must work even when
                        // every worker is busy.
                        RequestFrame::Metrics => {
                            ResponseFrame::Metrics(shared.runtime.prometheus_text())
                        }
                        RequestFrame::Health => ResponseFrame::Health(shared.runtime.health()),
                        RequestFrame::Traces => ResponseFrame::Traces(
                            shared
                                .runtime
                                .tracer()
                                .store()
                                .snapshot()
                                .iter()
                                .map(|t| (**t).clone())
                                .collect(),
                        ),
                        RequestFrame::Shutdown => {
                            shutdown_requested = true;
                            ResponseFrame::ShuttingDown
                        }
                        RequestFrame::Query { .. } => unreachable!("handled above"),
                    };
                    if respond(&mut writer, &reply, peer_version).is_err() {
                        return shutdown_requested;
                    }
                    // No early break on Shutdown: frames pipelined
                    // behind it in the same read are still answered —
                    // the drain contract is "everything received gets
                    // a response".
                }
            }
        }
        if !flush_queries(
            shared,
            &mut queries,
            &mut writer,
            peer_version,
            &mut respond,
        ) {
            return shutdown_requested;
        }

        if let Some(e) = batch.error {
            // A mid-frame read timeout is a half-dead peer being
            // reaped — count it so operators can tell reaps from
            // protocol violations.
            if matches!(e, WireError::Timeout { .. }) {
                shared.read_timeouts.inc();
            }
            // Best-effort: tell the peer why before closing a stream
            // whose framing can no longer be trusted.
            let _ = respond(
                &mut writer,
                &ResponseFrame::Error(e.to_string()),
                peer_version,
            );
            let _ = writer.flush();
            return shutdown_requested;
        }
        if writer.flush().is_err() || shutdown_requested || batch.eof {
            return shutdown_requested;
        }
        // An idle between-frames timeout keeps the connection — unless
        // a drain is in progress, in which case the reader exits now
        // rather than waiting out another timeout window.
        if batch.idle && shared.stop.load(Ordering::Acquire) {
            return shutdown_requested;
        }
    }
}

/// Submit any accumulated queries as one batch and write the answers in
/// request order, recording `encode_write` spans into sampled traces
/// and completing them at the edge (the keep reason derived from the
/// answer: shed → [`KeepReason::Shed`], error → [`KeepReason::Error`],
/// anything else → [`KeepReason::Sampled`], which the tracer upgrades
/// to `Slow` past its threshold). Returns `false` if the socket died.
fn flush_queries(
    shared: &Shared,
    queries: &mut Vec<BatchItem>,
    writer: &mut BufWriter<TcpStream>,
    peer_version: u8,
    respond: &mut impl FnMut(&mut BufWriter<TcpStream>, &ResponseFrame, u8) -> std::io::Result<()>,
) -> bool {
    if queries.is_empty() {
        return true;
    }
    let items = std::mem::take(queries);
    // Keep an edge-side clone of each sampled trace (the runtime
    // consumes the `BatchItem` copy), plus the trace id every response
    // mirrors back — the live trace's own id wins over a carried one.
    type Edge = (Option<(ActiveTrace, u64)>, Option<u64>);
    let edges: Vec<Edge> = items
        .iter()
        .map(|item| {
            let id = item
                .trace
                .as_ref()
                .map(|(t, _)| t.trace_id())
                .or(item.trace_id);
            (item.trace.clone(), id)
        })
        .collect();
    let responses = shared.runtime.submit_batch_items(items);
    let mut alive = true;
    for (response, (edge, trace_id)) in responses.into_iter().zip(edges) {
        let keep = match &response {
            QueryResponse::Overloaded { .. } => KeepReason::Shed,
            QueryResponse::Error(_) => KeepReason::Error,
            _ => KeepReason::Sampled,
        };
        let frame = ResponseFrame::Response { response, trace_id };
        if alive {
            let write_start = edge.as_ref().map(|_| Instant::now());
            alive = respond(writer, &frame, peer_version).is_ok();
            if let (Some((t, parent)), Some(start)) = (&edge, write_start) {
                t.record_between("encode_write", *parent, start, Instant::now());
            }
        }
        // Complete sampled traces even when the socket died mid-batch —
        // the forensics are exactly what explains the dead socket.
        if let Some((t, _)) = &edge {
            shared.runtime.tracer().complete(t, keep);
        }
    }
    alive
}

#[cfg(test)]
mod tests {
    use super::wake_addr;
    use std::net::SocketAddr;

    #[test]
    fn wake_addr_keeps_concrete_binds() {
        let addr: SocketAddr = "127.0.0.1:8080".parse().unwrap();
        assert_eq!(wake_addr(addr), addr);
        let addr: SocketAddr = "[::1]:8080".parse().unwrap();
        assert_eq!(wake_addr(addr), addr);
    }

    #[test]
    fn wake_addr_redirects_wildcard_binds_to_loopback() {
        let v4: SocketAddr = "0.0.0.0:9001".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:9001".parse().unwrap());
        let v6: SocketAddr = "[::]:9002".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:9002".parse().unwrap());
    }
}
