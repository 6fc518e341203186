//! The telemetry endpoint: a std-only HTTP server on a background
//! thread exposing the live metrics [`Registry`].
//!
//! Routes:
//!
//! | route       | payload                                                  |
//! |-------------|----------------------------------------------------------|
//! | `/metrics`  | Prometheus text exposition of the registry ([`crate::exposition::render`]) |
//! | `/healthz`  | JSON liveness: status, uptime, query count, RSS, threads |
//!
//! The server is deliberately minimal: one `std::net::TcpListener`, a
//! blocking accept loop on one background thread, one request per
//! connection (`Connection: close`), no TLS, no keep-alive. That is
//! exactly enough for a Prometheus scraper or `curl`, costs nothing on
//! the query path (scrape work happens on the server thread), and adds
//! no dependencies. [`ServerHandle::shutdown`] is graceful by
//! construction: requests are handled sequentially on the accept
//! thread, so joining it completes any in-flight scrape before the
//! process exits.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::Registry;
use crate::{exposition, process};

/// A running telemetry server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the daemon thread running until
/// process exit (harmless: it only ever reads the registry).
#[derive(Debug)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The address actually bound — with a `:0` request this carries
    /// the ephemeral port the OS picked.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Any request
    /// already accepted is answered first; later connections are
    /// refused (nothing is listening). Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop: it re-checks the flag per connection,
        // so one throwaway connect gets it past the blocking accept.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(thread) = self.thread.lock().expect("server thread lock").take() {
            let _ = thread.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9184`; port `0` for an ephemeral one)
/// and serves the telemetry routes for `registry` on a background
/// thread until [`ServerHandle::shutdown`].
///
/// # Errors
///
/// Fails with a description if the address cannot be parsed or bound.
pub fn serve(addr: &str, registry: &'static Registry) -> Result<ServerHandle, String> {
    // Anchor uptime no later than server start.
    process::start_instant();
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound metrics address: {e}"))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&shutdown);
    let thread = std::thread::Builder::new()
        .name("trajsim-metrics".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    // One request per connection; errors (half-open
                    // sockets, bad requests) only drop that connection.
                    let _ = handle_connection(stream, registry);
                }
            }
        })
        .map_err(|e| format!("cannot spawn metrics server thread: {e}"))?;
    Ok(ServerHandle {
        addr: bound,
        shutdown,
        thread: Mutex::new(Some(thread)),
    })
}

/// Reads one HTTP/1.x request line (headers are read and ignored) and
/// writes the matching response.
fn handle_connection(mut stream: TcpStream, registry: &Registry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let mut buf = [0u8; 4096];
    let mut filled = 0usize;
    // Read until the end of headers (or the buffer is full — more than
    // enough for any scraper's GET).
    loop {
        let n = stream.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
        if buf[..filled].windows(4).any(|w| w == b"\r\n\r\n") || filled == buf.len() {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf[..filled]);
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);
    if method != "GET" {
        return respond(
            &mut stream,
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
    }
    match path {
        "/metrics" => {
            process::update(registry);
            let body = exposition::render(registry);
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/healthz" => {
            process::update(registry);
            let queries = registry
                .counter_values()
                .get("knn.queries")
                .copied()
                .unwrap_or(0);
            let doc = serde_json::json!({
                "status": "ok",
                "uptime_seconds": process::uptime_seconds(),
                "queries": queries,
                "rss_bytes": process::rss_bytes().unwrap_or(0),
                "threads": process::thread_count().unwrap_or(0),
            });
            respond(
                &mut stream,
                200,
                "application/json",
                &format!("{}\n", serde_json::to_string(&doc).unwrap_or_default()),
            )
        }
        _ => respond(&mut stream, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A one-shot HTTP GET against `addr` (e.g. `127.0.0.1:9184`) returning
/// `(status, body)` — the client half of the protocol the server
/// speaks, used by `trajsim watch` and the tests. std-only, no TLS.
///
/// # Errors
///
/// Fails with a description on connect/read errors or an unparsable
/// response.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> Result<(u16, String), String> {
    use std::net::ToSocketAddrs;
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("bad address {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("address {addr} resolves to nothing"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("cannot read response from {addr}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line from {addr}"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exposition::parse;

    fn leaked_registry() -> &'static Registry {
        Box::leak(Box::new(Registry::new()))
    }

    #[test]
    fn serves_metrics_healthz_and_404() {
        let r = leaked_registry();
        r.counter("knn.queries").add(9);
        r.histogram("knn.query_ns").record(123_456);
        let server = serve("127.0.0.1:0", r).expect("bind ephemeral");
        let addr = server.addr().to_string();
        let t = Duration::from_secs(5);

        let (status, body) = http_get(&addr, "/metrics", t).unwrap();
        assert_eq!(status, 200);
        let scrape = parse(&body).expect("valid exposition");
        assert_eq!(scrape.sample_u64("knn_queries_total"), Some(9));
        assert_eq!(scrape.histograms["knn_query_ns"].count(), 1);
        // The scrape refreshed the process gauges into the registry.
        assert!(scrape.samples.contains_key("process_uptime_seconds"));

        let (status, body) = http_get(&addr, "/healthz", t).unwrap();
        assert_eq!(status, 200);
        let doc: serde_json::Value = serde_json::from_str(body.trim()).unwrap();
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(doc.get("queries").and_then(|v| v.as_u64()), Some(9));

        // Only /metrics and /healthz are served; /timeline is an
        // unknown path like any other.
        for path in ["/nope", "/timeline"] {
            let (status, _) = http_get(&addr, path, t).unwrap();
            assert_eq!(status, 404, "{path}");
        }

        server.shutdown();
        // After shutdown nothing is listening.
        assert!(http_get(&addr, "/metrics", Duration::from_millis(300)).is_err());
    }

    #[test]
    fn scrape_agrees_with_snapshot_json_counters() {
        let r = leaked_registry();
        r.counter("knn.edr_computed").add(41);
        r.gauge("batch.size").set(16);
        let server = serve("127.0.0.1:0", r).unwrap();
        let (_, body) = http_get(
            &server.addr().to_string(),
            "/metrics",
            Duration::from_secs(5),
        )
        .unwrap();
        server.shutdown();
        let scrape = parse(&body).unwrap();
        let snap = r.snapshot_json();
        for (name, value) in snap.get("counters").unwrap().as_object().unwrap().iter() {
            assert_eq!(
                scrape.sample_u64(&crate::exposition::counter_name(name)),
                value.as_u64(),
                "counter {name}"
            );
        }
        for (name, value) in snap.get("gauges").unwrap().as_object().unwrap().iter() {
            let pname = crate::exposition::sanitize_name(name);
            assert_eq!(
                scrape.samples.get(&pname).copied().map(|v| v as i64),
                value.as_i64(),
                "gauge {name}"
            );
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_non_get() {
        let r = leaked_registry();
        let server = serve("127.0.0.1:0", r).unwrap();
        let addr = server.addr();
        // A hand-rolled POST gets a 405 without killing the server.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
        let (status, _) = http_get(&addr.to_string(), "/metrics", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
        server.shutdown();
    }
}
