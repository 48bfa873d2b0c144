//! A deliberately small blocking HTTP/1.1 client for driving `vppb
//! serve` from tests, benches and the chaos harness — std sockets only.
//!
//! Every response is framed one way, by its `content-length` (the server
//! always sends one). On top of that framing:
//!
//! * **timeouts everywhere** — connect, read and write are all bounded,
//!   so a wedged server fails a test instead of hanging it;
//! * **bounded, jittered retry** — but only for *transport* failures
//!   (refused, reset, timed out connects). An HTTP response, even a 503,
//!   is an answer and is never retried: load-shedding and degraded-mode
//!   tests depend on seeing the first 503, and retrying a non-idempotent
//!   `append` could double-apply it.
//!
//! [`ServerProc`] spawns a real `vppb serve` child process and scrapes
//! the `listening on` line for the bound port (that line's shape is part
//! of the CLI contract). It holds the pre-listening startup banner too,
//! so crash-recovery tests can assert on the recovery summary.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Bound on every connect.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Socket read/write bound of an [`HttpClient`] request: cold predictions
/// on debug builds are slow.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// One parsed response: `(status, lowercased headers, body)`.
pub type RawResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Find a header (already lowercased by the parser).
pub fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

/// The client: an address plus its retry policy. Each attempt is one
/// `connection: close` request on a fresh [`KeepAliveClient`].
#[derive(Debug, Clone)]
pub struct HttpClient {
    addr: SocketAddr,
    /// Transport-failure retries after the first attempt.
    pub retries: u32,
}

impl HttpClient {
    /// A client with test-friendly defaults: 2 s connects, 120 s reads,
    /// 3 retries.
    pub fn new(addr: SocketAddr) -> HttpClient {
        HttpClient { addr, retries: 3 }
    }

    /// Same client, different retry budget (0 disables retry entirely).
    pub fn with_retries(mut self, retries: u32) -> HttpClient {
        self.retries = retries;
        self
    }

    /// Send one request; return `(status, body)`.
    pub fn request(&self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let (status, _headers, body) = self.request_full(method, path, body)?;
        Ok((status, body))
    }

    /// Send one request; return `(status, headers, body)`. Retries
    /// transport failures with jittered backoff; never retries once any
    /// HTTP response arrived.
    pub fn request_full(&self, method: &str, path: &str, body: &[u8]) -> io::Result<RawResponse> {
        let mut last = None;
        for attempt in 0..=self.retries {
            if attempt > 0 {
                std::thread::sleep(backoff(self.addr, attempt));
            }
            match self.attempt(method, path, body) {
                Ok(response) => return Ok(response),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no attempt ran")))
    }

    fn attempt(&self, method: &str, path: &str, body: &[u8]) -> io::Result<RawResponse> {
        KeepAliveClient::connect(self.addr, IO_TIMEOUT)?.request_with_headers(
            method,
            path,
            body,
            &[("connection", "close")],
        )
    }
}

/// A persistent HTTP/1.1 keep-alive connection: many requests, one
/// socket. Responses are framed by `content-length` (the server always
/// sends one), so the client knows exactly where each response ends and
/// the next begins — which also lets tests **pipeline**: write several
/// requests back-to-back with [`KeepAliveClient::send_raw`], then
/// collect each response with [`KeepAliveClient::read_response`].
///
/// No retry here, deliberately: reusing a connection is stateful, and
/// the keep-alive conformance tests want to see exactly what the server
/// did with this socket.
pub struct KeepAliveClient {
    stream: TcpStream,
    /// Bytes read past the end of the last parsed response.
    buf: Vec<u8>,
}

impl KeepAliveClient {
    /// Connect once; the socket then serves every request until the
    /// server (or a `connection: close` request) ends it.
    pub fn connect(addr: SocketAddr, io_timeout: Duration) -> io::Result<KeepAliveClient> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        stream.set_nodelay(true)?;
        Ok(KeepAliveClient { stream, buf: Vec::new() })
    }

    /// Send one keep-alive request and read its response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<RawResponse> {
        self.send_raw(&encode_request(method, path, body, &[]))?;
        self.read_response()
    }

    /// [`KeepAliveClient::request`] with extra `(name, value)` headers
    /// (tenant identities ride in `x-vppb-tenant` this way).
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        headers: &[(&str, &str)],
    ) -> io::Result<RawResponse> {
        self.send_raw(&encode_request(method, path, body, headers))?;
        self.read_response()
    }

    /// Write raw bytes — whole requests, or deliberate fragments for
    /// slow-loris tests.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Read exactly one `content-length`-framed response; bytes beyond
    /// it stay buffered for the next call.
    pub fn read_response(&mut self) -> io::Result<RawResponse> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((response, consumed)) = parse_framed(&self.buf) {
                self.buf.drain(..consumed);
                return Ok(response);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("connection closed mid-response ({} bytes buffered)", self.buf.len()),
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Whether the server has closed its side (a clean close after a
    /// `connection: close` response reads as EOF here).
    pub fn server_closed(&mut self) -> bool {
        let mut probe = [0u8; 1];
        match self.stream.read(&mut probe) {
            Ok(0) => true,
            Ok(_) | Err(_) => false,
        }
    }
}

/// Serialize one keep-alive request.
pub fn encode_request(method: &str, path: &str, body: &[u8], headers: &[(&str, &str)]) -> Vec<u8> {
    let mut head =
        format!("{method} {path} HTTP/1.1\r\nhost: vppb\r\ncontent-length: {}\r\n", body.len());
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Parse one complete `content-length`-framed response from the front
/// of `buf`, and the bytes it took; `None` until enough bytes have
/// arrived, or when the head does not parse.
pub fn parse_framed(buf: &[u8]) -> Option<(RawResponse, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let length: usize = header(&headers, "content-length")?.parse().ok()?;
    let total = head_end + 4 + length;
    let body = buf.get(head_end + 4..total)?.to_vec();
    Some(((status, headers, body), total))
}

/// Deterministic jittered backoff: linear base (25 ms × attempt) plus a
/// hash-derived jitter so concurrent clients don't retry in lockstep.
/// No RNG dependency — the jitter only needs to differ across callers,
/// so it is seeded with the process id.
fn backoff(addr: SocketAddr, attempt: u32) -> Duration {
    seeded_backoff(addr, attempt, std::process::id())
}

/// [`backoff`] under an explicit seed.
fn seeded_backoff(addr: SocketAddr, attempt: u32, seed: u32) -> Duration {
    let mut h = addr.port() as u64 ^ (seed as u64) << 16 ^ attempt as u64;
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    Duration::from_millis(25 * attempt as u64 + h % 25)
}

/// A running `vppb serve` child process: the scraped bound address, the
/// startup banner lines printed before it, and the stdout handle for
/// whatever comes after.
pub struct ServerProc {
    /// The child process (killed on drop if still running).
    pub child: Child,
    /// The bound address scraped from the `listening on` line.
    pub addr: SocketAddr,
    /// Stdout lines printed *before* the listening line (the durable
    /// store's recovery summary lands here).
    pub banner: Vec<String>,
    /// The child's stdout, positioned after the listening line.
    pub stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Spawn `bin serve --addr 127.0.0.1:0 <extra>` and scrape the port.
    pub fn spawn(bin: &str, extra: &[&str]) -> ServerProc {
        ServerProc::spawn_with_env(bin, extra, &[])
    }

    /// [`ServerProc::spawn`] with extra environment variables (the crash
    /// harness arms `VPPB_FAULT_VFS` this way).
    pub fn spawn_with_env(bin: &str, extra: &[&str], env: &[(&str, &str)]) -> ServerProc {
        let mut command = Command::new(bin);
        command
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (k, v) in env {
            command.env(k, v);
        }
        let mut child = command.spawn().expect("spawn vppb serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut banner = Vec::new();
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("read server stdout");
            assert!(
                n > 0,
                "server exited before announcing its address (banner so far: {banner:?})"
            );
            if let Some(rest) = line.trim().strip_prefix("vppb serve: listening on http://") {
                break rest.parse().expect("bound address");
            }
            banner.push(line.trim().to_string());
        };
        ServerProc { child, addr, banner, stdout }
    }

    /// A client wired to this server.
    pub fn client(&self) -> HttpClient {
        HttpClient::new(self.addr)
    }

    /// Wait up to `secs` for the child to exit; `None` on timeout.
    pub fn wait_exit(&mut self, secs: u64) -> Option<std::process::ExitStatus> {
        for _ in 0..secs * 20 {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return Some(status);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        None
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_headers_and_body() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\n\
                    X-Vppb-Request: r-9\r\nContent-Length: 2\r\n\r\n{}";
        let ((status, headers, body), used) = parse_framed(raw).unwrap();
        assert_eq!((status, used), (503, raw.len()));
        assert_eq!(header(&headers, "retry-after"), Some("2"));
        assert_eq!(header(&headers, "x-vppb-request"), Some("r-9"));
        assert_eq!(body, b"{}");
    }

    #[test]
    fn retries_a_dead_port_then_gives_up() {
        // Bind-and-drop to get a port that refuses connections.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = HttpClient::new(addr).with_retries(2);
        let start = std::time::Instant::now();
        let err = client.request("GET", "/healthz", b"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
        // Two retries happened (their backoffs are the visible trace).
        assert!(start.elapsed() >= Duration::from_millis(25 + 50), "backoff too short");
    }

    #[test]
    fn framed_parse_splits_back_to_back_responses() {
        let one = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok".to_vec();
        let mut two = one.clone();
        two.extend_from_slice(b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n");
        // Nothing parses until the body is complete...
        assert!(parse_framed(&one[..one.len() - 1]).is_none());
        // ...then each response is framed exactly, leaving the next.
        let ((status, _, body), used) = parse_framed(&two).unwrap();
        assert_eq!((status, body.as_slice()), (200, b"ok".as_slice()));
        let ((status, _, body), _) = parse_framed(&two[used..]).unwrap();
        assert_eq!((status, body.len()), (404, 0));
    }

    #[test]
    fn backoff_is_bounded_and_jittered() {
        // The bounds hold under any seed. The peers are compared under a
        // fixed one: some process ids make their jitter collide.
        const SEED: u32 = 12_345;
        let a: SocketAddr = "127.0.0.1:4000".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:4001".parse().unwrap();
        for attempt in 1..=5u32 {
            let d = backoff(a, attempt);
            assert!(d >= Duration::from_millis(25 * attempt as u64));
            assert!(d < Duration::from_millis(25 * attempt as u64 + 25));
        }
        assert_ne!(
            seeded_backoff(a, 1, SEED),
            seeded_backoff(b, 1, SEED),
            "different peers must not retry in lockstep"
        );
    }
}
