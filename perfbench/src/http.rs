//! A keep-alive HTTP/1.1 client over one blocking socket: just enough to
//! drive `vppb serve` closed-loop with pre-encoded requests.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A request's wire bytes.
pub fn encode_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// The `x-vppb-cache` header: `Some(true)` for a memo hit.
    pub hit: Option<bool>,
    pub body: Vec<u8>,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(64 * 1024) })
    }

    /// Send pre-encoded `request` and read the whole response.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut head_end = None;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if head_end.is_none() {
                head_end = self.buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
            }
            if let Some(h) = head_end {
                let (status, length, hit) = parse_head(&self.buf[..h])?;
                if self.buf.len() >= h + length {
                    let body = self.buf[h..h + length].to_vec();
                    return Ok(Reply { status, hit, body });
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn parse_head(head: &[u8]) -> io::Result<(u16, usize, Option<bool>)> {
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "bad response head");
    let head = std::str::from_utf8(head).map_err(|_| bad())?;
    let mut lines = head.split("\r\n");
    let status = lines.next().and_then(|l| l.split(' ').nth(1)).and_then(|s| s.parse().ok());
    let (mut length, mut hit) = (None, None);
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                length = v.parse().ok();
            } else if k.eq_ignore_ascii_case("x-vppb-cache") {
                hit = Some(v != "miss");
            }
        }
    }
    Ok((status.ok_or_else(bad)?, length.ok_or_else(bad)?, hit))
}
