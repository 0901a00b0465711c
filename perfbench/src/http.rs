//! A minimal keep-alive HTTP/1.1 client for the in-process server.
//!
//! Each request leaves in a single `write_all` of head and body, on a
//! socket with `TCP_NODELAY` set, so Nagle's algorithm and delayed
//! ACKs cannot hold the body back and show up as server latency.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tesc::serve::json::Json;

pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

pub struct Reply {
    pub status: u16,
    pub body: Json,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(msg.as_bytes())?;
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line)?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {status_line:?}")))?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .and_then(|v| v.trim().parse().ok())
            {
                content_length = v;
            }
        }
        let mut buf = vec![0u8; content_length];
        self.reader.read_exact(&mut buf)?;
        let text = String::from_utf8_lossy(&buf);
        let body = Json::parse(&text).unwrap_or(Json::Null);
        Ok(Reply { status, body })
    }

    /// Median of five idle `GET /stats` round trips, in ms: the
    /// measurement floor. A Nagle/delayed-ACK stall reads as ~40 ms.
    pub fn idle_floor_ms(&mut self) -> std::io::Result<f64> {
        let mut rtts = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let r = self.request("GET", "/stats", "")?;
            if r.status != 200 {
                return Err(std::io::Error::other(format!(
                    "/stats answered {}",
                    r.status
                )));
            }
            rtts.push(crate::util::ms(t.elapsed()));
        }
        Ok(crate::util::median(&rtts))
    }
}
