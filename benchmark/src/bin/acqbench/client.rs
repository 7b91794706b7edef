//! A minimal closed-loop HTTP/1.1 keep-alive client over a loopback socket.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A read that takes this long means the server is stuck; fail the request
/// rather than hang the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One answered request.
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Request written → body fully read.
    pub rtt: Duration,
}

/// One client connection. It reconnects on its own before the server's
/// per-connection request cap would close the socket under it; connecting is
/// outside every timed round trip.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    on_conn: usize,
    reconnect_after: usize,
}

impl Client {
    pub fn new(addr: SocketAddr, reconnect_after: usize) -> Self {
        Self {
            addr,
            conn: None,
            on_conn: 0,
            reconnect_after: reconnect_after.max(1),
        }
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        self.conn = Some(BufReader::new(stream));
        self.on_conn = 0;
        Ok(())
    }

    /// Drops the connection; the next request opens a fresh one. For a client
    /// that knows it sat idle past the server's keep-alive timeout.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.send("GET", path, "")
    }

    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Reply> {
        self.send("POST", path, body)
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        if self.conn.is_none() || self.on_conn >= self.reconnect_after {
            self.connect()?;
        }
        // One buffer, one write: the request never waits on Nagle.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let Some(conn) = self.conn.as_mut() else {
            unreachable!("connected above");
        };
        let start = Instant::now();
        let outcome = conn
            .get_mut()
            .write_all(request.as_bytes())
            .and_then(|()| read_reply(conn));
        let rtt = start.elapsed();
        self.on_conn += 1;
        match outcome {
            Ok((status, body, keep_alive)) => {
                if !keep_alive {
                    self.conn = None;
                }
                Ok(Reply { status, body, rtt })
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn read_reply(conn: &mut BufReader<TcpStream>) -> io::Result<(u16, String, bool)> {
    let mut line = String::new();
    if conn.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a status line",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    let mut keep_alive = true;
    loop {
        line.clear();
        if conn.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length"))?;
    // The server caps bodies far below this; refuse to allocate for garbage.
    if length > 64 << 20 {
        return Err(bad("implausible Content-Length"));
    }
    let mut body = vec![0u8; length];
    conn.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok((status, body, keep_alive))
}
