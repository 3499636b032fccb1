//! The `flow-server` child process and a raw wire client that counts bytes
//! and times the codec and the socket separately.

use crate::names::VerbSpans;
use crate::trace::Tracer;
use flowistry_engine::{QueryEnvelope, QueryRequest};
use flowistry_server::codec;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `flow-server`. Dropping it shuts the server down and waits
/// for the process to end; a server that does not stop is killed.
pub struct ServerChild {
    child: Child,
    pub addr: String,
}

impl ServerChild {
    /// Spawns `flow-server <source>` on an ephemeral loopback port and
    /// waits for its `listening on` line.
    pub fn spawn(server_bin: &Path, source_path: &Path) -> Result<ServerChild, String> {
        let mut child = Command::new(server_bin)
            .arg(source_path)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", server_bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("flow-server listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerChild { child, addr }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("flow-server did not start: {read:?} {line:?}"))
            }
        }
    }

    /// Peak resident set size of the server process (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown`, waits up to 10 s for the process to exit, and
    /// kills it otherwise.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Ok(Some(_)) = self.child.try_wait() {
            return;
        }
        if let Ok(mut s) = TcpStream::connect(&self.addr) {
            let _ = writeln!(s, "{}", codec::SHUTDOWN_LINE);
            let _ = s.flush();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one request cost on the wire, as the client saw it.
pub struct Exchange {
    /// Bytes written: the request line (or update header and body).
    pub sent: usize,
    /// Bytes read: the response line.
    pub received: usize,
}

/// A blocking connection speaking the line protocol directly, so the
/// request encode, the socket round trip and the response decode can be
/// timed apart.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl WireClient {
    pub fn connect(addr: &str) -> Result<WireClient, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(WireClient {
            reader,
            writer,
            line: String::new(),
        })
    }

    fn read_line(&mut self) -> Result<usize, String> {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok(n)
    }

    fn trimmed(&self) -> &str {
        self.line.trim_end_matches(['\r', '\n'])
    }

    /// One query round trip. Spans: `server.encode.<verb>` (request line),
    /// `server.wire.<verb>` (write, then wait for the response line) and
    /// `server.decode.<verb>` (response line).
    pub fn query(
        &mut self,
        tracer: &mut Tracer,
        names: &VerbSpans,
        request: &QueryRequest,
    ) -> Result<(QueryEnvelope, Exchange), String> {
        let mut line = tracer.span(names.encode, || codec::encode_request(request));
        line.push('\n');
        let wire = tracer.begin(names.wire);
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let received = self.read_line()?;
        tracer.end(wire);
        let envelope = tracer.span(names.decode, || codec::decode_envelope(self.trimmed()))?;
        Ok((
            envelope,
            Exchange {
                sent: line.len(),
                received,
            },
        ))
    }

    /// One `update` round trip; returns the epoch the server acknowledged.
    /// Same spans as [`WireClient::query`].
    pub fn update(
        &mut self,
        tracer: &mut Tracer,
        names: &VerbSpans,
        source: &str,
    ) -> Result<(u64, Exchange), String> {
        let header = tracer.span(names.encode, || codec::encode_update_at(source.len(), None));
        let wire = tracer.begin(names.wire);
        let mut sent = 0;
        for chunk in [header.as_bytes(), b"\n", source.as_bytes(), b"\n"] {
            self.writer
                .write_all(chunk)
                .map_err(|e| format!("write: {e}"))?;
            sent += chunk.len();
        }
        let received = self.read_line()?;
        tracer.end(wire);
        let epoch = tracer.span(names.decode, || codec::decode_update_ack(self.trimmed()));
        let epoch = epoch.map_err(|e| format!("update refused: {e}: {}", self.trimmed()))?;
        Ok((epoch, Exchange { sent, received }))
    }
}
