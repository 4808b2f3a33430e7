//! The daemon under test, `mindbp serve`, run as a child process, and
//! the plain framed connections the benchmark drives it through.

use dbp_proto::{
    fast, read_frame, read_frame_raw, write_frame, FrameRead, Hello, RawFrame, Request, Response,
};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};

/// How the daemon is started.
#[derive(Debug, Clone, Default)]
pub struct DaemonConfig {
    /// Journal directory (`--journal-dir`).
    pub journal_dir: Option<PathBuf>,
    /// Per-tenant quotas far above any load (`--max-bins`,
    /// `--max-items`, `--max-eps`).
    pub quotas: bool,
    /// Record every request in the slow ring and dump it here on a wire
    /// shutdown (`--slow-ms 0 --trace-out`).
    pub trace_out: Option<PathBuf>,
}

/// Quota limit high enough that nothing the benchmark sends is refused.
const NO_REFUSAL_QUOTA: &str = "1000000000000";

/// A running `mindbp serve` child.
pub struct Daemon {
    child: Child,
    /// Wire address.
    pub addr: SocketAddr,
    /// OpenMetrics address.
    pub metrics: SocketAddr,
    // Kept open so the daemon never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
}

impl Daemon {
    /// Spawns the daemon on free loopback ports and waits until it
    /// reports both addresses (journals, if any, are recovered by then).
    pub fn spawn(binary: &Path, config: &DaemonConfig) -> io::Result<Daemon> {
        let mut cmd = Command::new(binary);
        cmd.args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics",
            "127.0.0.1:0",
        ]);
        if let Some(dir) = &config.journal_dir {
            cmd.arg("--journal-dir").arg(dir);
        }
        if config.quotas {
            for flag in ["--max-bins", "--max-items", "--max-eps"] {
                cmd.args([flag, NO_REFUSAL_QUOTA]);
            }
        }
        if let Some(out) = &config.trace_out {
            cmd.args(["--slow-ms", "0"]).arg("--trace-out").arg(out);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let (mut addr, mut metrics) = (None, None);
        let mut line = String::new();
        while addr.is_none() || metrics.is_none() {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("daemon exited before it was serving"));
            }
            let line = line.trim();
            if let Some(a) = line.strip_prefix("serving on ") {
                addr = a.parse().ok();
            } else if let Some(m) = line.strip_prefix("metrics on http://") {
                metrics = m.trim_end_matches("/metrics").parse().ok();
            }
        }
        // The accept loop polls every 5 ms. A hello sent the instant the
        // daemon announces itself sometimes beats the first poll and
        // sometimes not, and how often swings with host load; waiting a
        // millisecond puts every hello behind the first poll, so every
        // set-up takes the same path. The wait ends inside that poll's
        // sleep, so it adds nothing to what is measured.
        std::thread::sleep(std::time::Duration::from_millis(1));
        Ok(Daemon {
            child,
            addr: addr.expect("loop ends with an address"),
            metrics: metrics.expect("loop ends with a metrics address"),
            _stderr: stderr,
        })
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// The OpenMetrics page.
    pub fn scrape(&self) -> io::Result<String> {
        let mut stream = TcpStream::connect(self.metrics)?;
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
        let mut page = String::new();
        stream.read_to_string(&mut page)?;
        Ok(page)
    }

    /// `SIGKILL`, then reap.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(drop)
    }

    /// Stops the daemon with a wire `shutdown` frame and reaps it.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = Conn::connect(self.addr)?;
        match conn.request(&Request::Shutdown { token: None })? {
            Response::Shutdown => {}
            other => return Err(io::Error::other(format!("shutdown answered {other:?}"))),
        }
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("daemon exited with {status}")));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A no-op after `kill`/`shutdown` reaped the child; otherwise
        // an error path must not leave a daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A plain framed connection: the benchmark writes pre-encoded frames
/// and reads raw responses, so no client-side encoding is timed.
pub struct Conn {
    /// Buffered read half.
    pub reader: BufReader<TcpStream>,
    /// Unbuffered write half: each pre-encoded frame is one `write`.
    pub writer: TcpStream,
    /// The last response payload.
    pub scratch: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            scratch: Vec::new(),
        })
    }

    /// Connects and attaches to a tenant; returns the connection and the
    /// hello's `resumed_events`.
    pub fn hello(addr: SocketAddr, hello: Hello) -> io::Result<(Conn, u64)> {
        let mut conn = Conn::connect(addr)?;
        match conn.request(&Request::Hello(hello))? {
            Response::Hello { resumed_events, .. } => Ok((conn, resumed_events)),
            other => Err(io::Error::other(format!("hello answered {other:?}"))),
        }
    }

    /// One request/response exchange through the generic codec (cold
    /// frames: hello, finish, shutdown).
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let payload = serde_json::to_string(&request.to_traced_value(None))
            .map_err(|e| io::Error::other(e.to_string()))?;
        write_frame(&mut self.writer, &payload)?;
        match read_frame::<Response>(&mut self.reader)? {
            FrameRead::Frame(response) => Ok(response),
            FrameRead::Eof => Err(io::Error::other("daemon closed the connection")),
            FrameRead::Malformed(e) => Err(io::Error::other(format!("bad response: {e}"))),
        }
    }

    /// Reads and decodes one response, with its echoed trace id.
    pub fn recv(&mut self) -> io::Result<(Response, Option<u64>)> {
        recv_on(&mut self.reader, &mut self.scratch)
    }
}

/// Reads one response into `scratch` and decodes it (fast path first,
/// the generic codec for everything else), with its echoed trace id.
pub fn recv_on(
    reader: &mut BufReader<TcpStream>,
    scratch: &mut Vec<u8>,
) -> io::Result<(Response, Option<u64>)> {
    if let RawFrame::Eof = read_frame_raw(reader, scratch)? {
        return Err(io::Error::other("daemon closed the connection"));
    }
    if let Some(decoded) = fast::parse_response_traced(scratch) {
        return Ok(decoded);
    }
    let text = std::str::from_utf8(scratch).map_err(io::Error::other)?;
    let value = serde_json::parse(text).map_err(|e| io::Error::other(e.to_string()))?;
    Response::from_traced_value(&value).map_err(|e| io::Error::other(e.to_string()))
}

/// Sums every sample of the OpenMetrics counter `name` on `page`
/// (`name` without the `_total` suffix the renderer adds).
pub fn counter(page: &str, name: &str) -> f64 {
    let total = format!("{name}_total ");
    page.lines()
        .filter_map(|l| l.strip_prefix(total.as_str()))
        .filter_map(|v| v.trim().parse::<f64>().ok())
        .sum()
}
