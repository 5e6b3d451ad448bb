//! The served side: the `densest serve` child process and the client
//! connections that drive it over its Unix socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dsg_engine::frame::{self, Opcode};

use crate::workload::Op;

/// A running `densest serve`; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub socket: PathBuf,
    /// The flags it was started with (provenance).
    pub flags: Vec<String>,
}

/// How to start the server for one workload.
pub struct ServerConfig {
    pub binary: PathBuf,
    pub socket: PathBuf,
    pub workers: usize,
    pub shards: usize,
    pub data_dir: Option<PathBuf>,
}

impl Server {
    /// Spawns the server and waits until its socket accepts.
    pub fn start(cfg: &ServerConfig) -> Result<Server, String> {
        let _ = std::fs::remove_file(&cfg.socket);
        let mut flags = vec![
            "serve".to_string(),
            "--quiet".into(),
            "--socket".into(),
            cfg.socket.display().to_string(),
            "--workers".into(),
            cfg.workers.to_string(),
            "--shards".into(),
            cfg.shards.to_string(),
        ];
        if let Some(dir) = &cfg.data_dir {
            flags.push("--data-dir".into());
            flags.push(dir.display().to_string());
        }
        let child = Command::new(&cfg.binary)
            .args(&flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfg.binary.display()))?;
        let mut server = Server {
            child,
            socket: cfg.socket.clone(),
            flags,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if UnixStream::connect(&server.socket).is_ok() {
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server socket did not come up within 30 s".into());
            }
            pause(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<UnixStream, String> {
        UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    /// Sends `shutdown` and waits for a clean exit (killing it after 30 s).
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self.connect().and_then(|s| {
            let mut c = JsonlConn::new(s)?;
            c.call(r#"{"op":"shutdown","id":0}"#).map(|_| ())
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return sent,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => pause(Duration::from_millis(5)),
                _ => return Err("server did not stop within 30 s of shutdown".into()),
            }
        }
    }

    /// `(utime + stime)` of the server process in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("read /proc stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the line (11 and 12 after the name).
        let rest = &stat[stat.rfind(')').ok_or("malformed /proc stat")? + 2..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            f.get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        // USER_HZ is 100 on every Linux ABI.
        Ok((ticks(11)? + ticks(12)?) * 10.0)
    }

    /// Peak resident set (VmHWM) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A JSONL lockstep connection: one request line out, one reply line in.
pub struct JsonlConn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl JsonlConn {
    pub fn new(stream: UnixStream) -> Result<JsonlConn, String> {
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(JsonlConn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the reply line (no newline).
    pub fn call(&mut self, request: &str) -> Result<&str, String> {
        let mut buf = Vec::with_capacity(request.len() + 1);
        buf.extend_from_slice(request.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(self.line.trim_end_matches('\n'))
    }
}

/// A binary-frame connection that pipelines a batch of requests per
/// round trip and reads one reply frame per request.
pub struct FrameConn {
    stream: UnixStream,
    rbuf: Vec<u8>,
    rpos: usize,
}

impl FrameConn {
    pub fn new(stream: UnixStream) -> FrameConn {
        FrameConn {
            stream,
            rbuf: Vec::with_capacity(1 << 20),
            rpos: 0,
        }
    }

    /// Writes one pre-encoded batch frame.
    pub fn send(&mut self, frame_bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(frame_bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// Reads the next reply frame's JSON payload.
    pub fn next_reply(&mut self) -> Result<&str, String> {
        loop {
            match frame::decode_frame(&self.rbuf[self.rpos..], frame::DEFAULT_MAX_FRAME) {
                Ok(Some((Opcode::Reply, _, consumed))) => {
                    let start = self.rpos + frame::HEADER_LEN;
                    let end = self.rpos + consumed;
                    self.rpos = end;
                    return std::str::from_utf8(&self.rbuf[start..end])
                        .map_err(|_| "reply is not UTF-8".to_string());
                }
                Ok(Some((op, _, _))) => return Err(format!("unexpected frame {op:?}")),
                Ok(None) => {}
                Err(e) => return Err(format!("bad reply frame: {e:?}")),
            }
            if self.rpos > 0 {
                self.rbuf.drain(..self.rpos);
                self.rpos = 0;
            }
            let len = self.rbuf.len();
            self.rbuf.resize(len + (1 << 16), 0);
            let n = self
                .stream
                .read(&mut self.rbuf[len..])
                .map_err(|e| format!("read: {e}"))?;
            self.rbuf.truncate(len + n);
            if n == 0 {
                return Err("server closed the connection".into());
            }
        }
    }
}

/// Encodes `ops` (with their ids) as one batch frame.
pub fn batch_frame(ops: &[(u64, Op)]) -> Vec<u8> {
    let mut payload = Vec::new();
    for (id, op) in ops {
        frame::encode_batch_item(op.op_name(), &op.fields(*id), &mut payload)
            .expect("generated requests always encode");
    }
    let mut out = Vec::with_capacity(payload.len() + frame::HEADER_LEN);
    frame::encode_request_from_payload(Opcode::Batch, &payload, &mut out);
    out
}

/// Sleeps the calling load-generator thread. The repository's lint bans
/// sleeping because a serve worker must never block; this process is
/// the client, and it waits only on the child process and on the
/// timed phase's clock.
#[allow(clippy::disallowed_methods)]
pub fn pause(d: Duration) {
    std::thread::sleep(d);
}

/// Creates `dir` fresh (removing anything left by an earlier run).
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}
