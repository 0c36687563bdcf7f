//! A client for the `cfa serve` binary's stdin protocol.
//!
//! Requests are a header line, the source, and a lone `.`; replies are
//! `ok N ...` or `err N ...`, a payload, and a lone `.`, in request
//! order. A reader thread collects replies with their arrival instant,
//! so the writer never blocks on a full reply pipe.
//!
//! The server writes a finished reply only when it reads its next
//! request (or its input closes). A client waiting on a reply with
//! nothing more to send therefore nudges it with `stats` requests,
//! at intervals growing from [`NUDGE_FIRST`] to [`NUDGE_MAX`]; their
//! replies are skipped.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One reply as read from the server.
#[derive(Clone, Debug)]
pub struct Reply {
    /// The header line without its `ok N `/`err N ` prefix.
    pub header: String,
    /// Whether the server answered `ok`.
    pub ok: bool,
    /// The reply id.
    pub id: u64,
    /// Payload lines, each with its newline.
    pub body: String,
    /// When the terminator was read.
    pub at: Instant,
}

impl Reply {
    /// Header and payload as one text, the form the in-process
    /// rendering produces.
    pub fn text(&self) -> String {
        format!("{}\n{}", self.header, self.body)
    }
}

/// A running `cfa serve` child.
#[derive(Debug)]
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    replies: Receiver<Reply>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
    nudges: HashSet<u64>,
}

/// First wait before nudging a server that holds a reply back.
pub const NUDGE_FIRST: Duration = Duration::from_micros(100);
/// Longest wait between nudges.
pub const NUDGE_MAX: Duration = Duration::from_millis(2);

fn parse_header(line: &str) -> Option<(bool, u64, String)> {
    let mut parts = line.splitn(3, ' ');
    let ok = match parts.next()? {
        "ok" => true,
        "err" => false,
        _ => return None,
    };
    let id = parts.next()?.parse().ok()?;
    Some((ok, id, parts.next().unwrap_or("").to_owned()))
}

impl Server {
    /// Starts `cfa serve` with its default backend and pool size; every
    /// fixpoint it runs gets `budget` (`CFA_TIME_BUDGET_MS`).
    pub fn start(cfa_bin: &Path, budget: Duration) -> std::io::Result<Server> {
        let mut child = Command::new(cfa_bin)
            .arg("serve")
            .env("CFA_TIME_BUDGET_MS", budget.as_millis().to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, replies) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            while let Some(Ok(header)) = lines.next() {
                let Some((ok, id, header)) = parse_header(&header) else {
                    break;
                };
                let mut body = String::new();
                let mut terminated = false;
                for line in lines.by_ref() {
                    let Ok(line) = line else { break };
                    if line == "." {
                        terminated = true;
                        break;
                    }
                    body.push_str(&line);
                    body.push('\n');
                }
                if !terminated {
                    break;
                }
                let reply = Reply {
                    header,
                    ok,
                    id,
                    body,
                    at: Instant::now(),
                };
                if tx.send(reply).is_err() {
                    break;
                }
            }
        });
        Ok(Server {
            child,
            stdin: Some(stdin),
            replies,
            reader: Some(reader),
            next_id: 0,
            nudges: HashSet::new(),
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Writes one request and returns its id and the instant the
    /// write completed.
    pub fn send(&mut self, header: &str, source: &str) -> std::io::Result<(u64, Instant)> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| std::io::Error::other("server input closed"))?;
        let mut req = String::with_capacity(source.len() + header.len() + 8);
        req.push_str(header);
        req.push('\n');
        req.push_str(source);
        if !source.ends_with('\n') {
            req.push('\n');
        }
        req.push_str(".\n");
        stdin.write_all(req.as_bytes())?;
        stdin.flush()?;
        let id = self.next_id;
        self.next_id += 1;
        Ok((id, Instant::now()))
    }

    /// Waits for the reply to request `id`, nudging the server while
    /// it holds finished replies back; fails after `timeout`, on a
    /// reply out of order, or when the server closes its output.
    pub fn wait_for(&mut self, id: u64, timeout: Duration) -> Result<Reply, String> {
        let deadline = Instant::now() + timeout;
        let mut pause = NUDGE_FIRST;
        loop {
            match self.replies.recv_timeout(pause) {
                Ok(reply) if self.nudges.remove(&reply.id) => continue,
                Ok(reply) if reply.id == id => return Ok(reply),
                Ok(reply) => {
                    return Err(format!("reply {} out of order (want {id})", reply.id));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("server closed its output".to_owned());
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        return Err(format!("no reply within {timeout:?}"));
                    }
                    let (nudge, _) = self.send("stats", "").map_err(|e| e.to_string())?;
                    self.nudges.insert(nudge);
                    pause = (pause * 2).min(NUDGE_MAX);
                }
            }
        }
    }

    /// Sends `stats` and returns its JSON payload.
    pub fn stats(&mut self, timeout: Duration) -> Result<String, String> {
        let (id, _) = self.send("stats", "").map_err(|e| e.to_string())?;
        let reply = self.wait_for(id, timeout)?;
        if !reply.ok {
            return Err(format!("bad stats reply {reply:?}"));
        }
        Ok(reply.body.trim().to_owned())
    }

    /// Peak resident memory of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::procfs::peak_rss_mb(Some(self.pid()))
    }

    /// CPU seconds the server process has used.
    pub fn cpu_seconds(&self) -> Option<f64> {
        crate::procfs::cpu_seconds(Some(self.pid()))
    }

    /// Closes the server's input, waits for it to drain and exit, and
    /// joins the reader. A server that does not exit within `timeout`
    /// is killed.
    pub fn shutdown(mut self, timeout: Duration) {
        self.stop(timeout);
    }

    fn stop(&mut self, timeout: Duration) {
        drop(self.stdin.take());
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(reader) = self.reader.take() {
            // The child has exited, so its stdout is closed and the
            // reader ends. It has no panicking path; ignore the result
            // so this can run from `Drop`.
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.reader.is_some() {
            let _ = self.child.kill();
            self.stop(Duration::from_secs(5));
        }
    }
}

/// Reads one counter from the `stats` JSON line.
pub fn stats_field(json: &str, name: &str) -> Option<u64> {
    let pat = format!("\"{name}\":");
    let start = json.find(&pat)? + pat.len();
    let digits: String = json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
