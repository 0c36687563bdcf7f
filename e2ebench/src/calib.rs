//! A fixed probe of the host's speed, independent of the program.
//!
//! The shared hosts this benchmark runs on change speed by a quarter
//! and more over minutes, moving every timing of a run together. The
//! probe — ordered-map inserts, string formatting, a sort and a hash:
//! the kinds of work the analyzer does, but none of its code — runs
//! outside the timed regions, and timings are reported scaled to a
//! host on which the probe takes [`REFERENCE_MS`]. Its working set
//! (about 1 MB) is small, so it leaves the caches of the measured
//! process warm.
//!
//! The probe runs in a helper process (this binary with
//! `--probe-server`), so its memory and allocator state stay out of the
//! measured process, on as many threads as the measured work uses; a
//! sample is the slowest thread's time, so it feels the contention a
//! parallel job does.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{channel, Sender};
use std::time::Instant;

/// The probe time, ms, of the reference host that scaled timings are
/// expressed on.
pub const REFERENCE_MS: f64 = 2.0;

/// The probe's work; returns a digest so it cannot be optimized away.
fn work() -> u64 {
    let mut rng = crate::cells::Rng::new(42);
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for i in 0..10_000u64 {
        map.entry(rng.next_u64() % 2048).or_default().push(i);
    }
    let mut lines: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{k}:{}:{}", v.len(), v.iter().sum::<u64>()))
        .collect();
    lines.sort_unstable_by(|a, b| b.cmp(a));
    crate::check::fnv1a(lines.join("\n").as_bytes())
}

/// The helper process's main loop: one probe on every thread per line
/// read, answered with the slowest thread's time in ms. Returns when
/// its input closes.
pub fn serve_probes(threads: usize) {
    let (tell, answers) = channel();
    let mut asks: Vec<Sender<()>> = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..threads.max(1) {
        let (ask, asked) = channel::<()>();
        let tell = tell.clone();
        handles.push(std::thread::spawn(move || {
            while asked.recv().is_ok() {
                let clock = Instant::now();
                std::hint::black_box(work());
                if tell.send(clock.elapsed().as_secs_f64() * 1e3).is_err() {
                    break;
                }
            }
        }));
        asks.push(ask);
    }
    let stdout = std::io::stdout();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
        for ask in &asks {
            ask.send(()).expect("probe thread alive");
        }
        let slowest = (0..asks.len())
            .map(|_| answers.recv().expect("probe thread answers"))
            .fold(0.0, f64::max);
        let mut out = stdout.lock();
        if writeln!(out, "{slowest}")
            .and_then(|()| out.flush())
            .is_err()
        {
            break;
        }
    }
    asks.clear();
    for h in handles {
        // The probe threads have no panicking path.
        let _ = h.join();
    }
}

/// A running probe helper.
#[derive(Debug)]
pub struct Probe {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Every probe time measured, ms.
    samples: Vec<f64>,
}

impl Probe {
    /// Starts the helper `bin --probe-server --threads N`.
    pub fn start(bin: &Path, threads: usize) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--probe-server", "--threads", &threads.max(1).to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the probe helper {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Probe {
            child,
            stdin: Some(stdin),
            stdout,
            samples: Vec::new(),
        })
    }

    /// Runs the probe once (blocking) and records its time.
    ///
    /// # Panics
    ///
    /// Panics if the helper died: its answers are needed to scale the
    /// run's timings.
    pub fn sample(&mut self) {
        let stdin = self.stdin.as_mut().expect("probe helper running");
        stdin
            .write_all(b"\n")
            .and_then(|()| stdin.flush())
            .expect("probe helper accepts a request");
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .expect("probe helper answers");
        let ms: f64 = line.trim().parse().expect("probe helper answers a number");
        self.samples.push(ms);
    }

    /// Stops the helper and returns the samples.
    pub fn finish(mut self) -> Vec<f64> {
        self.stop();
        std::mem::take(&mut self.samples)
    }

    fn stop(&mut self) {
        drop(self.stdin.take());
        // Closing its input ends the helper; wait for it so no process
        // outlives the run.
        let _ = self.child.wait();
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            self.stop();
        }
    }
}
