//! Output checks, run on every job outside the timed region.
//!
//! * Snapshots and race reports with a committed golden under
//!   `tests/golden/` must equal it byte for byte.
//! * Every fixed cell must match the digest and exact counts recorded
//!   in the benchmark's expected file (`e2ebench/expected.tsv`):
//!   configurations, distinct environments, output bytes and races. A
//!   change that moves one has changed the analysis, so it is a failed
//!   check, never a speed-up.
//! * Seeded random cells, which the expected file cannot know, must
//!   repeat exactly every time they recur within a run.
//! * On thread-free programs the concrete interpreter is an oracle
//!   independent of the analyzer: its halt value must be covered by
//!   the abstract halt set.

use crate::job::Counts;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;

/// 64-bit FNV-1a digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// What a fixed cell must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Distinct configurations reached.
    pub configs: u64,
    /// Distinct environments (`None` when the job assembles no metrics).
    pub distinct_envs: Option<u64>,
    /// Output bytes.
    pub bytes: u64,
    /// FNV-1a of the output.
    pub digest: u64,
    /// Races reported (race jobs only).
    pub races: Option<u64>,
}

impl Fingerprint {
    /// The fingerprint of one job's output.
    pub fn of(text: &str, counts: &Counts) -> Self {
        Fingerprint {
            configs: counts.configs,
            distinct_envs: counts.distinct_envs,
            bytes: text.len() as u64,
            digest: fnv1a(text.as_bytes()),
            races: counts.races,
        }
    }

    /// Differences from `expected`, ignoring counts the job did not
    /// produce (a `parallel` job assembles no environment count).
    pub fn mismatch(&self, expected: &Fingerprint) -> Option<String> {
        let opt = |a: Option<u64>, b: Option<u64>| matches!((a, b), (Some(x), Some(y)) if x != y);
        let mut diffs = Vec::new();
        if self.configs != expected.configs {
            diffs.push(format!("configs {} != {}", self.configs, expected.configs));
        }
        if opt(self.distinct_envs, expected.distinct_envs) {
            diffs.push(format!(
                "distinct_envs {:?} != {:?}",
                self.distinct_envs, expected.distinct_envs
            ));
        }
        if self.bytes != expected.bytes {
            diffs.push(format!("bytes {} != {}", self.bytes, expected.bytes));
        }
        if self.digest != expected.digest {
            diffs.push(format!(
                "digest {:016x} != {:016x}",
                self.digest, expected.digest
            ));
        }
        if opt(self.races, expected.races) {
            diffs.push(format!("races {:?} != {:?}", self.races, expected.races));
        }
        (!diffs.is_empty()).then(|| diffs.join(", "))
    }
}

/// The expected file: one fingerprint per fixed cell, keyed
/// `workload:cell`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expected {
    /// Fingerprints by key.
    pub cells: BTreeMap<String, Fingerprint>,
}

const HEADER: &str = "# key\tconfigs\tdistinct_envs\tbytes\tdigest\traces";

impl Expected {
    /// Parses the tab-separated expected file (`-` marks an absent
    /// count; `#` lines are comments).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cells = BTreeMap::new();
        for (no, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("expected file line {}: {line:?}", no + 1);
            let [key, configs, envs, bytes, digest, races] = f.as_slice() else {
                return Err(bad());
            };
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let opt = |s: &str| -> Result<Option<u64>, String> {
                if s == "-" {
                    Ok(None)
                } else {
                    num(s).map(Some)
                }
            };
            cells.insert(
                (*key).to_owned(),
                Fingerprint {
                    configs: num(configs)?,
                    distinct_envs: opt(envs)?,
                    bytes: num(bytes)?,
                    digest: u64::from_str_radix(digest, 16).map_err(|_| bad())?,
                    races: opt(races)?,
                },
            );
        }
        Ok(Expected { cells })
    }

    /// Renders the file [`Expected::parse`] reads.
    pub fn render(&self) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
        let mut out = String::from(
            "# Exact fingerprints of the benchmark's fixed cells; regenerate with\n\
             # `bash e2ebench/run.sh --bless` after an intended analysis change.\n",
        );
        out.push_str(HEADER);
        out.push('\n');
        for (key, f) in &self.cells {
            out.push_str(&format!(
                "{key}\t{}\t{}\t{}\t{:016x}\t{}\n",
                f.configs,
                opt(f.distinct_envs),
                f.bytes,
                f.digest,
                opt(f.races)
            ));
        }
        out
    }
}

/// Whether an abstract halt set covers the concrete interpreter's
/// rendered halt value.
pub fn halt_covers(concrete: &str, abstract_halt: &BTreeSet<String>) -> bool {
    if abstract_halt.contains(concrete) {
        return true;
    }
    let any = |top: &str| abstract_halt.contains(top);
    if concrete.parse::<i64>().is_ok() {
        return any("int⊤");
    }
    if concrete == "#t" || concrete == "#f" {
        return any("bool⊤");
    }
    if concrete.starts_with('"') {
        return any("str⊤");
    }
    if let Some(label) = concrete
        .strip_prefix("#<procedure:")
        .and_then(|s| s.strip_suffix('>'))
    {
        return any(&format!("#<proc:{label}>"));
    }
    if concrete.starts_with('(') && concrete != "()" {
        return any("#<pair>");
    }
    if concrete.starts_with("#<thread:") {
        return any("#<thread>");
    }
    if concrete.starts_with("#<atom") {
        return any("#<atom>");
    }
    // A symbol renders bare concretely and quoted abstractly.
    any(&format!("'{concrete}"))
}

/// Everything the checks compare against, loaded once per set-up.
#[derive(Debug, Default)]
pub struct Verifier {
    expected: Expected,
    /// Committed golden text by `workload:cell` key.
    goldens: HashMap<String, String>,
    /// Concrete halt value by program name.
    oracle: HashMap<String, String>,
    /// First fingerprint seen for keys the expected file lacks.
    seen: HashMap<String, Fingerprint>,
    /// Fingerprints recorded this run (for `--bless`).
    pub recorded: BTreeMap<String, Fingerprint>,
}

impl Verifier {
    /// A verifier over `expected`.
    pub fn new(expected: Expected) -> Self {
        Verifier {
            expected,
            ..Verifier::default()
        }
    }

    /// Loads the golden for `key` from `path`, if it exists.
    pub fn add_golden(&mut self, key: &str, path: &Path) {
        if let Ok(text) = std::fs::read_to_string(path) {
            self.goldens.insert(key.to_owned(), text);
        }
    }

    /// Records the concrete interpreter's halt value for `program`.
    pub fn add_oracle(&mut self, program: &str, value: String) {
        self.oracle.insert(program.to_owned(), value);
    }

    /// Checks one job's output against its golden, its expected
    /// fingerprint (or its first run) and the concrete oracle.
    pub fn check(
        &mut self,
        key: &str,
        program: &str,
        text: &str,
        counts: &Counts,
    ) -> Result<(), String> {
        if let Some(golden) = self.goldens.get(key) {
            if golden != text {
                return Err(format!("{key}: output differs from its committed golden"));
            }
        }
        let fp = Fingerprint::of(text, counts);
        self.recorded.insert(key.to_owned(), fp.clone());
        let reference = match self.expected.cells.get(key) {
            Some(e) => e,
            None => self
                .seen
                .entry(key.to_owned())
                .or_insert_with(|| fp.clone()),
        };
        if let Some(diff) = fp.mismatch(reference) {
            return Err(format!("{key}: {diff}"));
        }
        if let (Some(value), Some(halt)) = (self.oracle.get(program), &counts.halt) {
            if !halt_covers(value, halt) {
                return Err(format!(
                    "{key}: concrete halt value {value} not in abstract halt set {halt:?}"
                ));
            }
        }
        Ok(())
    }
}
