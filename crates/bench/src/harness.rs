//! The one harness behind the perf-smoke drivers (`backend_hot_path`,
//! `shard_scaling`, `storage_tiers`, `durability_overhead`, `omap_ycsb`,
//! `loadgen`): flags, the best-of-windows rate, the mixed backend workload,
//! a small JSON value with writer and reader, and the floor gate.  Each
//! driver keeps only its workload, its design-point constants and its choice
//! of gated numbers.
//!
//! # Shared flags
//!
//! * `--quick` — small geometry, short windows (local iteration).
//! * `--smoke` — the CI profile: short windows at the geometry each driver
//!   names (the full design point wherever its rates must compare with a
//!   checked-in full run).  `--smoke` wins over `--quick`.
//! * `--gate <baseline.json>` — after measuring, check the driver's gated
//!   numbers against the same keys of `baseline.json` (the gate rule below).
//! * `--out <path>` — where to write the JSON report (default: the
//!   driver's `BENCH_*.json` in the working directory).
//!
//! # Gate rule
//!
//! Every gated number must satisfy `fresh >= baseline × (1 − tolerance)`.
//! Both numbers are read from their report by the same key path and row
//! selector, e.g. `tiers[store="file"].result.accesses_per_sec`, and a
//! report missing the key fails the check.  A ratio with a fixed target (the tiered/file speedup floor)
//! is checked in the same form against the target.  Each check is logged;
//! after the last one the driver exits 1 if any failed.
//!
//! Rates are machine-dependent, so a gate means something only against a
//! baseline recorded on comparable hardware — which is the CI use: the same
//! runner class on every push.

use path_oram::{AccessOp, OramBackend, OramParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::Instant;

/// Which window/geometry profile a driver runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// `--quick`: small geometry, short windows.
    Quick,
    /// `--smoke`: the CI profile.
    Smoke,
    /// No profile flag: the full run the checked-in baselines come from.
    Full,
}

impl Profile {
    /// The label written into each report's `"profile"` field.
    pub fn label(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Smoke => "smoke",
            Profile::Full => "full",
        }
    }

    /// Picks this profile's value out of one per profile.
    pub fn pick<T>(self, quick: T, smoke: T, full: T) -> T {
        match self {
            Profile::Quick => quick,
            Profile::Smoke => smoke,
            Profile::Full => full,
        }
    }
}

/// The process arguments, with the shared flags (see the module docs) and a
/// `--name value` lookup for driver-specific ones.
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// The flags of this process.
    pub fn from_env() -> Self {
        Flags {
            args: std::env::args().collect(),
        }
    }

    /// Whether the bare flag `name` was passed.
    pub fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The argument following the first `name`, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// The profile: `--smoke`, else `--quick`, else full.
    pub fn profile(&self) -> Profile {
        if self.has("--smoke") {
            Profile::Smoke
        } else if self.has("--quick") {
            Profile::Quick
        } else {
            Profile::Full
        }
    }

    /// The `--out` path, or `default`.
    pub fn out<'a>(&'a self, default: &'a str) -> &'a str {
        self.value("--out").unwrap_or(default)
    }

    /// The gate over the `--gate` baseline, if one was named.
    ///
    /// # Panics
    ///
    /// If the baseline cannot be read or is not valid JSON.
    pub fn gate(&self) -> Option<Gate> {
        self.value("--gate").map(Gate::open)
    }
}

/// Best-of-windows measurement shape: `warmup` untimed ops, then `windows`
/// windows of at least `min` ops and `min_secs` seconds each, capped at
/// `max` ops.  The best window is the least-interfered-with estimate on a
/// shared machine.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    /// Untimed ops before the first window.
    pub warmup: u64,
    /// Number of timed windows.
    pub windows: u32,
    /// Per-window floor on ops.
    pub min: u64,
    /// Per-window floor on seconds.
    pub min_secs: f64,
    /// Per-window ceiling on ops (bounds slow configurations).
    pub max: u64,
}

/// What a [`Windows`] run measured.
#[derive(Clone, Copy, Debug)]
pub struct Rate {
    /// Ops per second of the best window.
    pub best: f64,
    /// Ops over all timed windows (the denominator for per-op counters).
    pub total: u64,
}

impl Windows {
    /// Runs the warmup through `ops`, then `after_warmup` (typically a stats
    /// reset), then the timed windows, each as repeated `ops(state, chunk)`
    /// calls.  `ops(state, n)` runs about `n` ops and returns how many it
    /// did.
    pub fn run<S: ?Sized>(
        &self,
        state: &mut S,
        chunk: u64,
        mut ops: impl FnMut(&mut S, u64) -> u64,
        after_warmup: impl FnOnce(&mut S),
    ) -> Rate {
        if self.warmup > 0 {
            ops(state, self.warmup);
        }
        after_warmup(state);
        let mut rate = Rate {
            best: 0.0,
            total: 0,
        };
        for _ in 0..self.windows {
            let start = Instant::now();
            let mut done = 0u64;
            loop {
                done += ops(state, chunk);
                let secs = start.elapsed().as_secs_f64();
                if done >= self.max || (done >= self.min && secs >= self.min_secs) {
                    break;
                }
            }
            rate.best = rate.best.max(done as f64 / start.elapsed().as_secs_f64());
            rate.total += done;
        }
        rate
    }
}

/// The mixed read/write backend workload: a uniform address and a fresh
/// uniform leaf per access (the frontend's remap, played with a flat
/// position map), even-numbered accesses of each run read, odd ones write.
struct BackendWorkload {
    rng: StdRng,
    posmap: Vec<u64>,
    leaves: u64,
    write: Vec<u8>,
    out: Vec<u8>,
}

impl BackendWorkload {
    fn new(params: &OramParams, seed: u64, write_byte: u8) -> Self {
        let leaves = params.num_leaves();
        let mut rng = StdRng::seed_from_u64(seed);
        let posmap = (0..params.num_blocks)
            .map(|_| rng.gen_range(0..leaves))
            .collect();
        BackendWorkload {
            rng,
            posmap,
            leaves,
            write: vec![write_byte; params.block_bytes],
            out: Vec::new(),
        }
    }

    fn run<B: OramBackend>(&mut self, backend: &mut B, n: u64) -> u64 {
        let blocks = self.posmap.len() as u64;
        for i in 0..n {
            let addr = self.rng.gen_range(0..blocks);
            let new_leaf = self.rng.gen_range(0..self.leaves);
            let slot = usize::try_from(addr).expect("bench address fits usize");
            let old_leaf = std::mem::replace(&mut self.posmap[slot], new_leaf);
            let (op, data) = if i.is_multiple_of(2) {
                (AccessOp::Read, None)
            } else {
                (AccessOp::Write, Some(&self.write[..]))
            };
            backend
                .access_into(op, addr, old_leaf, new_leaf, data, &mut self.out)
                .expect("benchmark access");
        }
        n
    }
}

/// Measures `backend` under the mixed workload seeded with `seed` and
/// writing `write_byte`-filled blocks, `chunk` accesses between clock
/// checks.  Stats are reset after the warmup, so `backend.stats()` covers
/// exactly the [`Rate::total`] timed accesses.
pub fn measure_backend<B: OramBackend>(
    backend: &mut B,
    windows: &Windows,
    seed: u64,
    write_byte: u8,
    chunk: u64,
) -> Rate {
    let mut work = BackendWorkload::new(backend.params(), seed, write_byte);
    windows.run(backend, chunk, |b, n| work.run(b, n), B::reset_stats)
}

/// The result record of the access-level drivers: `accesses`,
/// `accesses_per_sec`, `ns_per_access` and `bytes_moved_per_access`,
/// followed by `extra`.
pub fn access_record(
    rate: Rate,
    bytes_moved: u64,
    extra: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    let fields = [
        ("accesses", rate.total.into()),
        ("accesses_per_sec", Json::fixed(rate.best, 1)),
        ("ns_per_access", Json::fixed(1e9 / rate.best, 1)),
        (
            "bytes_moved_per_access",
            Json::fixed(bytes_moved as f64 / rate.total as f64, 1),
        ),
    ];
    Json::obj(fields.into_iter().chain(extra))
}

/// Writes `report` to `path` and says so on stderr.
///
/// # Panics
///
/// If the file cannot be written.
pub fn write_report(path: &str, report: &Json) {
    std::fs::write(path, format!("{report}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// A JSON value.  Objects keep their fields in insertion order, so reports
/// are written in the order the drivers build them.
#[derive(Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number and the decimal places it is written with (`None`: the
    /// shortest form that reads back exactly).  Equality ignores the places.
    Num(f64, Option<usize>),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number written with `places` decimals.
    pub fn fixed(value: f64, places: usize) -> Json {
        Json::Num(value, Some(places))
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Describes the first syntax error and its byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader {
            text: text.as_bytes(),
            at: 0,
        };
        let value = reader.value()?;
        reader.skip_space();
        if reader.at != text.len() {
            return Err(format!("trailing input at byte {}", reader.at));
        }
        Ok(value)
    }

    /// The value at `path`: object keys joined by `.`, each optionally
    /// followed by a row selector `[key=value]` that picks the first element
    /// of an array whose field `key` equals the JSON literal `value`, e.g.
    /// `shard_scaling[shards=4].result.accesses_per_sec`.
    pub fn get(&self, path: &str) -> Option<&Json> {
        let mut depth = 0i32;
        let segments = path.split(move |c| {
            match c {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
            c == '.' && depth == 0
        });
        let mut node = self;
        for segment in segments {
            let (name, selector) = match segment.split_once('[') {
                Some((name, rest)) => (name, Some(rest.strip_suffix(']')?)),
                None => (segment, None),
            };
            node = node.field(name)?;
            if let Some(selector) = selector {
                let (key, literal) = selector.split_once('=')?;
                let want = Json::parse(literal).ok()?;
                let Json::Arr(rows) = node else { return None };
                node = rows.iter().find(|row| row.field(key) == Some(&want))?;
            }
        }
        Some(node)
    }

    /// The number at `path` (see [`Json::get`]).
    pub fn num(&self, path: &str) -> Option<f64> {
        match self.get(path)? {
            Json::Num(value, _) => Some(*value),
            _ => None,
        }
    }

    fn field(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x, _) if !x.is_finite() => f.write_str("null"),
            Json::Num(x, Some(places)) => write!(f, "{x:.places$}"),
            Json::Num(x, None) => write!(f, "{x}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) if items.is_empty() => f.write_str("[]"),
            Json::Obj(fields) if fields.is_empty() => f.write_str("{}"),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    f.write_str(if i == 0 { "\n" } else { ",\n" })?;
                    f.write_str(&pad)?;
                    item.write(f, indent + 1)?;
                }
                write!(f, "\n{close}]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i == 0 { "\n" } else { ",\n" })?;
                    f.write_str(&pad)?;
                    write_str(f, key)?;
                    f.write_str(": ")?;
                    value.write(f, indent + 1)?;
                }
                write!(f, "\n{close}}}")
            }
        }
    }
}

/// Pretty-prints with two-space indentation.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a, _), Json::Num(b, _)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x, None)
    }
}

macro_rules! json_from_count {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64, None)
            }
        }
    )*};
}
json_from_count!(u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Recursive-descent JSON reader over the document's bytes.
struct Reader<'a> {
    text: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn skip_space(&mut self) {
        while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    /// Consumes `byte` after optional whitespace.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_space();
        let found = self.text.get(self.at) == Some(&byte);
        if found {
            self.at += 1;
        }
        found
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        let text = self.text;
        let rest = &text[self.at..];
        for (word, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(value);
            }
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(b']', |r| r.value().map(|item| items.push(item)))?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.list(b'}', |r| {
                    r.skip_space();
                    let key = r.string()?;
                    if !r.eat(b':') {
                        return Err(r.error("expected ':'"));
                    }
                    fields.push((key, r.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'-' | b'0'..=b'9') => {
                let len = rest
                    .iter()
                    .position(|b| !matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                    .unwrap_or(rest.len());
                let number = std::str::from_utf8(&rest[..len])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| self.error("bad number"))?;
                self.at += len;
                Ok(Json::Num(number, None))
            }
            _ => Err(self.error("expected a value")),
        }
    }

    /// Reads `item (, item)*` up to `close`, starting on the opening bracket.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.at += 1;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or a closing bracket"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.text.get(self.at) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        self.at += 1;
        let mut bytes = Vec::new();
        loop {
            let Some(&byte) = self.text.get(self.at) else {
                return Err(self.error("unterminated string"));
            };
            self.at += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let escape = self.text.get(self.at).copied();
                    self.at += 1;
                    let c = match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self.text.get(self.at..self.at + 4);
                            self.at += 4;
                            hex.and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?
                        }
                        _ => return Err(self.error("bad escape")),
                    };
                    bytes.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => bytes.push(byte),
            }
        }
        String::from_utf8(bytes).map_err(|_| self.error("string is not UTF-8"))
    }
}

/// The floor gate over one baseline document (see the module docs for the
/// rule).
pub struct Gate {
    path: String,
    baseline: Json,
    failures: Vec<String>,
}

impl Gate {
    /// Loads the baseline at `path`.
    ///
    /// # Panics
    ///
    /// If the file cannot be read or is not valid JSON.
    pub fn open(path: &str) -> Gate {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("gate baseline {path}: {e}"));
        let baseline = Json::parse(&text).unwrap_or_else(|e| panic!("gate baseline {path}: {e}"));
        Gate::new(path, baseline)
    }

    fn new(path: &str, baseline: Json) -> Gate {
        Gate {
            path: path.to_string(),
            baseline,
            failures: Vec::new(),
        }
    }

    /// Checks `fresh[key] >= baseline[key] × (1 − tolerance)` for the
    /// number at `key` in the fresh report and in the baseline; a document
    /// without `key` fails.
    pub fn at_least(&mut self, fresh: &Json, key: &str, tolerance: f64) {
        match (fresh.num(key), self.baseline.num(key)) {
            (Some(fresh), Some(baseline)) => {
                self.at_least_target(key, fresh, baseline, tolerance);
            }
            (None, _) => self.fail(format!("the fresh report has no {key}")),
            (_, None) => self.fail(format!("baseline {} has no {key}", self.path)),
        }
    }

    /// Checks `fresh >= target × (1 − tolerance)` for a fixed `target`.
    pub fn at_least_target(&mut self, label: &str, fresh: f64, target: f64, tolerance: f64) {
        let floor = target * (1.0 - tolerance);
        eprintln!(
            "perf gate: {label}: {} vs {} (floor {}, tolerance {:.0}%)",
            show(fresh),
            show(target),
            show(floor),
            tolerance * 100.0
        );
        if fresh < floor {
            self.fail(format!(
                "{label}: {} is below the floor {}",
                show(fresh),
                show(floor)
            ));
        }
    }

    fn fail(&mut self, why: String) {
        eprintln!("perf gate FAILED: {why}");
        self.failures.push(why);
    }

    /// Prints the verdict; exits the process with status 1 if any check
    /// failed.
    pub fn finish(self) {
        if self.failures.is_empty() {
            eprintln!("perf gate passed");
        } else {
            eprintln!("perf gate FAILED: {} check(s) failed", self.failures.len());
            std::process::exit(1);
        }
    }
}

/// Rates to the unit, ratios to four places.
fn show(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(text: &str) -> Json {
        Json::parse(text).expect("valid JSON")
    }

    #[test]
    fn reader_returns_the_gated_numbers_of_the_checked_in_baselines() {
        let cases = [
            (
                include_str!("../../../BENCH_backend.json"),
                r#"backend_comparison[mode="aes_global_seed"].optimized.accesses_per_sec"#,
                130593.3,
            ),
            (
                include_str!("../../../BENCH_shards.json"),
                "shard_scaling[shards=4].result.accesses_per_sec",
                30287.4,
            ),
            (
                include_str!("../../../BENCH_storage.json"),
                r#"tiers[store="mem"].result.accesses_per_sec"#,
                118497.8,
            ),
            (
                include_str!("../../../BENCH_storage.json"),
                r#"tiers[store="file"].result.accesses_per_sec"#,
                53727.4,
            ),
            (
                include_str!("../../../BENCH_storage.json"),
                r#"tiers[store="tiered"].result.accesses_per_sec"#,
                126492.9,
            ),
            (
                include_str!("../../../BENCH_durability.json"),
                "batch_relative_rate",
                0.2099,
            ),
            (
                include_str!("../../../BENCH_omap.json"),
                r#"workloads[workload="A"].ops_per_sec"#,
                11207.3,
            ),
            (
                include_str!("../../../BENCH_omap.json"),
                r#"workloads[workload="B"].ops_per_sec"#,
                11433.2,
            ),
            (
                include_str!("../../../BENCH_omap.json"),
                r#"workloads[workload="C"].ops_per_sec"#,
                11363.9,
            ),
            (
                include_str!("../../../BENCH_service.json"),
                "single_conn.requests_per_sec",
                8094.8,
            ),
        ];
        for (text, key, want) in cases {
            assert_eq!(read(text).num(key), Some(want), "{key}");
        }
    }

    #[test]
    fn writer_output_reads_back_to_the_same_document() {
        let doc = Json::obj([
            ("name", Json::from("tab\t\"quoted\" \\ \u{1}")),
            ("count", 1_048_576u64.into()),
            ("rate", Json::fixed(130593.3, 1)),
            ("fraction", 0.95.into()),
            ("flag", false.into()),
            ("none", Json::Null),
            ("empty", Json::Arr(Vec::new())),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("shards", 4u64.into())]),
                    Json::obj::<&str>([]),
                ]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(read(&text), doc);
        assert_eq!(read(&text).to_string(), text);
        assert!(text.contains("\n  \"rate\": 130593.3,\n"), "{text}");
    }

    #[test]
    fn row_selector_matches_whole_values_only() {
        let doc = read(
            r#"{"rows": [{"shards": 40, "rate": 1.0}, {"shards": 4, "rate": 2.0}],
                "label": "x"}"#,
        );
        assert_eq!(doc.num("rows[shards=4].rate"), Some(2.0));
        assert_eq!(doc.num("rows[shards=40].rate"), Some(1.0));
        assert_eq!(doc.num("rows[shards=400].rate"), None);
        assert_eq!(doc.num("label"), None);
        assert!(Json::parse(r#"{"a": 1,}"#).is_err());
    }

    #[test]
    fn a_baseline_missing_a_gated_row_fails_the_gate() {
        let fresh = read(include_str!("../../../BENCH_storage.json"));
        let keys = ["mem", "file", "tiered"]
            .map(|store| format!("tiers[store=\"{store}\"].result.accesses_per_sec"));
        let mut gate = Gate::new("intact", read(&fresh.to_string()));
        for key in &keys {
            gate.at_least(&fresh, key, 0.20);
        }
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);

        let text = fresh
            .to_string()
            .replace(r#""store": "file""#, r#""store": "renamed""#);
        let mut gate = Gate::new("lost its file row", read(&text));
        for key in &keys {
            gate.at_least(&fresh, key, 0.20);
        }
        assert_eq!(gate.failures.len(), 1, "{:?}", gate.failures);
        assert!(gate.failures[0].contains("file"));
    }

    #[test]
    fn gate_floor_is_baseline_times_one_minus_tolerance() {
        let mut gate = Gate::new("b", read(r#"{"rate": 100.0}"#));
        gate.at_least(&read(r#"{"rate": 80.5}"#), "rate", 0.20);
        assert!(gate.failures.is_empty());
        gate.at_least(&read(r#"{"rate": 79.5}"#), "rate", 0.20);
        gate.at_least_target("ratio", 1.5, 2.0, 0.20);
        assert_eq!(gate.failures.len(), 2);
    }

    #[test]
    fn flags_give_the_profile_and_flag_values() {
        let flags = |args: &[&str]| Flags {
            args: args.iter().map(|a| a.to_string()).collect(),
        };
        assert_eq!(flags(&["bin"]).profile(), Profile::Full);
        assert_eq!(flags(&["bin", "--quick"]).profile(), Profile::Quick);
        assert_eq!(
            flags(&["bin", "--quick", "--smoke"]).profile(),
            Profile::Smoke
        );
        let f = flags(&["bin", "--gate", "b.json", "--out"]);
        assert_eq!(f.value("--gate"), Some("b.json"));
        assert_eq!(f.out("BENCH_x.json"), "BENCH_x.json");
    }
}
