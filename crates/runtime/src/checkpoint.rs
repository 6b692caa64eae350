//! Versioned on-disk snapshots of a search job.
//!
//! A checkpoint is the serialized form of a
//! [`SearchState`](lightnas::SearchState) plus the immutable run parameters
//! (`target`, `seed`, [`SearchConfig`]) it belongs to, so a resumed runtime
//! can both rebuild the stepper and *refuse* a checkpoint that was written
//! by a different job.
//!
//! # Format (`lightnas-checkpoint v2`)
//!
//! A line-oriented text format, one `key value...` record per line, closed
//! by a `checksum` line and an `end` line. The `end` terminator guards
//! against truncated writes (on top of the atomic temp-file + rename
//! protocol used by [`Checkpoint::save`]); the mandatory `checksum` line —
//! FNV-1a 64 over every record line between the version line and the
//! checksum itself, each including its trailing newline — catches *silent*
//! corruption: a flipped bit inside a hex word still parses as a valid
//! `f64`, so without the checksum it would resurrect a subtly wrong state
//! and break bit-identical resume undetectably.
//! Every `f64` is serialized as the 16-hex-digit form of its IEEE-754 bits
//! (`f64::to_bits`), **not** as a decimal — resume must be bit-identical,
//! and decimal round-trips are where bit-identity goes to die.
//!
//! ```text
//! lightnas-checkpoint v2
//! target 4038000000000000
//! seed 7
//! config 30 30 3 3f68db8bac710cb3 3f50624dd2f1a9fc 3f70624dd2f1a9fc 4014000000000000 3fb999999999999a
//! epoch 7
//! global_step 210
//! lambda bfb32af5bcc91d11
//! rng 9a3298211f1c5f2d ... (4 words)
//! adam_t 120
//! alpha 0 3fb32af5bcc91d11 ... (7 words; 21 rows)
//! adam_m 0 ... / adam_v 0 ...
//! trace 0 <sampled> <argmax> <lambda> <tau> <valid_loss>
//! checksum 41bd4327cbd19d51
//! end
//! ```

use std::fmt;
use std::io::Write;
use std::path::Path;

use lightnas::{AdamState, EpochRecord, SearchConfig, SearchState, SearchTrace};
use lightnas_space::{NUM_OPS, SEARCHABLE_LAYERS};

/// The format identifier written as the first line of every checkpoint.
pub const CHECKPOINT_VERSION: &str = "lightnas-checkpoint v2";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a 64 hash.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Checksum of the record body: every line (with its trailing newline)
/// between the version line and the `checksum` line.
fn body_checksum<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    lines.into_iter().fold(FNV_OFFSET, |h, line| {
        fnv1a(fnv1a(h, line.as_bytes()), b"\n")
    })
}

/// Why a checkpoint could not be saved, loaded, or used.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The first line did not name a supported format version.
    UnsupportedVersion(String),
    /// A record line was missing, duplicated, or unparsable.
    Malformed {
        /// 1-based line number (0 when the problem is file-global).
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The body hash does not match the stamped `checksum` line — the file
    /// was silently corrupted after it was written.
    ChecksumMismatch {
        /// The checksum stamped in the file.
        stamped: u64,
        /// The checksum computed over the body as read.
        computed: u64,
    },
    /// The checkpoint belongs to a different job (target/seed/config).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v:?} (expected {CHECKPOINT_VERSION:?})"
                )
            }
            CheckpointError::Malformed { line, reason } => {
                write!(f, "malformed checkpoint at line {line}: {reason}")
            }
            CheckpointError::ChecksumMismatch { stamped, computed } => {
                write!(
                    f,
                    "checkpoint checksum mismatch: file says {stamped:016x}, body hashes to {computed:016x}"
                )
            }
            CheckpointError::Mismatch(what) => {
                write!(f, "checkpoint belongs to a different job: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A serializable snapshot of one search job between epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The constraint target `T` the job searches for.
    pub target: f64,
    /// The job's RNG seed.
    pub seed: u64,
    /// The schedule the job runs.
    pub config: SearchConfig,
    /// The complete mutable search state.
    pub state: SearchState,
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parses a full 16-hex-digit `u64` word. The length check is load-bearing:
/// `from_str_radix` happily accepts `"3f"` (a *truncated* `lambda`/`rng`
/// record would silently resurrect a garbage value), so anything shorter or
/// longer than the canonical `{:016x}` form is typed corruption, not data.
fn parse_hex_u64(tok: &str) -> Result<u64, String> {
    if tok.len() != 16 {
        return Err(format!(
            "bad hex word {tok:?}: want exactly 16 hex digits, got {} (truncated record?)",
            tok.len()
        ));
    }
    u64::from_str_radix(tok, 16).map_err(|_| format!("bad hex word {tok:?}"))
}

fn parse_hex_f64(tok: &str) -> Result<f64, String> {
    parse_hex_u64(tok).map(f64::from_bits)
}

fn parse_int<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, String> {
    tok.parse().map_err(|_| format!("bad {what} {tok:?}"))
}

/// Stores the value of the scalar record `key` read at `line`. A second
/// record of the same key is corruption: the last one would otherwise win.
fn set_once<T>(
    slot: &mut Option<T>,
    value: T,
    key: &str,
    line: usize,
) -> Result<(), CheckpointError> {
    match slot.replace(value) {
        Some(_) => Err(CheckpointError::Malformed {
            line,
            reason: format!("duplicated {key} record"),
        }),
        None => Ok(()),
    }
}

/// One table of `SEARCHABLE_LAYERS` rows (`alpha`, `adam_m`, `adam_v`) and
/// which of its indices a record has filled.
struct RowTable {
    rows: Vec<[f64; NUM_OPS]>,
    seen: [bool; SEARCHABLE_LAYERS],
}

impl RowTable {
    fn new() -> Self {
        Self {
            rows: vec![[0.0; NUM_OPS]; SEARCHABLE_LAYERS],
            seen: [false; SEARCHABLE_LAYERS],
        }
    }

    /// Parses `row` + `NUM_OPS` hex words into `rows[row]`, refusing an
    /// index that an earlier record already filled.
    fn parse(&mut self, rest: &[&str], what: &str) -> Result<(), String> {
        if rest.len() != 1 + NUM_OPS {
            return Err(format!("{what} row needs an index and {NUM_OPS} values"));
        }
        let idx: usize = parse_int(rest[0], "row index")?;
        if idx >= SEARCHABLE_LAYERS {
            return Err(format!("{what} row {idx} out of range"));
        }
        if std::mem::replace(&mut self.seen[idx], true) {
            return Err(format!("duplicated {what} row {idx}"));
        }
        for (k, tok) in rest[1..].iter().enumerate() {
            self.rows[idx][k] = parse_hex_f64(tok)?;
        }
        Ok(())
    }

    /// The rows, once every index has been filled.
    fn finish(self, what: &str) -> Result<Vec<[f64; NUM_OPS]>, String> {
        match self.seen.iter().position(|&seen| !seen) {
            Some(idx) => Err(format!("{what} row {idx} is missing")),
            None => Ok(self.rows),
        }
    }
}

impl Checkpoint {
    /// Bundles a job's identity with a state snapshot.
    pub fn new(target: f64, seed: u64, config: SearchConfig, state: SearchState) -> Self {
        Self {
            target,
            seed,
            config,
            state,
        }
    }

    /// `Ok` iff this checkpoint was written by the job described by
    /// `(target, seed, config)` — bit-exact on the target, exact on the
    /// seed and every config field.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Mismatch`] naming the differing field.
    pub fn verify_matches(
        &self,
        target: f64,
        seed: u64,
        config: &SearchConfig,
    ) -> Result<(), CheckpointError> {
        if self.target.to_bits() != target.to_bits() {
            return Err(CheckpointError::Mismatch(format!(
                "target {} vs {}",
                self.target, target
            )));
        }
        if self.seed != seed {
            return Err(CheckpointError::Mismatch(format!(
                "seed {} vs {}",
                self.seed, seed
            )));
        }
        if self.config != *config {
            return Err(CheckpointError::Mismatch("config differs".into()));
        }
        Ok(())
    }

    /// The checkpoint in its on-disk text form.
    pub fn render(&self) -> String {
        let c = &self.config;
        let s = &self.state;
        let mut out = String::with_capacity(8 * 1024);
        out.push_str(&format!("target {}\n", hex(self.target)));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!(
            "config {} {} {} {} {} {} {} {}\n",
            c.epochs,
            c.steps_per_epoch,
            c.warmup_epochs,
            hex(c.alpha_lr),
            hex(c.alpha_weight_decay),
            hex(c.lambda_lr),
            hex(c.tau_start),
            hex(c.tau_end),
        ));
        out.push_str(&format!("epoch {}\n", s.epoch));
        out.push_str(&format!("global_step {}\n", s.global_step));
        out.push_str(&format!("lambda {}\n", hex(s.lambda)));
        out.push_str(&format!(
            "rng {:016x} {:016x} {:016x} {:016x}\n",
            s.rng[0], s.rng[1], s.rng[2], s.rng[3]
        ));
        out.push_str(&format!("adam_t {}\n", s.adam.t));
        let row = |name: &str, i: usize, r: &[f64; NUM_OPS]| {
            let words: Vec<String> = r.iter().map(|&v| hex(v)).collect();
            format!("{name} {i} {}\n", words.join(" "))
        };
        for (i, r) in s.alpha.iter().enumerate() {
            out.push_str(&row("alpha", i, r));
        }
        for (i, r) in s.adam.m.iter().enumerate() {
            out.push_str(&row("adam_m", i, r));
        }
        for (i, r) in s.adam.v.iter().enumerate() {
            out.push_str(&row("adam_v", i, r));
        }
        for r in s.trace.records() {
            out.push_str(&format!(
                "trace {} {} {} {} {} {}\n",
                r.epoch,
                hex(r.sampled_metric),
                hex(r.argmax_metric),
                hex(r.lambda),
                hex(r.tau),
                hex(r.valid_loss),
            ));
        }
        // `out` so far is exactly the hashed body: stamp it, then prepend
        // the version line and close with `end`.
        let stamp = body_checksum(out.lines());
        format!("{CHECKPOINT_VERSION}\n{out}checksum {stamp:016x}\nend\n")
    }

    /// Parses the text form produced by [`render`](Self::render).
    ///
    /// Every checkpoint it accepts can resume: its records are consistent
    /// with each other, so
    /// [`SearchStepper::from_state`](lightnas::SearchStepper::from_state)
    /// takes its config, target and state without panicking.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::UnsupportedVersion`] for a foreign first
    /// line, [`CheckpointError::ChecksumMismatch`] when the body does not
    /// hash to the stamped checksum, or [`CheckpointError::Malformed`] for
    /// missing, duplicated (a scalar record or a row index seen twice) or
    /// unparsable records, a missing `checksum` / `end` terminator, or a
    /// state the stepper cannot resume: a config that fails
    /// [`SearchConfig::validate`], a target that is not positive, an
    /// all-zero RNG state, an epoch past the schedule, or a trace that does
    /// not hold one record per completed epoch.
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let bad = |line: usize, reason: String| CheckpointError::Malformed { line, reason };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, v)) if v == CHECKPOINT_VERSION => {}
            Some((_, v)) => return Err(CheckpointError::UnsupportedVersion(v.to_string())),
            None => return Err(CheckpointError::UnsupportedVersion(String::new())),
        }
        let mut target = None;
        let mut seed = None;
        let mut config = None;
        let mut epoch = None;
        let mut global_step = None;
        let mut lambda = None;
        let mut rng = None;
        let mut adam_t = None;
        let mut alpha = RowTable::new();
        let mut adam_m = RowTable::new();
        let mut adam_v = RowTable::new();
        let mut trace = SearchTrace::new();
        let mut terminated = false;
        let mut stamped = None;
        let mut running = FNV_OFFSET;
        for (i, line) in lines {
            let ln = i + 1;
            let toks: Vec<&str> = line.split_whitespace().collect();
            let (&key, rest) = match toks.split_first() {
                Some(split) => split,
                None => continue,
            };
            if key != "checksum" && key != "end" {
                running = fnv1a(fnv1a(running, line.as_bytes()), b"\n");
            }
            let one = |rest: &[&str]| -> Result<String, CheckpointError> {
                match rest {
                    [tok] => Ok(tok.to_string()),
                    _ => Err(bad(ln, format!("{key} needs exactly one value"))),
                }
            };
            match key {
                "target" => {
                    let value = parse_hex_f64(&one(rest)?).map_err(|r| bad(ln, r))?;
                    if value.is_nan() || value <= 0.0 {
                        return Err(bad(ln, format!("target {value} is not positive")));
                    }
                    set_once(&mut target, value, key, ln)?;
                }
                "seed" => {
                    let value = parse_int(&one(rest)?, "seed").map_err(|r| bad(ln, r))?;
                    set_once(&mut seed, value, key, ln)?;
                }
                "config" => {
                    if rest.len() != 8 {
                        return Err(bad(ln, "config needs 8 fields".into()));
                    }
                    let value = SearchConfig {
                        epochs: parse_int(rest[0], "epochs").map_err(|r| bad(ln, r))?,
                        steps_per_epoch: parse_int(rest[1], "steps_per_epoch")
                            .map_err(|r| bad(ln, r))?,
                        warmup_epochs: parse_int(rest[2], "warmup_epochs")
                            .map_err(|r| bad(ln, r))?,
                        alpha_lr: parse_hex_f64(rest[3]).map_err(|r| bad(ln, r))?,
                        alpha_weight_decay: parse_hex_f64(rest[4]).map_err(|r| bad(ln, r))?,
                        lambda_lr: parse_hex_f64(rest[5]).map_err(|r| bad(ln, r))?,
                        tau_start: parse_hex_f64(rest[6]).map_err(|r| bad(ln, r))?,
                        tau_end: parse_hex_f64(rest[7]).map_err(|r| bad(ln, r))?,
                    };
                    value
                        .validate()
                        .map_err(|e| bad(ln, format!("invalid config: {e}")))?;
                    set_once(&mut config, value, key, ln)?;
                }
                "epoch" => {
                    let value = parse_int(&one(rest)?, "epoch").map_err(|r| bad(ln, r))?;
                    set_once(&mut epoch, value, key, ln)?;
                }
                "global_step" => {
                    let value = parse_int(&one(rest)?, "global_step").map_err(|r| bad(ln, r))?;
                    set_once(&mut global_step, value, key, ln)?;
                }
                "lambda" => {
                    let value = parse_hex_f64(&one(rest)?).map_err(|r| bad(ln, r))?;
                    set_once(&mut lambda, value, key, ln)?;
                }
                "rng" => {
                    if rest.len() != 4 {
                        return Err(bad(ln, "rng needs 4 words".into()));
                    }
                    let mut words = [0u64; 4];
                    for (w, tok) in words.iter_mut().zip(rest) {
                        *w = parse_hex_u64(tok)
                            .map_err(|r| bad(ln, format!("bad rng word: {r}")))?;
                    }
                    if words == [0; 4] {
                        return Err(bad(ln, "rng state is all zero".into()));
                    }
                    set_once(&mut rng, words, key, ln)?;
                }
                "adam_t" => {
                    let value = parse_int(&one(rest)?, "adam_t").map_err(|r| bad(ln, r))?;
                    set_once(&mut adam_t, value, key, ln)?;
                }
                "alpha" => alpha.parse(rest, key).map_err(|r| bad(ln, r))?,
                "adam_m" => adam_m.parse(rest, key).map_err(|r| bad(ln, r))?,
                "adam_v" => adam_v.parse(rest, key).map_err(|r| bad(ln, r))?,
                "trace" => {
                    if rest.len() != 6 {
                        return Err(bad(ln, "trace needs 6 fields".into()));
                    }
                    trace.push(EpochRecord {
                        epoch: parse_int(rest[0], "trace epoch").map_err(|r| bad(ln, r))?,
                        sampled_metric: parse_hex_f64(rest[1]).map_err(|r| bad(ln, r))?,
                        argmax_metric: parse_hex_f64(rest[2]).map_err(|r| bad(ln, r))?,
                        lambda: parse_hex_f64(rest[3]).map_err(|r| bad(ln, r))?,
                        tau: parse_hex_f64(rest[4]).map_err(|r| bad(ln, r))?,
                        valid_loss: parse_hex_f64(rest[5]).map_err(|r| bad(ln, r))?,
                    });
                }
                "checksum" => {
                    let tok = one(rest)?;
                    let value =
                        parse_hex_u64(&tok).map_err(|r| bad(ln, format!("bad checksum: {r}")))?;
                    set_once(&mut stamped, value, key, ln)?;
                }
                "end" => {
                    terminated = true;
                    break;
                }
                other => return Err(bad(ln, format!("unknown record {other:?}"))),
            }
        }
        if !terminated {
            return Err(bad(0, "missing `end` terminator (truncated file?)".into()));
        }
        match stamped {
            None => return Err(bad(0, "missing checksum record".into())),
            Some(stamped) if stamped != running => {
                return Err(CheckpointError::ChecksumMismatch {
                    stamped,
                    computed: running,
                })
            }
            Some(_) => {}
        }
        let table = |rows: RowTable, what: &str| rows.finish(what).map_err(|r| bad(0, r));
        let (alpha, adam_m, adam_v) = (
            table(alpha, "alpha")?,
            table(adam_m, "adam_m")?,
            table(adam_v, "adam_v")?,
        );
        let missing = |what: &str| bad(0, format!("missing {what} record"));
        let config = config.ok_or_else(|| missing("config"))?;
        let epoch = epoch.ok_or_else(|| missing("epoch"))?;
        if epoch > config.epochs {
            return Err(bad(
                0,
                format!("epoch {epoch} is past the {}-epoch schedule", config.epochs),
            ));
        }
        if trace.records().len() != epoch {
            return Err(bad(
                0,
                format!(
                    "{} trace records for {epoch} completed epochs",
                    trace.records().len()
                ),
            ));
        }
        Ok(Self {
            target: target.ok_or_else(|| missing("target"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            config,
            state: SearchState {
                epoch,
                global_step: global_step.ok_or_else(|| missing("global_step"))?,
                alpha,
                lambda: lambda.ok_or_else(|| missing("lambda"))?,
                adam: AdamState {
                    t: adam_t.ok_or_else(|| missing("adam_t"))?,
                    m: adam_m,
                    v: adam_v,
                },
                rng: rng.ok_or_else(|| missing("rng"))?,
                trace,
            },
        })
    }

    /// Writes the checkpoint atomically and durably: the text goes to
    /// `<path>.tmp`, is fsynced, and is then renamed over `path`, so a
    /// crash mid-write leaves either the previous checkpoint or none —
    /// never a torn one. After the rename the parent directory is fsynced
    /// (best-effort) so the *rename itself* survives a power cut; without
    /// it, the directory entry can still point at the old inode after a
    /// crash even though the data blocks were durable.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.render().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            // Best-effort: some filesystems reject directory fsync, and a
            // missed one only weakens crash durability, not correctness.
            let _ = std::fs::File::open(dir).and_then(|d| d.sync_all());
        }
        Ok(())
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors and [`parse`](Self::parse) failures.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::parse(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut state = SearchState::fresh(42);
        state.epoch = 2;
        state.global_step = 60;
        state.lambda = -0.062_5;
        state.alpha[3][5] = 1.5e-3;
        state.adam.t = 60;
        state.adam.m[0][1] = -3.25e-7;
        state.adam.v[20][6] = 9.0e-9;
        for epoch in 0..2 {
            state.trace.push(EpochRecord {
                epoch,
                sampled_metric: 21.75 + epoch as f64,
                argmax_metric: 22.5,
                lambda: 0.031_25,
                tau: 4.5,
                valid_loss: 2.125,
            });
        }
        Checkpoint::new(24.0, 42, SearchConfig::fast(), state)
    }

    #[test]
    fn render_parse_round_trip_is_exact() {
        let ck = sample();
        let back = Checkpoint::parse(&ck.render()).expect("round trip");
        assert_eq!(back, ck);
        assert_eq!(back.state.lambda.to_bits(), ck.state.lambda.to_bits());
        assert_eq!(back.state.rng, ck.state.rng);
    }

    #[test]
    fn round_trip_survives_awkward_floats() {
        let mut ck = sample();
        ck.state.lambda = f64::from_bits(0x3ff0_0000_0000_0001); // 1 + ulp
        ck.state.alpha[0][0] = -0.0;
        ck.state.alpha[0][1] = f64::MIN_POSITIVE / 2.0; // subnormal
        let back = Checkpoint::parse(&ck.render()).expect("round trip");
        assert_eq!(back.state.lambda.to_bits(), ck.state.lambda.to_bits());
        assert_eq!(back.state.alpha[0][0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            back.state.alpha[0][1].to_bits(),
            ck.state.alpha[0][1].to_bits()
        );
    }

    #[test]
    fn save_load_round_trip_and_no_tmp_left_behind() {
        let dir = std::env::temp_dir().join(format!("lightnas-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("job0.ckpt");
        let ck = sample();
        ck.save(&path).expect("save");
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file must be renamed away"
        );
        assert_eq!(Checkpoint::load(&path).expect("load"), ck);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_version_is_rejected() {
        let err = Checkpoint::parse("lightnas-checkpoint v99\nend\n").unwrap_err();
        assert!(
            matches!(err, CheckpointError::UnsupportedVersion(_)),
            "{err}"
        );
    }

    #[test]
    fn truncated_file_is_rejected() {
        let full = sample().render();
        let cut = &full[..full.len() - 5]; // chop the `end` line
        let err = Checkpoint::parse(cut).unwrap_err();
        assert!(err.to_string().contains("end"), "{err}");
    }

    /// Rewrites the `checksum` line to match a (tampered) body, so tests
    /// can reach the record-level validation behind the checksum gate.
    fn restamp(text: &str) -> String {
        let body: Vec<&str> = text
            .lines()
            .skip(1)
            .filter(|l| !l.starts_with("checksum") && *l != "end")
            .collect();
        let stamp = body_checksum(body.iter().copied());
        let mut out = format!("{CHECKPOINT_VERSION}\n");
        for line in &body {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!("checksum {stamp:016x}\nend\n"));
        out
    }

    /// Regression: a `lambda` record whose hex word was cut short (torn
    /// write, interrupted copy) must surface as the *typed* corrupt-
    /// checkpoint error — never panic, and never silently parse the prefix
    /// as a tiny subnormal (which `from_str_radix` would happily do).
    #[test]
    fn truncated_lambda_value_is_typed_corruption_not_a_panic() {
        let text = sample().render();
        let lambda_line = text
            .lines()
            .find(|l| l.starts_with("lambda "))
            .expect("lambda record");
        let value = lambda_line
            .strip_prefix("lambda ")
            .expect("prefix just matched");
        for keep in [0, 1, 8, 15] {
            let truncated_line = format!("lambda {}", &value[..keep]).trim_end().to_string();
            // Restamped so the checksum gate passes and the record-level
            // validation is what actually rejects the truncation.
            let tampered = restamp(&text.replace(lambda_line, &truncated_line));
            let err = Checkpoint::parse(&tampered).unwrap_err();
            match err {
                CheckpointError::Malformed { line, ref reason } => {
                    assert!(line > 0, "truncation points at its line: {err}");
                    assert!(
                        reason.contains("16 hex digits") || reason.contains("exactly one value"),
                        "reason must name the truncation: {reason}"
                    );
                }
                other => panic!("want Malformed, got {other}"),
            }
        }
        // Without restamping it is still typed: the single-pass parser
        // rejects the record before ever reaching the (now stale) checksum.
        let half = format!("lambda {}", &value[..8]);
        let err = Checkpoint::parse(&text.replace(lambda_line, &half)).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }), "{err}");
    }

    #[test]
    fn truncated_rng_word_is_typed_corruption() {
        let text = sample().render();
        let rng_line = text
            .lines()
            .find(|l| l.starts_with("rng "))
            .expect("rng record");
        let cut = rng_line[..rng_line.len() - 6].to_string();
        let err = Checkpoint::parse(&restamp(&text.replace(rng_line, &cut))).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Malformed { .. }),
            "truncated rng word must be typed: {err}"
        );
    }

    #[test]
    fn missing_and_malformed_records_are_rejected() {
        let no_seed = restamp(
            &sample()
                .render()
                .lines()
                .filter(|l| !l.starts_with("seed"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
        assert!(Checkpoint::parse(&no_seed)
            .unwrap_err()
            .to_string()
            .contains("seed"));
        let garbled = restamp(&sample().render().replace("lambda ", "lambda zz"));
        assert!(Checkpoint::parse(&garbled).is_err());
    }

    #[test]
    fn restamped_identity_round_trips() {
        let ck = sample();
        let text = ck.render();
        assert_eq!(
            restamp(&text),
            text,
            "restamp of an untouched file is a no-op"
        );
    }

    #[test]
    fn flipped_bit_inside_a_valid_hex_word_is_caught() {
        let text = sample().render();
        // Flip one hex digit of the lambda value: still perfectly parsable
        // as an f64 bit pattern, so only the checksum can catch it.
        let lambda_line = text
            .lines()
            .find(|l| l.starts_with("lambda "))
            .expect("lambda record");
        let value = lambda_line
            .strip_prefix("lambda ")
            .expect("prefix just matched");
        let flipped_digit = if value.starts_with('b') { 'a' } else { 'b' };
        let tampered_line = format!("lambda {flipped_digit}{}", &value[1..]);
        let tampered = text.replace(lambda_line, &tampered_line);
        assert!(
            Checkpoint::parse(&restamp(&tampered)).is_ok(),
            "the tampered body must still parse once restamped — otherwise \
             this test is not exercising the checksum"
        );
        let err = Checkpoint::parse(&tampered).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ChecksumMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn missing_checksum_line_is_rejected() {
        let stripped: String = sample()
            .render()
            .lines()
            .filter(|l| !l.starts_with("checksum"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = Checkpoint::parse(&stripped).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    /// `sample()`'s text with every line that starts with `prefix` replaced
    /// by `with(line)` (which may hold several lines), restamped so the
    /// record-level checks are what rejects it.
    fn tampered(prefix: &str, with: impl Fn(&str) -> String) -> String {
        let text: String = sample()
            .render()
            .lines()
            .map(|l| {
                let l = if l.starts_with(prefix) {
                    with(l)
                } else {
                    l.to_string()
                };
                format!("{l}\n")
            })
            .collect();
        restamp(&text)
    }

    /// Files whose records each parse but do not fit together: states
    /// `SearchStepper::from_state` panics on, or that would resume from the
    /// wrong numbers (a missing row read as zeros, the later of two
    /// `target`s).
    #[test]
    fn inconsistent_checkpoints_are_malformed() {
        let twice = |l: &str| format!("{l}\n{l}");
        let cases = [
            (
                "epoch past the schedule",
                tampered("epoch ", |_| "epoch 999".into()),
            ),
            (
                "trace shorter than epoch",
                tampered("epoch ", |_| "epoch 5".into()),
            ),
            (
                "trace longer than epoch",
                tampered("epoch ", |_| "epoch 1".into()),
            ),
            (
                "alpha row 3 twice, row 4 missing",
                tampered("alpha 4 ", |l| l.replacen("alpha 4 ", "alpha 3 ", 1)),
            ),
            ("duplicated target", tampered("target ", twice)),
            ("duplicated lambda", tampered("lambda ", twice)),
            ("duplicated adam_v row", tampered("adam_v 20 ", twice)),
            (
                "config fails validation",
                tampered("config ", |l| l.replacen(" 3 ", " 30 ", 1)),
            ),
            (
                "negative target",
                tampered("target ", |_| format!("target {}", hex(-24.0))),
            ),
            (
                "NaN target",
                tampered("target ", |_| format!("target {}", hex(f64::NAN))),
            ),
            (
                "all-zero rng",
                tampered("rng ", |_| format!("rng{}", " 0000000000000000".repeat(4))),
            ),
        ];
        for (what, text) in cases {
            match Checkpoint::parse(&text) {
                Err(CheckpointError::Malformed { reason, .. }) => {
                    assert!(!reason.is_empty(), "{what}");
                }
                other => panic!("{what}: want Malformed, got {other:?}"),
            }
        }
        assert_eq!(
            Checkpoint::parse(&tampered("epoch ", |l| l.to_string())).expect("untouched"),
            sample()
        );
    }

    /// Applies mutation `kind` (drawn with `a` and `b`) to `base`'s lines and
    /// describes it: byte flips and rewrites, truncations, duplicated,
    /// deleted and moved lines, and rewritten fields.
    fn mutate(base: &str, kind: u32, a: u64, b: u32) -> (String, String) {
        let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
        let pick = |n: usize, salt: u32| (a.rotate_left(salt) % n as u64) as usize;
        let line = pick(lines.len(), 0);
        let what = match kind {
            0..=2 => {
                let mut bytes = base.as_bytes().to_vec();
                let at = pick(bytes.len(), 17);
                let what = match kind {
                    0 => {
                        bytes[at] ^= 1 << (b % 8);
                        format!("flip bit {} of byte {at}", b % 8)
                    }
                    1 => {
                        bytes[at] = b as u8;
                        format!("set byte {at} to {:#x}", b as u8)
                    }
                    _ => {
                        bytes.truncate(at);
                        format!("truncate to {at} bytes")
                    }
                };
                let text = String::from_utf8_lossy(&bytes);
                lines = text.lines().map(str::to_string).collect();
                what
            }
            3 => {
                let to = pick(lines.len() + 1, 29);
                lines.insert(to, lines[line].clone());
                format!("copy line {line} to {to}")
            }
            4 => {
                lines.remove(line);
                format!("delete line {line}")
            }
            5 => {
                let moved = lines.remove(line);
                let to = pick(lines.len() + 1, 29);
                lines.insert(to, moved);
                format!("move line {line} to {to}")
            }
            _ => {
                let mut toks: Vec<String> = lines[line].split(' ').map(str::to_string).collect();
                let field = 1 + pick(toks.len().max(2) - 1, 41);
                let old = toks.get(field).cloned().unwrap_or_default();
                let int = old.parse::<u64>().ok();
                let value = match b % 12 {
                    0 => "0".to_string(),
                    1 => "1".to_string(),
                    2 => "999".to_string(),
                    3 => u64::MAX.to_string(),
                    4 => "0000000000000000".to_string(),
                    5 => hex(f64::NAN),
                    6 => hex(-0.0),
                    7 => hex(f64::NEG_INFINITY),
                    8 => hex(-1.0),
                    9 => int.map_or_else(|| "zz".into(), |v| v.wrapping_add(1).to_string()),
                    10 => int.map_or_else(String::new, |v| v.wrapping_sub(1).to_string()),
                    _ => format!("{:016x}", a ^ u64::from(b)),
                };
                if field < toks.len() {
                    toks[field] = value.clone();
                } else {
                    toks.push(value.clone());
                }
                lines[line] = toks.join(" ");
                format!("set field {field} of line {line} from {old:?} to {value:?}")
            }
        };
        let mut text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        if !b.is_multiple_of(4) {
            text = restamp(&text);
        }
        (text, what)
    }

    /// A predictor `from_state` only borrows.
    struct Flat;

    impl lightnas_predictor::Predictor for Flat {
        fn predict_encoding(&self, _: &[f32]) -> f64 {
            20.0
        }

        fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
            vec![0.0; encoding.len()]
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12_000))]

        /// `parse` never panics on a mutated file (three in four restamped
        /// past the checksum), and every file it accepts resumes: the
        /// stepper takes its config, target and state without panicking.
        #[test]
        fn mutated_checkpoints_never_panic(kind in 0u32..8, a in 0u64..u64::MAX, b in 0u32..u32::MAX) {
            use std::panic::{catch_unwind, AssertUnwindSafe};
            static BASE: std::sync::OnceLock<(String, lightnas_eval::AccuracyOracle)> =
                std::sync::OnceLock::new();
            let (base, oracle) =
                BASE.get_or_init(|| (sample().render(), lightnas_eval::AccuracyOracle::imagenet()));
            let (text, what) = mutate(base, kind, a, b);
            let parsed = catch_unwind(|| Checkpoint::parse(&text));
            proptest::prop_assert!(parsed.is_ok(), "parse panicked: {what}");
            if let Ok(Ok(ck)) = parsed {
                let resumed = catch_unwind(AssertUnwindSafe(|| {
                    lightnas::SearchStepper::from_state(oracle, &Flat, ck.config, ck.target, ck.state)
                        .epoch()
                }));
                proptest::prop_assert!(resumed.is_ok(), "an accepted checkpoint panicked from_state: {what}");
            }
        }
    }

    #[test]
    fn verify_matches_pins_target_seed_and_config() {
        let ck = sample();
        assert!(ck.verify_matches(24.0, 42, &SearchConfig::fast()).is_ok());
        assert!(ck
            .verify_matches(24.000001, 42, &SearchConfig::fast())
            .is_err());
        assert!(ck.verify_matches(24.0, 43, &SearchConfig::fast()).is_err());
        assert!(ck.verify_matches(24.0, 42, &SearchConfig::paper()).is_err());
    }
}
