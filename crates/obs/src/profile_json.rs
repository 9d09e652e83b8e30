//! Hand-rolled JSON save/load for calibrated [`DeviceProfile`]s.
//!
//! Calibration probes cost real jobs, so the service wants to warm-start
//! from the fits of a previous process. The container has no serde; this
//! module writes a small, fixed-schema JSON document and reads it back
//! through the crate's one JSON parser (`json.rs`), then validates every
//! field: the file comes from outside the process.
//!
//! Schema (`ProfileStore`):
//!
//! ```json
//! { "profiles": [ { "key": "256x128",
//!                   "name": "tuned-256x128", "kind": "cpu", "cores": 4,
//!                   "times": { "triangulation": {"c0": 2.0, "c1": 0.0, "c2": 0.004},
//!                              "elimination":   {"c0": 2.0, "c1": 0.0, "c2": 0.004},
//!                              "update":        {"c0": 2.0, "c1": 0.0, "c2": 0.006} } } ] }
//! ```
//!
//! The conventional location is the path in the `TILEQR_PROFILE`
//! environment variable ([`default_profile_path`]); the service-level
//! tuner loads it at start and saves after each new fit.

use crate::json::{self, escape, Json};
use std::path::{Path, PathBuf};
use tileqr_dag::{ClassCosts, CostCurve};
use tileqr_sim::{DeviceKind, DeviceProfile};

/// Environment variable naming the profile-store path the service-level
/// tuner warm-starts from.
pub const PROFILE_ENV: &str = "TILEQR_PROFILE";

/// Largest `cores` a stored profile may claim. The planners multiply it
/// (`DeviceProfile::slots`) and size work by it, so a file must not be
/// able to make it overflow; 2^20 is far above any real device.
const MAX_CORES: f64 = (1u32 << 20) as f64;

/// The profile-store path from [`PROFILE_ENV`], when set and non-empty.
pub fn default_profile_path() -> Option<PathBuf> {
    match std::env::var(PROFILE_ENV) {
        Ok(p) if !p.is_empty() => Some(PathBuf::from(p)),
        _ => None,
    }
}

/// A keyed collection of calibrated profiles (the service keys by shape
/// class, e.g. `"256x128"`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileStore {
    /// `(key, profile)` pairs in insertion order.
    pub entries: Vec<(String, DeviceProfile)>,
}

impl ProfileStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Profile stored under `key`.
    pub fn get(&self, key: &str) -> Option<&DeviceProfile> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, p)| p)
    }

    /// Insert or replace the profile under `key`.
    pub fn insert(&mut self, key: &str, profile: DeviceProfile) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = profile;
        } else {
            self.entries.push((key.to_string(), profile));
        }
    }

    /// Serialize to the schema above.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"profiles\": [");
        for (i, (key, p)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"key\": \"{}\", \"name\": \"{}\", \"kind\": \"{}\", \"cores\": {}, \"times\": {{",
                escape(key),
                escape(&p.name),
                match p.kind {
                    DeviceKind::Cpu => "cpu",
                    DeviceKind::Gpu => "gpu",
                },
                p.cores
            ));
            for (j, (label, t)) in [
                ("triangulation", p.times.triangulation),
                ("elimination", p.times.elimination),
                ("update", p.times.update),
            ]
            .iter()
            .enumerate()
            {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "\"{label}\": {{\"c0\": {:?}, \"c1\": {:?}, \"c2\": {:?}}}",
                    t.c0, t.c1, t.c2
                ));
            }
            s.push_str("}}");
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parse a store from JSON produced by [`ProfileStore::to_json`] (or
    /// hand-edited to the same schema).
    pub fn from_json(text: &str) -> Result<ProfileStore, String> {
        let root = json::parse(text)?;
        let profiles = root
            .field("profiles")
            .ok_or("missing \"profiles\" array")?
            .as_array()
            .ok_or("\"profiles\" is not an array")?;
        let mut store = ProfileStore::new();
        for entry in profiles {
            let key = entry
                .field("key")
                .and_then(Json::as_str)
                .ok_or("profile entry missing string \"key\"")?;
            store
                .entries
                .push((key.to_string(), profile_from_value(entry)?));
        }
        Ok(store)
    }

    /// Write the store to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Read and parse the store at `path` (I/O and parse errors both
    /// surface as the error string).
    pub fn load(path: &Path) -> Result<ProfileStore, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        Self::from_json(&text)
    }
}

/// Serialize one profile (no key) — the single-profile convenience used
/// by tests and ad-hoc tooling.
pub fn profile_to_json(p: &DeviceProfile) -> String {
    let mut store = ProfileStore::new();
    store.insert("default", p.clone());
    store.to_json()
}

/// Parse the first profile of a store document.
pub fn profile_from_json(text: &str) -> Result<DeviceProfile, String> {
    let store = ProfileStore::from_json(text)?;
    store
        .entries
        .into_iter()
        .next()
        .map(|(_, p)| p)
        .ok_or_else(|| "empty profile store".to_string())
}

fn profile_from_value(v: &Json) -> Result<DeviceProfile, String> {
    let name = v
        .field("name")
        .and_then(Json::as_str)
        .ok_or("profile missing string \"name\"")?;
    let kind = match v.field("kind").and_then(Json::as_str) {
        Some("cpu") => DeviceKind::Cpu,
        Some("gpu") => DeviceKind::Gpu,
        other => return Err(format!("bad device kind {other:?}")),
    };
    let cores = v
        .field("cores")
        .and_then(Json::as_f64)
        .filter(|c| (1.0..=MAX_CORES).contains(c) && c.fract() == 0.0)
        .ok_or("profile missing \"cores\" (an integer in 1..=2^20)")? as usize;
    let times = v.field("times").ok_or("profile missing \"times\"")?;
    let curve = |label: &str| -> Result<CostCurve, String> {
        let t = times
            .field(label)
            .ok_or_else(|| format!("times missing \"{label}\""))?;
        let coeff = |c: &str| {
            t.field(c)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("curve \"{label}\" missing finite non-negative \"{c}\""))
        };
        Ok(CostCurve {
            c0: coeff("c0")?,
            c1: coeff("c1")?,
            c2: coeff("c2")?,
        })
    };
    Ok(DeviceProfile {
        name: name.to_string(),
        kind,
        cores,
        times: ClassCosts {
            triangulation: curve("triangulation")?,
            elimination: curve("elimination")?,
            update: curve("update")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_sim::profiles;

    fn sample() -> DeviceProfile {
        profiles::gtx580()
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let mut store = ProfileStore::new();
        store.insert("256x128", sample());
        store.insert("64x64", sample().slowed(2.0));
        let parsed = ProfileStore::from_json(&store.to_json()).unwrap();
        assert_eq!(parsed, store);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let mut store = ProfileStore::new();
        store.insert("a", sample());
        store.insert("a", sample().slowed(3.0));
        assert_eq!(store.entries.len(), 1);
        assert_eq!(store.get("a").unwrap().times, sample().slowed(3.0).times);
    }

    #[test]
    fn single_profile_helpers() {
        let p = sample();
        let parsed = profile_from_json(&profile_to_json(&p)).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn string_escapes_survive() {
        let mut p = sample();
        p.name = "weird \"name\"\\with\nescapes\tand µnicode".to_string();
        let parsed = profile_from_json(&profile_to_json(&p)).unwrap();
        assert_eq!(parsed.name, p.name);
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let mut store = ProfileStore::new();
        store.insert("128x128", sample());
        let path =
            std::env::temp_dir().join(format!("tileqr-profile-test-{}.json", std::process::id()));
        store.save(&path).unwrap();
        let loaded = ProfileStore::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, store);
    }

    #[test]
    fn malformed_documents_error_not_panic() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"profiles\": 3}",
            "{\"profiles\": [{\"key\": \"a\"}]}",
            "{\"profiles\": [{\"key\": \"a\", \"name\": \"x\", \"kind\": \"tpu\", \"cores\": 1, \"times\": {}}]}",
            "{\"profiles\": []} trailing",
            // `cores` is multiplied by the planners: 1e300 (an integer as
            // far as `fract` can tell) and 2^20 + 1 must not reach them.
            "{\"profiles\": [{\"key\": \"a\", \"name\": \"x\", \"kind\": \"gpu\", \"cores\": 1e300, \"times\": {\"triangulation\": {\"c0\": 0, \"c1\": 0, \"c2\": 0}, \"elimination\": {\"c0\": 0, \"c1\": 0, \"c2\": 0}, \"update\": {\"c0\": 0, \"c1\": 0, \"c2\": 0}}}]}",
            "{\"profiles\": [{\"key\": \"a\", \"name\": \"x\", \"kind\": \"cpu\", \"cores\": 1048577, \"times\": {\"triangulation\": {\"c0\": 0, \"c1\": 0, \"c2\": 0}, \"elimination\": {\"c0\": 0, \"c1\": 0, \"c2\": 0}, \"update\": {\"c0\": 0, \"c1\": 0, \"c2\": 0}}}]}",
            "{\"profiles\": [{\"key\": \"a\", \"name\": \"x\", \"kind\": \"cpu\", \"cores\": 1, \"times\": {\"triangulation\": {\"c0\": -1, \"c1\": 0, \"c2\": 0}, \"elimination\": {\"c0\": 0, \"c1\": 0, \"c2\": 0}, \"update\": {\"c0\": 0, \"c1\": 0, \"c2\": 0}}}]}",
        ] {
            assert!(ProfileStore::from_json(bad).is_err(), "accepted: {bad}");
        }
        // The bound itself is a legal core count.
        let mut p = sample();
        p.cores = 1 << 20;
        assert_eq!(
            profile_from_json(&profile_to_json(&p)).unwrap().slots(1),
            8 << 20
        );
    }

    /// The store is the one input from outside the process that reaches a
    /// job's plan (the tile size and tree the tuner selects). Several
    /// hundred seeded mutations of a valid two-entry document — truncated,
    /// one number replaced by `NaN` / `-1` / `1e400` / nothing, one byte
    /// dropped or doubled — never panic the reader, and whatever it still
    /// accepts holds only finite, non-negative curves and a sane `cores`.
    #[test]
    fn seeded_mutations_never_panic_or_admit_bad_curves() {
        use tileqr_dag::KernelClass;
        let mut store = ProfileStore::new();
        store.insert("256x128", sample());
        store.insert("64x64", sample().slowed(2.0));
        let clean = store.to_json().into_bytes();
        // Byte ranges of the numeric values (`cores` and the coefficients).
        let is_num = |b: u8| b.is_ascii_digit() || b"-+.eE".contains(&b);
        let mut numbers = Vec::new();
        for i in 2..clean.len() {
            if &clean[i - 2..i] == b": " && is_num(clean[i]) {
                let len = clean[i..].iter().take_while(|&&b| is_num(b)).count();
                numbers.push((i, i + len));
            }
        }
        assert_eq!(numbers.len(), 2 * 10, "cores + 9 coefficients per entry");
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let mut accepted = 0;
        for case in 0..800 {
            let mut doc = clean.clone();
            match case % 4 {
                0 => doc.truncate(below(clean.len())),
                1 => {
                    let (s, e) = numbers[below(numbers.len())];
                    let with = ["NaN", "-1", "1e400", ""][below(4)];
                    doc.splice(s..e, with.bytes());
                }
                2 => {
                    doc.remove(below(clean.len()));
                }
                _ => {
                    let i = below(clean.len());
                    doc.insert(i, clean[i]);
                }
            }
            let doc = String::from_utf8(doc).expect("the document is ASCII");
            let parsed = std::panic::catch_unwind(|| ProfileStore::from_json(&doc));
            let Ok(store) = parsed.unwrap_or_else(|_| panic!("case {case} panicked on {doc}"))
            else {
                continue;
            };
            accepted += 1;
            for (key, p) in &store.entries {
                assert!((1..=1 << 20).contains(&p.cores), "case {case} {key}: {doc}");
                for class in KernelClass::ALL {
                    let c = p.times.curve(class);
                    for v in [c.c0, c.c1, c.c2] {
                        assert!(v.is_finite() && v >= 0.0, "case {case} {key}: {doc}");
                    }
                }
            }
        }
        // Some mutations (a doubled digit, a truncated trailing newline)
        // leave a valid document: the accept branch above did run.
        assert!(accepted > 0);
    }

    #[test]
    fn missing_env_var_yields_no_default_path() {
        // PROFILE_ENV is not set in the test environment.
        if std::env::var(PROFILE_ENV).is_err() {
            assert_eq!(default_profile_path(), None);
        }
    }
}
