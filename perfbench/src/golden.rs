//! Per-run output fingerprints and the committed goldens they are checked
//! against.
//!
//! A run's fingerprint is FNV-1a-64 over its `bench::run_record_json` line,
//! which carries every virtual time and counter as a raw f64 bit pattern.
//! A workload's fingerprint folds `(key, fingerprint)` pairs in canonical
//! key order, so unlike an XOR of checksums it neither cancels on equal
//! values nor forgives two records that trade places.

use std::collections::BTreeMap;
use std::fmt::Write as _;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 of `bytes`, continuing from `state`.
fn fnv1a_from(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a-64 of one run record.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Fold per-run fingerprints, in the order given, into one.
pub fn fold<'a>(entries: impl IntoIterator<Item = (&'a str, u64)>) -> u64 {
    entries.into_iter().fold(FNV_OFFSET, |h, (key, fp)| {
        let h = fnv1a_from(h, key.as_bytes());
        fnv1a_from(h, &fp.to_le_bytes())
    })
}

/// The committed per-key fingerprints of one workload, in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    entries: Vec<(String, u64)>,
}

/// One key whose observed fingerprint is not its golden.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The run key, as written in the golden file.
    pub key: String,
    /// The committed fingerprint, if the key is in the golden at all.
    pub expected: Option<u64>,
    /// What this run produced.
    pub observed: u64,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.expected {
            Some(e) => write!(
                f,
                "fingerprint mismatch on {}: golden {e:016x}, observed {:016x}",
                self.key, self.observed
            ),
            None => write!(
                f,
                "no golden for {} (observed {:016x})",
                self.key, self.observed
            ),
        }
    }
}

impl Golden {
    /// A golden holding `entries` in the order given.
    pub fn new(entries: Vec<(String, u64)>) -> Self {
        Golden { entries }
    }

    /// Parse the text form: `#` comment lines, then `<key> <16 hex digits>`
    /// per line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, hex) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("golden line {}: expected `<key> <hex>`", i + 1))?;
            let fp = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("golden line {}: bad fingerprint '{hex}': {e}", i + 1))?;
            entries.push((key.to_string(), fp));
        }
        Ok(Golden { entries })
    }

    /// The text form [`Golden::parse`] reads, under a comment header.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            writeln!(out, "# {line}").expect("writing to a String cannot fail");
        }
        for (key, fp) in &self.entries {
            writeln!(out, "{key} {fp:016x}").expect("writing to a String cannot fail");
        }
        out
    }

    /// The committed fingerprint of `key`.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, fp)| fp)
    }

    /// The fold of every committed entry.
    pub fn folded(&self) -> u64 {
        fold(self.entries.iter().map(|(k, fp)| (k.as_str(), *fp)))
    }

    /// Check observed per-key fingerprints: every observed key must carry
    /// its golden value.  Returns the mismatches in the order observed.
    pub fn check(&self, observed: &[(String, u64)]) -> Vec<Mismatch> {
        let index: BTreeMap<&str, u64> = self
            .entries
            .iter()
            .map(|(k, fp)| (k.as_str(), *fp))
            .collect();
        observed
            .iter()
            .filter_map(|(key, fp)| {
                let expected = index.get(key.as_str()).copied();
                (expected != Some(*fp)).then(|| Mismatch {
                    key: key.clone(),
                    expected,
                    observed: *fp,
                })
            })
            .collect()
    }

    /// The fold of the observed fingerprints taken in this golden's key
    /// order (keys not observed are skipped), comparable with
    /// [`Golden::folded`] when every key was observed.
    pub fn fold_observed(&self, observed: &[(String, u64)]) -> u64 {
        let index: BTreeMap<&str, u64> = observed.iter().map(|(k, fp)| (k.as_str(), *fp)).collect();
        fold(
            self.entries
                .iter()
                .filter_map(|(k, _)| index.get(k.as_str()).map(|&fp| (k.as_str(), fp))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn golden_text_round_trips() {
        let g = Golden::new(vec![
            ("EP/pvm/FDDI/2".into(), 1),
            ("EP/lrc/FDDI/2".into(), u64::MAX),
        ]);
        let parsed = Golden::parse(&g.render("header\nsecond line")).unwrap();
        assert_eq!(parsed, g);
        assert!(Golden::parse("EP/pvm/FDDI/2 zz").is_err());
    }
}
