//! Integrity verification — an `fsck` for the temporal store.
//!
//! [`Database::verify_integrity`] checks every invariant the engine relies
//! on and returns a report instead of failing fast, so operators can see
//! the full damage picture:
//!
//! * per atom: current versions have pairwise-disjoint valid times;
//! * per atom: no version has an empty transaction time, and histories
//!   contain every current version;
//! * time-slices are internally consistent: at any version boundary, the
//!   visible valid-time intervals are pairwise disjoint (no bitemporal
//!   overlap was ever stored);
//! * value indexes: every indexed current value has an entry, every
//!   entry corresponds to a current value (no ghosts, no misses), and
//!   each entry counts exactly the atom's current versions holding it;
//! * references: every link in a *current* version resolves to an atom
//!   that exists (temporal dangling references to deleted atoms are legal
//!   and reported separately as informational counts).

use crate::db::Database;
use std::collections::BTreeMap;
use tcom_kernel::{AtomId, Error, Result, TimePoint};
use tcom_storage::keys::{encode_value, BKey};

/// Outcome of an integrity verification pass.
#[derive(Clone, Debug, Default)]
pub struct IntegrityReport {
    /// Atoms inspected.
    pub atoms_checked: u64,
    /// Versions inspected.
    pub versions_checked: u64,
    /// Hard invariant violations (each a human-readable description).
    pub violations: Vec<String>,
    /// Current-version links pointing at atoms with no current version
    /// (legal — the target was logically deleted — but worth surfacing).
    pub dangling_current_refs: u64,
}

impl IntegrityReport {
    /// True iff no hard violations were found.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl Database {
    /// Runs a full integrity verification (read-only; takes the commit
    /// lock per atom, so it can run against a live database).
    pub fn verify_integrity(&self) -> Result<IntegrityReport> {
        let mut report = IntegrityReport::default();
        let type_ids: Vec<_> = self.with_catalog(|c| {
            c.atom_types()
                .iter()
                .map(|t| (t.id, t.name.clone(), t.attrs.clone()))
                .collect::<Vec<_>>()
        });
        for (ty, ty_name, attrs) in &type_ids {
            let store = self.store(*ty)?;
            for no in store.atoms()? {
                let atom = AtomId::new(*ty, no);
                report.atoms_checked += 1;
                let history = store.history(no)?;
                let current = store.current_versions(no)?;
                report.versions_checked += history.len() as u64;

                // Current versions: pairwise-disjoint valid times.
                for i in 0..current.len() {
                    for j in i + 1..current.len() {
                        if current[i].vt.overlaps(&current[j].vt) {
                            report.violations.push(format!(
                                "{atom}: overlapping current valid times {} and {}",
                                current[i].vt, current[j].vt
                            ));
                        }
                    }
                }
                // Histories contain the current versions.
                for c in &current {
                    if !history
                        .iter()
                        .any(|h| h.vt == c.vt && h.tt == c.tt && h.tuple == c.tuple)
                    {
                        report.violations.push(format!(
                            "{atom}: current version vt={} missing from history",
                            c.vt
                        ));
                    }
                }
                // Bitemporal consistency at every version boundary.
                let mut boundaries: Vec<TimePoint> = history
                    .iter()
                    .flat_map(|v| {
                        [
                            Some(v.tt.start()),
                            (!v.tt.end().is_forever()).then(|| v.tt.end()),
                        ]
                    })
                    .flatten()
                    .collect();
                boundaries.sort();
                boundaries.dedup();
                for t in boundaries {
                    let slice = store.versions_at(no, t)?;
                    for i in 0..slice.len() {
                        for j in i + 1..slice.len() {
                            if slice[i].vt.overlaps(&slice[j].vt) {
                                report.violations.push(format!(
                                    "{atom}: bitemporal overlap at tt={t}: {} vs {}",
                                    slice[i].vt, slice[j].vt
                                ));
                            }
                        }
                    }
                }
                // Current references resolve.
                for v in &current {
                    for r in v.tuple.referenced_atoms() {
                        if !self.atom_exists(r)? {
                            report.violations.push(format!(
                                "{atom}: current version references unknown atom {r}"
                            ));
                        } else if self.current_versions(r)?.is_empty() {
                            report.dangling_current_refs += 1;
                        }
                    }
                }
            }

            // Value indexes ↔ store agreement.
            for (i, a) in attrs.iter().enumerate() {
                if !a.indexed {
                    continue;
                }
                let Some(idx) = self.index(*ty, tcom_kernel::AttrId(i as u16)) else {
                    report
                        .violations
                        .push(format!("{ty_name}.{}: declared index missing", a.name));
                    continue;
                };
                // Per (enc, atom): the current versions holding the value,
                // and the index entry's count.
                let mut counts: BTreeMap<(u64, u64), (u64, Option<u64>)> = BTreeMap::new();
                for no in store.atoms()? {
                    for v in store.current_versions(no)? {
                        if let Some(enc) = encode_value(v.tuple.get(i)) {
                            counts.entry((enc, no.0)).or_default().0 += 1;
                        }
                    }
                }
                idx.scan_range(BKey::MIN, BKey::MAX, |k, n| {
                    counts.entry((k.hi, k.lo)).or_default().1 = Some(n);
                    Ok(true)
                })?;
                let name = &a.name;
                for ((enc, no), (want, got)) in counts {
                    if want == 0 {
                        report.violations.push(format!(
                            "{ty_name}.{name}: ghost index entry for atom {no} (enc {enc})"
                        ));
                    } else if got != Some(want) {
                        report.violations.push(format!(
                            "{ty_name}.{name}: index counts {} current versions of atom {no} \
                             under enc {enc}, the store holds {want}",
                            got.unwrap_or(0)
                        ));
                    }
                }
            }
        }
        Ok(report)
    }

    /// Convenience: verification that fails on the first violation.
    pub fn assert_integrity(&self) -> Result<()> {
        let report = self.verify_integrity()?;
        if let Some(first) = report.violations.first() {
            return Err(Error::corruption(format!(
                "integrity check failed ({} violations; first: {first})",
                report.violations.len()
            )));
        }
        Ok(())
    }
}
