//! The output check: committed golden digests for the default seed, and
//! for every seed a repeat check plus cross-layer identities.

use crate::pass::Pass;
use crate::points::Setup;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Where the goldens live: next to this crate's manifest.
pub fn goldens_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens.txt")
}

/// `(workload, label) -> (digest, ipc)` for the default seed.
#[derive(Debug, Default)]
pub struct Goldens {
    pub entries: BTreeMap<(String, String), (u64, f64)>,
}

impl Goldens {
    /// Reads the goldens file; a missing file reads as empty.
    pub fn load() -> Result<Goldens, String> {
        let path = goldens_path();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Goldens::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = || format!("{}:{}: malformed golden line", path.display(), n + 1);
            let f: Vec<&str> = line.split('\t').collect();
            let [workload, label, digest, ipc] = f[..] else {
                return Err(bad());
            };
            let digest = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
            let ipc = ipc.parse::<f64>().map_err(|_| bad())?;
            entries.insert((workload.to_string(), label.to_string()), (digest, ipc));
        }
        Ok(Goldens { entries })
    }

    /// Replaces `workload`'s entries with `pass`'s and writes the file.
    pub fn bless(&mut self, workload: &str, labels: &[String], pass: &Pass) -> Result<(), String> {
        self.entries.retain(|(w, _), _| w != workload);
        for (label, p) in labels.iter().zip(&pass.points) {
            let out = p
                .out
                .as_ref()
                .map_err(|e| format!("{label} panicked, not blessing: {e}"))?;
            let ipc = out.sampled_ipc.unwrap_or(crate::stats::ratio(
                out.counts.instructions,
                out.counts.cycles,
            ));
            self.entries
                .insert((workload.to_string(), label.clone()), (out.digest, ipc));
        }
        let mut text = String::from(
            "# FNV-1a 64 digests of every simulated counter of every point at the default seed.\n\
             # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --bless --workload <name>\n\
             # workload\tlabel\tdigest\tipc (full-detail IPC; sampled estimate on uc1_sampled)\n",
        );
        for ((w, l), (d, ipc)) in &self.entries {
            text += &format!("{w}\t{l}\t{d:016x}\t{ipc}\n");
        }
        std::fs::write(goldens_path(), text)
            .map_err(|e| format!("{}: {e}", goldens_path().display()))
    }
}

/// Checks one pass point by point, returning one problem list per point
/// (empty = the point is correct).
///
/// * every point completed;
/// * its digest equals `reference` (the goldens, or the run's first pass);
/// * core `loads + stores` equals the memory ops the generator emitted;
/// * bus `transactions` equals `bus_rd + bus_rdx + bus_upgr`;
/// * `detailed_ops + warm_ops <= total_ops`, and `total_ops` equals the
///   ops the generator emitted.
pub fn check(setup: &Setup, pass: &Pass, reference: &[Option<u64>]) -> Vec<Vec<String>> {
    pass.points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut problems = Vec::new();
            let out = match &p.out {
                Ok(out) => out,
                Err(msg) => return vec![format!("panicked: {msg}")],
            };
            match reference.get(i).copied().flatten() {
                Some(d) if d != out.digest => problems.push(format!(
                    "digest {:016x} differs from reference {d:016x}",
                    out.digest
                )),
                None => problems.push("no reference digest".into()),
                _ => {}
            }
            let c = &out.counts;
            if c.mem_ops() != setup.mem_ops[i] {
                problems.push(format!(
                    "core loads+stores {} != generator memory ops {}",
                    c.mem_ops(),
                    setup.mem_ops[i]
                ));
            }
            if c.bus_transactions != c.bus_parts {
                problems.push(format!(
                    "bus transactions {} != rd+rdx+upgr {}",
                    c.bus_transactions, c.bus_parts
                ));
            }
            if c.total_ops > 0 {
                if c.detailed_ops + c.warm_ops > c.total_ops {
                    problems.push(format!(
                        "detailed {} + warm {} > total {} ops",
                        c.detailed_ops, c.warm_ops, c.total_ops
                    ));
                }
                if c.total_ops != setup.ops[i] {
                    problems.push(format!(
                        "sampled total_ops {} != generator ops {}",
                        c.total_ops, setup.ops[i]
                    ));
                }
            }
            problems
        })
        .collect()
}
