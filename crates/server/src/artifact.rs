//! The compiled artifact: what the compilation service stores, serves
//! and verifies.
//!
//! An artifact is the canonical textual form of a compiled graph (class
//! table + body — exactly what a fresh compile prints) plus the
//! deterministic work counters of the compilation that produced it. The
//! serialization is a line-oriented header with explicit byte lengths,
//! so parsing is unambiguous and a truncated or bit-flipped payload is
//! structurally detectable even before the store's checksum footer or
//! the IR verifier get a say.

use crate::key::StoreKey;
use dbds_core::{OptLevel, PhaseStats};
use dbds_ir::{parse_module, print_class_table, print_graph, Graph};
use std::fmt;
use std::fmt::Write as _;

/// The artifact serialization magic/version line.
pub const ARTIFACT_MAGIC: &str = "dbds-artifact-v1";

/// Deterministic work counters of the compilation that produced an
/// artifact — the cache-hit path serves these alongside the graph so a
/// hit response carries the same observability a fresh compile would.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArtifactCounters {
    /// Deterministic compile-work counter ([`PhaseStats::work`]).
    pub work: u64,
    /// DBDS iterations executed.
    pub iterations: u64,
    /// Predecessor→merge pairs simulated.
    pub candidates: u64,
    /// Duplications performed.
    pub duplications: u64,
    /// Estimated code size after the phase.
    pub final_size: u64,
}

impl ArtifactCounters {
    /// Extracts the deterministic subset from a compilation's stats.
    pub fn from_stats(stats: &PhaseStats) -> Self {
        ArtifactCounters {
            work: stats.work,
            iterations: stats.iterations as u64,
            candidates: stats.candidates as u64,
            duplications: stats.duplications as u64,
            final_size: stats.final_size,
        }
    }
}

/// A verified compiled graph plus its provenance, as stored in and
/// served from the content-addressed store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledArtifact {
    /// The content-addressed key the artifact was stored under.
    pub key: StoreKey,
    /// The opt level it was compiled at (stable lowercase name).
    pub level: String,
    /// Printed class table (possibly empty).
    pub classes: String,
    /// Printed graph body (canonical text; byte-identical to what a
    /// fresh compile of the same key prints).
    pub ir: String,
    /// Deterministic work counters of the producing compilation.
    pub counters: ArtifactCounters,
}

/// Why an artifact failed to parse or verify.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactError(pub String);

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact error: {}", self.0)
    }
}

impl std::error::Error for ArtifactError {}

impl CompiledArtifact {
    /// Builds the artifact for a freshly compiled graph.
    pub fn from_compiled(key: StoreKey, level: OptLevel, g: &Graph, stats: &PhaseStats) -> Self {
        CompiledArtifact {
            key,
            level: level.name().to_string(),
            classes: print_class_table(g.class_table()),
            ir: print_graph(g),
            counters: ArtifactCounters::from_stats(stats),
        }
    }

    /// Serializes into the store payload format.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = String::new();
        let _ = writeln!(out, "{ARTIFACT_MAGIC}");
        let _ = writeln!(out, "key: {}", self.key);
        let _ = writeln!(out, "level: {}", self.level);
        let c = &self.counters;
        let _ = writeln!(out, "work: {}", c.work);
        let _ = writeln!(out, "iterations: {}", c.iterations);
        let _ = writeln!(out, "candidates: {}", c.candidates);
        let _ = writeln!(out, "duplications: {}", c.duplications);
        let _ = writeln!(out, "final_size: {}", c.final_size);
        let _ = writeln!(out, "classes-bytes: {}", self.classes.len());
        let _ = writeln!(out, "ir-bytes: {}", self.ir.len());
        out.push_str(&self.classes);
        out.push_str(&self.ir);
        out.into_bytes()
    }

    /// Parses a store payload back into an artifact.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError`] naming the first malformed header
    /// line or length mismatch — the store treats any of these as a
    /// corrupt entry to quarantine.
    pub fn parse(payload: &[u8]) -> Result<CompiledArtifact, ArtifactError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| ArtifactError("payload is not UTF-8".into()))?;
        let mut rest = text;
        if take_line(&mut rest, "")? != ARTIFACT_MAGIC {
            return Err(ArtifactError(format!("bad magic (want {ARTIFACT_MAGIC})")));
        }
        let key: StoreKey = take_line(&mut rest, "key: ")?
            .parse()
            .map_err(ArtifactError)?;
        let level = take_line(&mut rest, "level: ")?.to_string();
        let int = |s: &str| -> Result<u64, ArtifactError> {
            s.parse()
                .map_err(|_| ArtifactError(format!("malformed counter `{s}`")))
        };
        let counters = ArtifactCounters {
            work: int(take_line(&mut rest, "work: ")?)?,
            iterations: int(take_line(&mut rest, "iterations: ")?)?,
            candidates: int(take_line(&mut rest, "candidates: ")?)?,
            duplications: int(take_line(&mut rest, "duplications: ")?)?,
            final_size: int(take_line(&mut rest, "final_size: ")?)?,
        };
        let classes_len = int(take_line(&mut rest, "classes-bytes: ")?)? as usize;
        let ir_len = int(take_line(&mut rest, "ir-bytes: ")?)? as usize;
        let Some(body_len) = classes_len.checked_add(ir_len) else {
            return Err(ArtifactError(format!(
                "header lengths {classes_len} + {ir_len} overflow"
            )));
        };
        if rest.len() != body_len {
            return Err(ArtifactError(format!(
                "body is {} bytes, header promises {} + {}",
                rest.len(),
                classes_len,
                ir_len
            )));
        }
        if !rest.is_char_boundary(classes_len) {
            return Err(ArtifactError(
                "classes/ir split is not UTF-8 aligned".into(),
            ));
        }
        let (classes, ir) = rest.split_at(classes_len);
        Ok(CompiledArtifact {
            key,
            level,
            classes: classes.to_string(),
            ir: ir.to_string(),
            counters,
        })
    }

    /// Semantic verification: the stored text must parse back into a
    /// graph that passes the IR verifier. The checksum footer catches
    /// bit rot; this catches entries that were structurally intact but
    /// semantically wrong (or written by a buggy producer) — both end
    /// in quarantine, never in a served response.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError`] describing the parse or
    /// verification failure.
    pub fn verify(&self) -> Result<Graph, ArtifactError> {
        let mut module_text = String::with_capacity(self.classes.len() + self.ir.len() + 1);
        module_text.push_str(&self.classes);
        module_text.push_str(&self.ir);
        let mut module = parse_module(&module_text)
            .map_err(|e| ArtifactError(format!("stored IR does not parse: {e}")))?;
        if module.graphs.len() != 1 {
            return Err(ArtifactError(format!(
                "expected exactly one graph, found {}",
                module.graphs.len()
            )));
        }
        let g = module.graphs.remove(0);
        dbds_ir::verify(&g)
            .map_err(|e| ArtifactError(format!("stored IR fails verification: {}", e.summary())))?;
        Ok(g)
    }
}

/// Splits the next `\n`-terminated line off `*rest` and strips
/// `prefix` from it.
fn take_line<'a>(rest: &mut &'a str, prefix: &str) -> Result<&'a str, ArtifactError> {
    let nl = rest
        .find('\n')
        .ok_or_else(|| ArtifactError(format!("missing `{prefix}` line")))?;
    let (line, tail) = rest.split_at(nl);
    *rest = &tail[1..];
    line.strip_prefix(prefix)
        .ok_or_else(|| ArtifactError(format!("expected `{prefix}…`, got `{line}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_core::{compile, DbdsConfig};
    use dbds_costmodel::CostModel;
    use dbds_ir::{ClassTable, GraphBuilder, Type};
    use std::sync::Arc;

    fn compiled() -> (Graph, PhaseStats, DbdsConfig) {
        let mut b = GraphBuilder::new("af", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        let one = b.iconst(1);
        let s = b.add(x, one);
        b.ret(Some(s));
        let mut g = b.finish();
        let cfg = DbdsConfig::default();
        let stats = compile(&mut g, &CostModel::new(), OptLevel::Dbds, &cfg);
        (g, stats, cfg)
    }

    #[test]
    fn serialize_parse_round_trips() {
        let (g, stats, cfg) = compiled();
        let key = StoreKey::compute(&g, &cfg, OptLevel::Dbds);
        let a = CompiledArtifact::from_compiled(key, OptLevel::Dbds, &g, &stats);
        let parsed = CompiledArtifact::parse(&a.serialize()).unwrap();
        assert_eq!(parsed, a);
        assert_eq!(parsed.serialize(), a.serialize());
    }

    #[test]
    fn verify_accepts_good_and_rejects_tampered_ir() {
        let (g, stats, cfg) = compiled();
        let key = StoreKey::compute(&g, &cfg, OptLevel::Dbds);
        let a = CompiledArtifact::from_compiled(key, OptLevel::Dbds, &g, &stats);
        let back = a.verify().unwrap();
        assert_eq!(print_graph(&back), a.ir);

        let mut bad = a.clone();
        bad.ir = bad.ir.replace("func @af", "func @af(");
        assert!(bad.verify().is_err());
    }

    #[test]
    fn truncated_payload_is_structurally_detected() {
        let (g, stats, cfg) = compiled();
        let key = StoreKey::compute(&g, &cfg, OptLevel::Dbds);
        let a = CompiledArtifact::from_compiled(key, OptLevel::Dbds, &g, &stats);
        let bytes = a.serialize();
        assert!(CompiledArtifact::parse(&bytes[..bytes.len() - 3]).is_err());
        assert!(CompiledArtifact::parse(b"garbage").is_err());
    }

    #[test]
    fn overflowing_length_headers_are_rejected_not_panicked_on() {
        let (g, stats, cfg) = compiled();
        let key = StoreKey::compute(&g, &cfg, OptLevel::Dbds);
        let a = CompiledArtifact::from_compiled(key, OptLevel::Dbds, &g, &stats);
        let text = String::from_utf8(a.serialize()).unwrap();
        let header_end = text.find("classes-bytes: ").unwrap();
        let payload = format!(
            "{}classes-bytes: {}\nir-bytes: 1\nx",
            &text[..header_end],
            u64::MAX
        );
        let err = CompiledArtifact::parse(payload.as_bytes()).unwrap_err();
        assert!(err.0.contains("overflow"), "{err}");
        assert!(err.0.contains(&u64::MAX.to_string()), "{err}");
    }
}
