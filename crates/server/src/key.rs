//! Content-addressed store keys: graph hash × config fingerprint.

use dbds_core::{DbdsConfig, OptLevel};
use dbds_ir::Graph;
use std::fmt;
use std::str::FromStr;

/// The address of a compiled artifact: the stable content hash of the
/// input graph plus the fingerprint of every result-affecting
/// configuration field (see [`DbdsConfig::fingerprint`]). Two requests
/// with equal keys are guaranteed to compile to byte-identical
/// artifacts, which is exactly what makes the store safe to share and
/// a corrupt entry safe to heal by recompute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreKey {
    /// [`dbds_ir::content_hash`] of the pristine input graph.
    pub graph: u64,
    /// [`DbdsConfig::fingerprint`] of the compilation configuration.
    pub config: u64,
}

impl StoreKey {
    /// Computes the key for compiling `g` under `cfg` at `level`.
    pub fn compute(g: &Graph, cfg: &DbdsConfig, level: OptLevel) -> StoreKey {
        StoreKey {
            graph: dbds_ir::content_hash(g),
            config: cfg.fingerprint(level),
        }
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{:016x}-c{:016x}", self.graph, self.config)
    }
}

impl FromStr for StoreKey {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || format!("malformed store key `{s}`");
        let (g, c) = s.split_once('-').ok_or_else(err)?;
        let g = g.strip_prefix('g').ok_or_else(err)?;
        let c = c.strip_prefix('c').ok_or_else(err)?;
        Ok(StoreKey {
            graph: parse_canonical_hex(g).ok_or_else(err)?,
            config: parse_canonical_hex(c).ok_or_else(err)?,
        })
    }
}

/// Parses exactly 16 lowercase hex digits. `u64::from_str_radix` is too
/// permissive here: it accepts a `+` sign and uppercase digits, so
/// non-canonical on-disk filenames (`g+00…`, `gDEAD…`) would alias the
/// canonical entry and let one key shadow another. Only the exact
/// [`fmt::Display`] form round-trips.
fn parse_canonical_hex(s: &str) -> Option<u64> {
    if s.len() != 16
        || !s
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, GraphBuilder, Type};
    use std::sync::Arc;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new("k", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        b.ret(Some(x));
        b.finish()
    }

    #[test]
    fn display_parse_round_trips() {
        let k = StoreKey {
            graph: 0xdead_beef,
            config: u64::MAX,
        };
        assert_eq!(k.to_string().parse::<StoreKey>().unwrap(), k);
        assert_eq!(k.to_string(), "g00000000deadbeef-cffffffffffffffff");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "g12-c34",
            "x0-y0",
            "g00000000deadbeef",
            "g00000000deadbeefc0",
        ] {
            assert!(bad.parse::<StoreKey>().is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_non_canonical_hex() {
        // Each of these would alias g00000000deadbeef-c00000000000000ff
        // under a plain from_str_radix parse: a `+` sign keeps the
        // value intact, and uppercase digits parse to the same value.
        for bad in [
            "g+0000000deadbeef-c00000000000000ff",
            "g00000000DEADBEEF-c00000000000000ff",
            "g00000000deadbeef-c+000000000000ff",
            "g00000000deadbeef-c0000000000000 ff",
        ] {
            assert!(bad.parse::<StoreKey>().is_err(), "{bad} must not parse");
        }
        // The canonical form still round-trips.
        let k = "g00000000deadbeef-c00000000000000ff"
            .parse::<StoreKey>()
            .unwrap();
        assert_eq!(k.graph, 0xdead_beef);
        assert_eq!(k.config, 0xff);
    }

    #[test]
    fn level_and_config_change_the_key() {
        let g = graph();
        let cfg = DbdsConfig::default();
        let a = StoreKey::compute(&g, &cfg, OptLevel::Dbds);
        let b = StoreKey::compute(&g, &cfg, OptLevel::Dupalot);
        assert_ne!(a, b);
        let mut tweaked = cfg.clone();
        tweaked.tradeoff.benefit_scale = 128.0;
        assert_ne!(a, StoreKey::compute(&g, &tweaked, OptLevel::Dbds));
        // The thread count is result-invariant and must not split the cache.
        let mut threads = cfg.clone();
        threads.unit_threads = 8;
        assert_eq!(a, StoreKey::compute(&g, &threads, OptLevel::Dbds));
    }
}
