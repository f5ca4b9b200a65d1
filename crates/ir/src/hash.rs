//! Hashing: a stable content hash of graphs, and a fast seeded hasher
//! for the compiler's own tables.
//!
//! The compilation service memoizes compiled graphs in a
//! content-addressed store, so it needs a hash that is a pure function
//! of the graph's *semantic content* — stable across processes, runs,
//! platforms and pointer layouts. `std::hash` offers no such guarantee
//! (and `DefaultHasher` is explicitly randomized), so this module ships
//! a tiny FNV-1a implementation and hashes the canonical textual form
//! of a graph: [`print_graph`](crate::print_graph) prints reachable
//! blocks in sorted id order, which the parser round-trips to a
//! fixpoint, making the text a canonical serialization.
//!
//! The class table is hashed alongside the body: two graphs with equal
//! bodies but different field layouts are different compilation inputs.
//!
//! The compiler's in-process tables — keyed by ids, opcodes and
//! constants it makes itself — hash with [`FastHasher`] instead of
//! `std`'s SipHash-1-3: one folded 64×64→128-bit multiply per word.
//! [`FastState`] seeds it once per process from `std`'s `RandomState`,
//! so a client that sends IR to the daemon cannot pick constants that
//! all land in one bucket (an unseeded multiply-rotate hasher sends
//! every multiple of 2³² to the same one). Iteration order of a
//! [`FastMap`] is therefore no more a contract than a `std` map's.

use crate::print::{write_class_table, write_graph};
use crate::Graph;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher with a stable, documented
/// algorithm (unlike `std`'s `DefaultHasher`, which may change between
/// releases and is seeded per process).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a string's UTF-8 bytes plus a terminator byte, so
    /// `"ab" + "c"` and `"a" + "bc"` hash differently.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes()).write(&[0xff])
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Feeds formatted text straight into a [`Fnv64`], so a printer can be
/// hashed without building its output.
struct FnvWriter<'a>(&'a mut Fnv64);

impl fmt::Write for FnvWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// The stable content hash of a graph: FNV-1a over its class table and
/// canonical textual form. Equal for graphs that print identically
/// (same reachable structure, ids, and class layout), independent of
/// process, allocation order of dead arena slots, or undo-log history.
///
/// The bytes are those of [`Fnv64::write_str`] on
/// [`print_class_table`](crate::print_class_table) and then on
/// [`print_graph`](crate::print_graph), streamed from the printer
/// without building either string.
pub fn content_hash(g: &Graph) -> u64 {
    const INFALLIBLE: &str = "hashing cannot fail";
    let mut h = Fnv64::new();
    write_class_table(&mut FnvWriter(&mut h), g.class_table()).expect(INFALLIBLE);
    h.write(&[0xff]);
    write_graph(&mut FnvWriter(&mut h), g).expect(INFALLIBLE);
    h.write(&[0xff]);
    h.finish()
}

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` hashed by [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastState>;

/// An odd multiplier with no structure in its bits (the 64-bit
/// golden-ratio constant).
const FAST_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// A hasher for in-process tables: each word is xored into the state,
/// which is then replaced by the xor of the two halves of its 128-bit
/// product with a fixed odd multiplier. Every input bit reaches the low
/// bits a table indexes by. Not stable across processes (see
/// [`FastState`]).
#[derive(Clone, Copy, Debug)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v.into());
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(v.into());
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        let p = u128::from(self.0 ^ v) * u128::from(FAST_MUL);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`BuildHasher`] of [`FastMap`] / [`FastSet`]: every state in a
/// process starts [`FastHasher`] from the same seed, drawn from `std`'s
/// `RandomState` the first time one is made.
#[derive(Clone, Copy, Debug)]
pub struct FastState {
    seed: u64,
}

impl Default for FastState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(FAST_MUL));
        FastState { seed }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassTable, ConstValue, GraphBuilder, Type};
    use std::sync::Arc;

    fn sample(ret_param: bool) -> Graph {
        let mut b = GraphBuilder::new("h", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        let one = b.iconst(1);
        let s = b.add(x, one);
        b.ret(Some(if ret_param { x } else { s }));
        b.finish()
    }

    #[test]
    fn known_vector() {
        // FNV-1a test vector: "a" hashes to 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b""), FNV_OFFSET);
    }

    #[test]
    fn equal_graphs_hash_equal_and_clones_too() {
        assert_eq!(content_hash(&sample(false)), content_hash(&sample(false)));
        let g = sample(false);
        assert_eq!(content_hash(&g), content_hash(&g.clone()));
    }

    #[test]
    fn the_streamed_hash_is_the_hash_of_the_printed_strings() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        t.add_field(a, "next", Type::Ref(a));
        let mut b = GraphBuilder::new("s", &[Type::Ref(a)], Arc::new(t));
        let o = b.param(0);
        let three = b.iconst(-3);
        b.store(o, fx, three);
        b.ret(None);
        for g in [sample(false), sample(true), b.finish()] {
            let mut h = Fnv64::new();
            h.write_str(&crate::print_class_table(g.class_table()));
            h.write_str(&crate::print_graph(&g));
            assert_eq!(content_hash(&g), h.finish());
        }
    }

    #[test]
    fn different_graphs_hash_differently() {
        assert_ne!(content_hash(&sample(false)), content_hash(&sample(true)));
    }

    #[test]
    fn write_str_is_concatenation_safe() {
        let mut a = Fnv64::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hash_ignores_undo_log_history() {
        let mut g = sample(false);
        let before = content_hash(&g);
        g.begin_txn();
        g.add_block();
        g.rollback_txn();
        // Version stamps moved, arena truncated back — content equal.
        assert_eq!(content_hash(&g), before);
    }

    #[test]
    fn fast_hasher_spreads_multiples_of_two_to_the_32() {
        // A multiply-rotate hasher without a final mix (Fx) sends every
        // one of these keys to low bits 0; a random function reaches
        // about 2 590 of the 4 096 low-12-bit values.
        let state = FastState::default();
        let low: HashSet<u64> = (0..4096_i64)
            .map(|k| state.hash_one(ConstValue::Int(k << 32)) & 0xfff)
            .collect();
        assert!(
            low.len() >= 2400,
            "{} distinct low-12-bit hashes",
            low.len()
        );
    }

    #[test]
    fn fast_states_of_one_process_agree() {
        let (a, b) = (FastState::default(), FastState::default());
        for key in [
            ConstValue::Int(7),
            ConstValue::Bool(true),
            ConstValue::NullArr,
        ] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        let mut map: FastMap<ConstValue, u32> = FastMap::default();
        map.insert(ConstValue::Int(1 << 32), 1);
        assert_eq!(map.get(&ConstValue::Int(1 << 32)), Some(&1));
    }
}
