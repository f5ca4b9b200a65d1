//! The fact environment shared by real and simulated optimization.
//!
//! §4.1 of the paper introduces *synonym maps* ("a synonym map maps a φ
//! node to its input on the respective DST predecessor") and runs
//! applicability checks against them so that no IR needs to be copied
//! during simulation. [`FactEnv`] generalizes this: it carries
//!
//! - **synonyms** — value ⇒ equivalent constant or other value,
//! - **stamps** — condition-refined value knowledge (see
//!   [`dbds_analysis::Stamp`]),
//! - a **field cache** — the last known value of `object.field`, for read
//!   elimination,
//! - **virtual objects** — allocations whose fields are tracked
//!   symbolically, for partial-escape-analysis-style reasoning.
//!
//! The same environment type drives the DBDS simulation tier (facts only,
//! no mutation) and the canonicalization pass (facts plus graph rewrites).
//!
//! # Scopes
//!
//! The facts are not copied either. An environment is one scoped
//! structure — the scoped hash table of dominator-tree value numbering,
//! kept as an undo trail like the graph's own undo log. Synonyms and
//! stamps live in dense tables indexed by [`InstId`] (they grow on write:
//! a pass may extend the arena while it walks). Every write first pushes
//! the slot's old value on the trail, so [`FactEnv::mark`] /
//! [`FactEnv::rollback_to`] return the environment to exactly the facts it
//! held at the mark — after a panic between two writes too. A tree walk
//! marks before it descends into a child and rolls back when it leaves.
//!
//! Memory facts (the field cache and virtual objects) only hold along
//! straight-line paths. Each entry carries the generation it was written
//! in, and an entry below its map's *floor* is invisible:
//! [`FactEnv::forget_memory`] raises both floors and
//! [`FactEnv::kill_all_fields`] the field floor — one trail entry each,
//! whatever the maps hold. Rolling back lowers the floors again.

use dbds_analysis::{refine_by_cmp, refine_by_instanceof, Stamp};
use dbds_ir::{BlockId, ClassId, ConstValue, FieldId, Graph, Inst, InstId, Terminator, Type};
use std::collections::HashMap;

/// What a value is known to be equivalent to.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Synonym {
    /// Equivalent to another SSA value.
    Value(InstId),
    /// Equivalent to a constant.
    Const(ConstValue),
}

/// A fully resolved value: the representative SSA id after following the
/// synonym chain, plus the constant it is pinned to, if any.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Resolved {
    /// Representative value id.
    pub id: InstId,
    /// Known constant value, if pinned.
    pub konst: Option<ConstValue>,
}

/// A virtual (not yet materialized) object tracked by PEA-style reasoning.
#[derive(Clone, PartialEq, Debug)]
pub struct VirtualObject {
    /// The allocated class.
    pub class: ClassId,
    /// Known field contents. Missing fields hold their default value.
    pub fields: HashMap<FieldId, Synonym>,
}

/// A point on an environment's trail, taken by [`FactEnv::mark`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mark(usize);

/// A memory-fact entry with the generation it was written in.
#[derive(Clone, Debug)]
struct Tagged<T> {
    generation: u64,
    value: T,
}

/// One trail entry: a slot and the value it held before a write.
#[derive(Debug)]
enum Undo {
    Synonym(InstId, Option<Synonym>),
    Stamp(InstId, Option<Stamp>),
    Field((InstId, FieldId), Option<Tagged<Synonym>>),
    Virtual(InstId, Option<Tagged<VirtualObject>>),
    VirtualField(InstId, FieldId, Option<Synonym>),
    Floors { field: u64, virtuals: u64 },
}

/// The set of facts valid at one program point.
#[derive(Default, Debug)]
pub struct FactEnv {
    synonyms: Vec<Option<Synonym>>,
    stamps: Vec<Option<Stamp>>,
    field_cache: HashMap<(InstId, FieldId), Tagged<Synonym>>,
    virtuals: HashMap<InstId, Tagged<VirtualObject>>,
    /// Field-cache entries written before this generation are invisible.
    field_floor: u64,
    /// Virtual objects added before this generation are invisible.
    virtual_floor: u64,
    /// The generation new memory entries are written in. Only grows, so a
    /// raised floor hides every entry written before the raise.
    generation: u64,
    trail: Vec<Undo>,
}

/// Writes `value` into `table[id]`, growing the table.
fn set_slot<T>(table: &mut Vec<Option<T>>, id: InstId, value: T) {
    let i = id.index();
    if i >= table.len() {
        table.resize_with(i + 1, || None);
    }
    table[i] = Some(value);
}

impl FactEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current point on the trail: [`FactEnv::rollback_to`] with it
    /// undoes every write made after this call.
    pub fn mark(&self) -> Mark {
        Mark(self.trail.len())
    }

    /// Restores exactly the facts held when `mark` was taken, undoing the
    /// newest write first.
    pub fn rollback_to(&mut self, mark: Mark) {
        while self.trail.len() > mark.0 {
            let Some(undo) = self.trail.pop() else { break };
            match undo {
                Undo::Synonym(v, old) => self.synonyms[v.index()] = old,
                Undo::Stamp(v, old) => self.stamps[v.index()] = old,
                Undo::Field(key, old) => restore(&mut self.field_cache, key, old),
                Undo::Virtual(v, old) => restore(&mut self.virtuals, v, old),
                Undo::VirtualField(v, field, old) => {
                    if let Some(vo) = self.virtuals.get_mut(&v) {
                        restore(&mut vo.value.fields, field, old);
                    }
                }
                Undo::Floors { field, virtuals } => {
                    self.field_floor = field;
                    self.virtual_floor = virtuals;
                }
            }
        }
    }

    /// Hides the memory facts (field cache and virtual objects), which
    /// only hold along straight-line paths, until a rollback past this
    /// call; synonyms and stamps carry over to any dominated block.
    pub fn forget_memory(&mut self) {
        self.raise_floors(true);
    }

    /// Pushes the floors on the trail, then raises the field floor (and
    /// the virtual-object floor when `virtuals`) to a fresh generation.
    fn raise_floors(&mut self, virtuals: bool) {
        self.trail.push(Undo::Floors {
            field: self.field_floor,
            virtuals: self.virtual_floor,
        });
        self.generation += 1;
        self.field_floor = self.generation;
        if virtuals {
            self.virtual_floor = self.generation;
        }
    }

    /// The visible field-cache entry for `key`.
    fn field(&self, key: (InstId, FieldId)) -> Option<Synonym> {
        self.field_cache
            .get(&key)
            .filter(|e| e.generation >= self.field_floor)
            .map(|e| e.value)
    }

    /// The visible virtual object `base`.
    fn virtual_at(&self, base: InstId) -> Option<&VirtualObject> {
        self.virtuals
            .get(&base)
            .filter(|e| e.generation >= self.virtual_floor)
            .map(|e| &e.value)
    }

    /// Registers that `v` is equivalent to `syn`.
    ///
    /// # Panics
    ///
    /// Panics if a value is made a synonym of itself.
    pub fn set_synonym(&mut self, v: InstId, syn: Synonym) {
        if let Synonym::Value(w) = syn {
            assert_ne!(v, w, "value cannot be its own synonym");
        }
        let old = self.synonyms.get(v.index()).copied().flatten();
        self.trail.push(Undo::Synonym(v, old));
        set_slot(&mut self.synonyms, v, syn);
    }

    /// Follows the synonym chain of `v` to its representative and constant.
    pub fn resolve(&self, v: InstId) -> Resolved {
        let mut cur = v;
        // Chains are short; the bound guards against accidental cycles.
        for _ in 0..64 {
            match self.synonyms.get(cur.index()).copied().flatten() {
                Some(Synonym::Const(c)) => {
                    return Resolved {
                        id: cur,
                        konst: Some(c),
                    }
                }
                Some(Synonym::Value(w)) => cur = w,
                None => break,
            }
        }
        Resolved {
            id: cur,
            konst: None,
        }
    }

    /// Like [`FactEnv::resolve`], but additionally recognizes values whose
    /// defining instruction is an [`Inst::Const`] in the graph itself.
    pub fn resolve_full(&self, g: &Graph, v: InstId) -> Resolved {
        let r = self.resolve(v);
        if r.konst.is_none() {
            if let Inst::Const(c) = g.inst(r.id) {
                return Resolved {
                    id: r.id,
                    konst: Some(*c),
                };
            }
        }
        r
    }

    /// The stamp of `v` under the current facts. Constants get constant
    /// stamps; otherwise refined knowledge recorded for the representative
    /// is returned, falling back to the instruction's local stamp.
    pub fn stamp_of(&self, g: &Graph, v: InstId) -> Stamp {
        let r = self.resolve(v);
        if let Some(c) = r.konst {
            return Stamp::of_const(c);
        }
        if let Some(Some(s)) = self.stamps.get(r.id.index()) {
            return s.clone();
        }
        // Virtual objects are known non-null with exact class.
        if let Some(vo) = self.virtual_at(r.id) {
            return Stamp::Obj(dbds_analysis::RefStamp::exact(vo.class));
        }
        dbds_analysis::initial_stamp(g, r.id)
    }

    /// Replaces the recorded stamp of the representative of `v`.
    pub fn set_stamp(&mut self, v: InstId, stamp: Stamp) {
        let r = self.resolve(v);
        let old = self.stamps.get(r.id.index()).cloned().flatten();
        self.trail.push(Undo::Stamp(r.id, old));
        set_slot(&mut self.stamps, r.id, stamp);
    }

    /// The cached value of `object.field`, if a previous load/store pinned
    /// it down.
    pub fn cached_field(&self, object: InstId, field: FieldId) -> Option<Synonym> {
        self.field((self.resolve(object).id, field))
    }

    /// Records `object.field == value`.
    pub fn cache_field(&mut self, object: InstId, field: FieldId, value: Synonym) {
        let key = (self.resolve(object).id, field);
        let old = self.field_cache.get(&key).cloned();
        self.trail.push(Undo::Field(key, old));
        self.field_cache.insert(
            key,
            Tagged {
                generation: self.generation,
                value,
            },
        );
    }

    /// Invalidates cache entries that a store to `object.field` may alias:
    /// every entry for `field` with a *different* base object (same-base
    /// entries are overwritten by the caller).
    pub fn kill_field_aliases(&mut self, object: InstId, field: FieldId) {
        let base = self.resolve(object).id;
        let floor = self.field_floor;
        let killed: Vec<(InstId, FieldId)> = self
            .field_cache
            .iter()
            .filter(|&(&(b, f), e)| f == field && b != base && e.generation >= floor)
            .map(|(&key, _)| key)
            .collect();
        for key in killed {
            let old = self.field_cache.get(&key).cloned();
            self.trail.push(Undo::Field(key, old));
            self.field_cache.remove(&key);
        }
    }

    /// Invalidates the entire field cache (used at opaque calls).
    pub fn kill_all_fields(&mut self) {
        self.raise_floors(false);
    }

    /// Begins tracking `alloc` (an [`Inst::New`] value) as a virtual
    /// object of class `class`.
    pub fn add_virtual(&mut self, alloc: InstId, class: ClassId) {
        let old = self.virtuals.get(&alloc).cloned();
        self.trail.push(Undo::Virtual(alloc, old));
        self.virtuals.insert(
            alloc,
            Tagged {
                generation: self.generation,
                value: VirtualObject {
                    class,
                    fields: HashMap::new(),
                },
            },
        );
    }

    /// The virtual object backing `v`, if any.
    pub fn virtual_of(&self, v: InstId) -> Option<&VirtualObject> {
        self.virtual_at(self.resolve(v).id)
    }

    /// Reads a virtual field; defaults to the field type's zero value.
    pub fn read_virtual_field(&self, g: &Graph, object: InstId, field: FieldId) -> Option<Synonym> {
        let vo = self.virtual_of(object)?;
        Some(match vo.fields.get(&field) {
            Some(s) => *s,
            None => Synonym::Const(default_const(g, field)),
        })
    }

    /// Writes a virtual field. Returns `false` when `object` is not
    /// virtual.
    pub fn write_virtual_field(&mut self, object: InstId, field: FieldId, value: Synonym) -> bool {
        let base = self.resolve(object).id;
        let Some(vo) = self.virtual_at(base) else {
            return false;
        };
        let old = vo.fields.get(&field).copied();
        self.trail.push(Undo::VirtualField(base, field, old));
        if let Some(vo) = self.virtuals.get_mut(&base) {
            vo.value.fields.insert(field, value);
        }
        true
    }

    /// Stops tracking `v` as virtual (the object escaped).
    pub fn materialize(&mut self, v: InstId) {
        let base = self.resolve(v).id;
        if self.virtual_at(base).is_some() {
            let old = self.virtuals.get(&base).cloned();
            self.trail.push(Undo::Virtual(base, old));
            self.virtuals.remove(&base);
        }
    }

    /// Applies the knowledge that branch condition `cond` evaluated to
    /// `truth`. Returns `false` when the combination is infeasible (the
    /// guarded path cannot execute).
    pub fn assume_condition(&mut self, g: &Graph, cond: InstId, truth: bool) -> bool {
        let r = self.resolve_full(g, cond);
        if let Some(c) = r.konst {
            return c.as_bool() == Some(truth);
        }
        // The condition itself is now a known boolean.
        self.set_stamp(cond, Stamp::Bool(Some(truth)));
        match g.inst(r.id).clone() {
            Inst::Compare { op, lhs, rhs } => {
                let ls = self.stamp_of(g, lhs);
                let rs = self.stamp_of(g, rhs);
                match refine_by_cmp(op, truth, &ls, &rs) {
                    Some((l2, r2)) => {
                        self.set_stamp(lhs, l2);
                        self.set_stamp(rhs, r2);
                        true
                    }
                    None => false,
                }
            }
            Inst::InstanceOf { object, class } => {
                let s = self.stamp_of(g, object);
                match s {
                    Stamp::Obj(ref os) => match refine_by_instanceof(os, class, truth) {
                        Some(refined) => {
                            self.set_stamp(object, Stamp::Obj(refined));
                            true
                        }
                        None => false,
                    },
                    _ => true,
                }
            }
            Inst::Not(x) => self.assume_condition(g, x, !truth),
            _ => true,
        }
    }

    /// Applies what the edge `b → s` establishes: `b`'s branch condition
    /// holds on the edge to its then-successor and fails on the edge to
    /// its else-successor. Nothing when `b` does not end in a branch.
    ///
    /// The one rule the canonicalizer's walk and the simulation tier
    /// share, so what a DST predicts is what the canonicalizer proves.
    pub fn assume_edge(&mut self, g: &Graph, b: BlockId, s: BlockId) {
        if let Terminator::Branch {
            cond,
            then_bb,
            else_bb,
            ..
        } = *g.terminator(b)
        {
            if s == then_bb {
                let _ = self.assume_condition(g, cond, true);
            } else if s == else_bb {
                let _ = self.assume_condition(g, cond, false);
            }
        }
    }

    /// Applies the step from dominator-tree parent `parent` into its
    /// child `b`: a child with its parent as sole predecessor extends the
    /// parent's facts through the edge condition; any other child forgets
    /// the memory facts, which only hold along straight-line paths. The
    /// one entry rule of the canonicalizer's walk, the simulation walk
    /// and the prediction audit.
    pub fn enter_child(&mut self, g: &Graph, parent: BlockId, b: BlockId) {
        if g.preds(b) == [parent] {
            self.assume_edge(g, parent, b);
        } else {
            self.forget_memory();
        }
    }

    /// The way `b`'s branch goes under these facts: `Some(truth)` when
    /// its condition resolves to a constant or has a constant stamp,
    /// `None` when it is undecided or `b` does not end in a branch. The
    /// canonicalizer folds exactly the branches the simulation tier
    /// predicts a [`ConditionalElim`](crate::OptKind::ConditionalElim)
    /// for.
    pub fn branch_decision(&self, g: &Graph, b: BlockId) -> Option<bool> {
        let Terminator::Branch { cond, .. } = *g.terminator(b) else {
            return None;
        };
        self.resolve_full(g, cond)
            .konst
            .and_then(ConstValue::as_bool)
            .or_else(|| self.stamp_of(g, cond).as_bool_constant())
    }
}

/// The default (zero) constant of `field`'s type.
fn default_const(g: &Graph, field: FieldId) -> ConstValue {
    match g.class_table().field(field).ty {
        Type::Int => ConstValue::Int(0),
        Type::Bool => ConstValue::Bool(false),
        Type::Ref(c) => ConstValue::Null(c),
        Type::Arr => ConstValue::NullArr,
        Type::Void => unreachable!("fields cannot be void"),
    }
}

/// Puts `old` back as `map[key]`: reinserts it, or removes the key when
/// it was absent.
fn restore<K: std::hash::Hash + Eq, V>(map: &mut HashMap<K, V>, key: K, old: Option<V>) {
    match old {
        Some(v) => {
            map.insert(key, v);
        }
        None => {
            map.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_analysis::{IntRange, Nullness};
    use dbds_ir::{ClassTable, CmpOp, GraphBuilder};
    use std::sync::Arc;

    fn int_graph() -> (Graph, InstId, InstId, InstId) {
        let mut b = GraphBuilder::new("g", &[Type::Int, Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        let y = b.param(1);
        let c = b.cmp(CmpOp::Lt, x, y);
        b.ret(None);
        (b.finish(), x, y, c)
    }

    #[test]
    fn synonym_chains_resolve() {
        let (_, x, y, c) = int_graph();
        let mut env = FactEnv::new();
        env.set_synonym(c, Synonym::Value(y));
        env.set_synonym(y, Synonym::Const(ConstValue::Int(3)));
        let r = env.resolve(c);
        assert_eq!(r.konst, Some(ConstValue::Int(3)));
        assert_eq!(env.resolve(x).konst, None);
        assert_eq!(env.resolve(x).id, x);
    }

    #[test]
    fn stamps_follow_synonyms() {
        let (g, x, y, _) = int_graph();
        let mut env = FactEnv::new();
        env.set_synonym(x, Synonym::Value(y));
        env.set_stamp(y, Stamp::Int(IntRange::new(0, 5)));
        assert_eq!(env.stamp_of(&g, x), Stamp::Int(IntRange::new(0, 5)));
    }

    #[test]
    fn assume_cmp_refines_both_sides() {
        let (g, x, y, c) = int_graph();
        let mut env = FactEnv::new();
        env.set_synonym(y, Synonym::Const(ConstValue::Int(10)));
        assert!(env.assume_condition(&g, c, true)); // x < 10
        match env.stamp_of(&g, x) {
            Stamp::Int(r) => assert_eq!(r.hi, 9),
            s => panic!("unexpected stamp {s:?}"),
        }
        assert_eq!(env.stamp_of(&g, c), Stamp::Bool(Some(true)));
    }

    #[test]
    fn assume_not_negates() {
        let (g, x, _y, c) = int_graph();
        let mut gg = g.clone();
        let entry = gg.entry();
        let not = gg.append_inst(entry, Inst::Not(c), Type::Bool);
        let mut env = FactEnv::new();
        // not(x < y) true  ⇒  x >= y.
        assert!(env.assume_condition(&gg, not, true));
        assert_eq!(env.stamp_of(&gg, c), Stamp::Bool(Some(false)));
        let _ = x;
    }

    #[test]
    fn infeasible_assumption_detected() {
        let (g, x, y, c) = int_graph();
        let mut env = FactEnv::new();
        env.set_synonym(x, Synonym::Const(ConstValue::Int(20)));
        env.set_synonym(y, Synonym::Const(ConstValue::Int(10)));
        // 20 < 10 cannot be true.
        assert!(!env.assume_condition(&g, c, true));
    }

    #[test]
    fn field_cache_with_alias_kill() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let fy = t.add_field(a, "y", Type::Int);
        let mut b = GraphBuilder::new("f", &[Type::Ref(a), Type::Ref(a)], Arc::new(t));
        let o1 = b.param(0);
        let o2 = b.param(1);
        b.ret(None);
        let g = b.finish();
        let _ = g;
        let mut env = FactEnv::new();
        env.cache_field(o1, fx, Synonym::Const(ConstValue::Int(1)));
        env.cache_field(o2, fx, Synonym::Const(ConstValue::Int(2)));
        env.cache_field(o1, fy, Synonym::Const(ConstValue::Int(3)));
        // A store to o2.x may alias o1.x (different base) but not o1.y.
        env.kill_field_aliases(o2, fx);
        assert_eq!(env.cached_field(o1, fx), None);
        assert_eq!(
            env.cached_field(o2, fx),
            Some(Synonym::Const(ConstValue::Int(2)))
        );
        assert_eq!(
            env.cached_field(o1, fy),
            Some(Synonym::Const(ConstValue::Int(3)))
        );
        env.kill_all_fields();
        assert_eq!(env.cached_field(o2, fx), None);
    }

    #[test]
    fn virtual_objects_track_fields() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let table = Arc::new(t);
        let mut b = GraphBuilder::new("v", &[], table);
        let alloc = b.new_object(a);
        b.ret(None);
        let g = b.finish();
        let mut env = FactEnv::new();
        env.add_virtual(alloc, a);
        // Default field value is the typed zero.
        assert_eq!(
            env.read_virtual_field(&g, alloc, fx),
            Some(Synonym::Const(ConstValue::Int(0)))
        );
        assert!(env.write_virtual_field(alloc, fx, Synonym::Const(ConstValue::Int(7))));
        assert_eq!(
            env.read_virtual_field(&g, alloc, fx),
            Some(Synonym::Const(ConstValue::Int(7)))
        );
        // Virtual objects are non-null with exact class.
        match env.stamp_of(&g, alloc) {
            Stamp::Obj(s) => {
                assert_eq!(s.nullness, Nullness::NonNull);
                assert_eq!(s.exact_class, Some(a));
            }
            s => panic!("unexpected stamp {s:?}"),
        }
        env.materialize(alloc);
        assert_eq!(env.read_virtual_field(&g, alloc, fx), None);
        assert!(!env.write_virtual_field(alloc, fx, Synonym::Const(ConstValue::Int(9))));
    }

    #[test]
    fn instanceof_assumption_refines() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let table = Arc::new(t);
        let mut b = GraphBuilder::new("i", &[Type::Ref(a)], table);
        let o = b.param(0);
        let test = b.instance_of(o, a);
        b.ret(None);
        let g = b.finish();
        let mut env = FactEnv::new();
        assert!(env.assume_condition(&g, test, true));
        match env.stamp_of(&g, o) {
            Stamp::Obj(s) => {
                assert_eq!(s.nullness, Nullness::NonNull);
                assert_eq!(s.exact_class, Some(a));
            }
            s => panic!("unexpected stamp {s:?}"),
        }
    }
}
