//! Differential property for the scoped fact environment: random
//! sequences of writes, `forget_memory`, `mark` and `rollback_to` drive a
//! [`FactEnv`] and a reference model built here from cloned `BTreeMap`s
//! (a mark clones the model, a rollback restores the clone). After every
//! step both must give the same `resolve`, `stamp_of`, `cached_field`,
//! `virtual_of` and `read_virtual_field` answers on a fixed probe set.
//!
//! The model shares no code with `env.rs`: it re-states each operation's
//! meaning directly — `forget_memory` empties the memory maps, a kill
//! removes entries — where the environment raises floors and keeps a
//! trail.

use dbds_analysis::{initial_stamp, IntRange, RefStamp, Stamp};
use dbds_ir::{ClassId, ClassTable, ConstValue, FieldId, Graph, GraphBuilder, InstId, Type};
use dbds_opt::{FactEnv, Mark, Synonym};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The graph the probes read stamps and field types from.
struct Fixture {
    g: Graph,
    values: Vec<InstId>,
    fields: Vec<FieldId>,
    class: ClassId,
}

fn fixture() -> Fixture {
    let mut t = ClassTable::new();
    let class = t.add_class("A");
    let fields = vec![
        t.add_field(class, "i", Type::Int),
        t.add_field(class, "b", Type::Bool),
        t.add_field(class, "r", Type::Ref(class)),
    ];
    let mut b = GraphBuilder::new(
        "env",
        &[Type::Int, Type::Int, Type::Ref(class), Type::Ref(class)],
        Arc::new(t),
    );
    let mut values: Vec<InstId> = (0..4).map(|i| b.param(i)).collect();
    values.push(b.new_object(class));
    values.push(b.new_object(class));
    values.push(b.iconst(7));
    b.ret(None);
    Fixture {
        g: b.finish(),
        values,
        fields,
        class,
    }
}

/// The reference model: what each fact map holds, with no trail and no
/// floors.
#[derive(Clone, Default, Debug)]
struct Model {
    synonyms: BTreeMap<InstId, Synonym>,
    stamps: BTreeMap<InstId, Stamp>,
    fields: BTreeMap<(InstId, FieldId), Synonym>,
    virtuals: BTreeMap<InstId, (ClassId, BTreeMap<FieldId, Synonym>)>,
}

impl Model {
    fn resolve(&self, v: InstId) -> (InstId, Option<ConstValue>) {
        let mut cur = v;
        for _ in 0..64 {
            match self.synonyms.get(&cur) {
                Some(Synonym::Const(c)) => return (cur, Some(*c)),
                Some(Synonym::Value(w)) => cur = *w,
                None => break,
            }
        }
        (cur, None)
    }

    fn base(&self, v: InstId) -> InstId {
        self.resolve(v).0
    }

    fn stamp_of(&self, g: &Graph, v: InstId) -> Stamp {
        let (rep, konst) = self.resolve(v);
        if let Some(c) = konst {
            return Stamp::of_const(c);
        }
        if let Some(s) = self.stamps.get(&rep) {
            return s.clone();
        }
        if let Some((class, _)) = self.virtuals.get(&rep) {
            return Stamp::Obj(RefStamp::exact(*class));
        }
        initial_stamp(g, rep)
    }

    fn read_virtual_field(&self, g: &Graph, object: InstId, field: FieldId) -> Option<Synonym> {
        let (_, fields) = self.virtuals.get(&self.base(object))?;
        Some(fields.get(&field).copied().unwrap_or_else(|| {
            Synonym::Const(match g.class_table().field(field).ty {
                Type::Int => ConstValue::Int(0),
                Type::Bool => ConstValue::Bool(false),
                Type::Ref(c) => ConstValue::Null(c),
                Type::Arr => ConstValue::NullArr,
                Type::Void => unreachable!("fields are never void"),
            })
        }))
    }
}

/// One random step.
#[derive(Clone, Copy, Debug)]
enum Op {
    SetSynonym(usize, usize, i64),
    SetStamp(usize, i64),
    CacheField(usize, usize, usize, i64),
    KillFieldAliases(usize, usize),
    KillAllFields,
    AddVirtual(usize),
    WriteVirtualField(usize, usize, usize, i64),
    Materialize(usize),
    ForgetMemory,
    Mark,
    Rollback,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    collection::vec((0u8..13, 0usize..7, 0usize..7, 0usize..3, -2i64..3), 0..80).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, a, b, f, k)| match kind {
                0 => Op::SetSynonym(a, b, k),
                1 => Op::SetStamp(a, k),
                2 => Op::CacheField(a, f, b, k),
                3 => Op::KillFieldAliases(a, f),
                4 => Op::KillAllFields,
                5 => Op::AddVirtual(a),
                6 => Op::WriteVirtualField(a, f, b, k),
                7 => Op::Materialize(a),
                8 => Op::ForgetMemory,
                9 | 10 => Op::Mark,
                _ => Op::Rollback,
            })
            .collect()
    })
}

/// A synonym for value `b` (or the constant `k` when `k` is negative or
/// `b` is the value being defined).
fn synonym(fx: &Fixture, of: usize, b: usize, k: i64) -> Synonym {
    if k < 0 || b == of {
        Synonym::Const(ConstValue::Int(k))
    } else {
        Synonym::Value(fx.values[b])
    }
}

/// Applies `op` to both sides (marks and rollbacks go through `scopes`).
fn step(
    fx: &Fixture,
    env: &mut FactEnv,
    model: &mut Model,
    scopes: &mut Vec<(Mark, Model)>,
    op: Op,
) {
    let v = |i: usize| fx.values[i];
    match op {
        Op::SetSynonym(a, b, k) => {
            let syn = synonym(fx, a, b, k);
            env.set_synonym(v(a), syn);
            model.synonyms.insert(v(a), syn);
        }
        Op::SetStamp(a, k) => {
            let stamp = Stamp::Int(IntRange::new(k, k + 5));
            env.set_stamp(v(a), stamp.clone());
            let rep = model.base(v(a));
            model.stamps.insert(rep, stamp);
        }
        Op::CacheField(a, f, b, k) => {
            let syn = synonym(fx, a, b, k);
            env.cache_field(v(a), fx.fields[f], syn);
            let base = model.base(v(a));
            model.fields.insert((base, fx.fields[f]), syn);
        }
        Op::KillFieldAliases(a, f) => {
            env.kill_field_aliases(v(a), fx.fields[f]);
            let base = model.base(v(a));
            model
                .fields
                .retain(|&(b, field), _| field != fx.fields[f] || b == base);
        }
        Op::KillAllFields => {
            env.kill_all_fields();
            model.fields.clear();
        }
        Op::AddVirtual(a) => {
            env.add_virtual(v(a), fx.class);
            model.virtuals.insert(v(a), (fx.class, BTreeMap::new()));
        }
        Op::WriteVirtualField(a, f, b, k) => {
            let syn = synonym(fx, a, b, k);
            let wrote = env.write_virtual_field(v(a), fx.fields[f], syn);
            let base = model.base(v(a));
            let expected = match model.virtuals.get_mut(&base) {
                Some((_, fields)) => {
                    fields.insert(fx.fields[f], syn);
                    true
                }
                None => false,
            };
            assert_eq!(wrote, expected, "write_virtual_field({a}) after {op:?}");
        }
        Op::Materialize(a) => {
            env.materialize(v(a));
            let base = model.base(v(a));
            model.virtuals.remove(&base);
        }
        Op::ForgetMemory => {
            env.forget_memory();
            model.fields.clear();
            model.virtuals.clear();
        }
        Op::Mark => scopes.push((env.mark(), model.clone())),
        Op::Rollback => {
            if let Some((mark, saved)) = scopes.pop() {
                env.rollback_to(mark);
                *model = saved;
            }
        }
    }
}

/// Both sides answer every probe alike.
fn agree(fx: &Fixture, env: &FactEnv, model: &Model, after: &str) {
    let g = &fx.g;
    for &v in &fx.values {
        let r = env.resolve(v);
        assert_eq!((r.id, r.konst), model.resolve(v), "resolve({v}) {after}");
        assert_eq!(
            env.stamp_of(g, v),
            model.stamp_of(g, v),
            "stamp_of({v}) {after}"
        );
        let virt = env.virtual_of(v).map(|vo| {
            let fields: BTreeMap<FieldId, Synonym> =
                vo.fields.iter().map(|(&f, &s)| (f, s)).collect();
            (vo.class, fields)
        });
        assert_eq!(
            virt.as_ref(),
            model.virtuals.get(&model.base(v)),
            "virtual_of({v}) {after}"
        );
        for &f in &fx.fields {
            assert_eq!(
                env.cached_field(v, f),
                model.fields.get(&(model.base(v), f)).copied(),
                "cached_field({v}, {f:?}) {after}"
            );
            assert_eq!(
                env.read_virtual_field(g, v, f),
                model.read_virtual_field(g, v, f),
                "read_virtual_field({v}, {f:?}) {after}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every step of a random sequence, the environment answers
    /// exactly as the cloned-map model does.
    #[test]
    fn scoped_env_matches_cloned_maps(seq in ops()) {
        let fx = fixture();
        let mut env = FactEnv::new();
        let mut model = Model::default();
        let mut scopes = Vec::new();
        for (n, &op) in seq.iter().enumerate() {
            step(&fx, &mut env, &mut model, &mut scopes, op);
            agree(&fx, &env, &model, &format!("after step {n}: {op:?}"));
        }
        // Unwinding every open scope, outermost last, restores each one.
        while let Some((mark, saved)) = scopes.pop() {
            env.rollback_to(mark);
            agree(&fx, &env, &saved, "after unwinding the scopes");
        }
    }

    /// A panic partway through a sequence leaves a trail the mark taken
    /// before it still unwinds exactly.
    #[test]
    fn rollback_after_a_panic_restores_the_mark(
        before in ops(),
        during in ops(),
        cut in 0usize..80,
    ) {
        let fx = fixture();
        let mut env = FactEnv::new();
        let mut model = Model::default();
        let mut scopes = Vec::new();
        for &op in &before {
            step(&fx, &mut env, &mut model, &mut scopes, op);
        }
        let mark = env.mark();
        let saved = model.clone();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let mut inner = model.clone();
            // Only the rollbacks to marks taken inside stay in scope.
            let mut inner_scopes = Vec::new();
            for &op in during.iter().take(cut) {
                step(&fx, &mut env, &mut inner, &mut inner_scopes, op);
            }
            // A value made its own synonym panics inside `set_synonym`.
            env.set_synonym(fx.values[0], Synonym::Value(fx.values[0]));
        }));
        prop_assert!(panicked.is_err());
        env.rollback_to(mark);
        agree(&fx, &env, &saved, "after rolling back past the panic");
        // The environment stays usable: the outer scopes still unwind.
        while let Some((mark, saved)) = scopes.pop() {
            env.rollback_to(mark);
            agree(&fx, &env, &saved, "after unwinding the outer scopes");
        }
    }
}
