//! Value stamps: what a compiler statically knows about an SSA value.
//!
//! Graal attaches a *stamp* to every node (integer ranges, nullness, type
//! information) and conditional elimination refines stamps along dominating
//! conditions. This module reproduces the part of that machinery DBDS
//! needs: integer ranges, known booleans, and reference
//! nullness/exact-class facts, together with the refinement rules applied
//! when a comparison or type test is known to be true or false.

use dbds_ir::{ClassId, CmpOp, ConstValue, Graph, Inst, InstId, Type};

/// An inclusive signed 64-bit integer range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IntRange {
    /// Smallest possible value.
    pub lo: i64,
    /// Largest possible value.
    pub hi: i64,
}

impl IntRange {
    /// The full `i64` range.
    pub const FULL: IntRange = IntRange {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// A range holding exactly `c`.
    pub fn constant(c: i64) -> Self {
        IntRange { lo: c, hi: c }
    }

    /// A range `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        IntRange { lo, hi }
    }

    /// The single value of the range, if it has exactly one.
    pub fn as_constant(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Does the range contain `v`?
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Intersection; `None` when the ranges are disjoint.
    pub fn intersect(self, other: IntRange) -> Option<IntRange> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(IntRange { lo, hi })
    }

    /// Smallest range containing both.
    pub fn union(self, other: IntRange) -> IntRange {
        IntRange {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// Whether a reference is known null, known non-null, or unknown.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Nullness {
    /// May or may not be null.
    Unknown,
    /// Definitely not null.
    NonNull,
    /// Definitely null.
    Null,
}

/// What is known about a reference value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RefStamp {
    /// Nullness information.
    pub nullness: Nullness,
    /// Exact dynamic class, when known (only meaningful if the value can
    /// be non-null).
    pub exact_class: Option<ClassId>,
    /// Classes the value is known *not* to be an instance of.
    pub excluded: Vec<ClassId>,
}

impl RefStamp {
    /// The unconstrained reference stamp.
    pub fn top() -> Self {
        RefStamp {
            nullness: Nullness::Unknown,
            exact_class: None,
            excluded: Vec::new(),
        }
    }

    /// Stamp of a fresh allocation of `class`.
    pub fn exact(class: ClassId) -> Self {
        RefStamp {
            nullness: Nullness::NonNull,
            exact_class: Some(class),
            excluded: Vec::new(),
        }
    }

    /// Stamp of the null constant.
    pub fn null() -> Self {
        RefStamp {
            nullness: Nullness::Null,
            exact_class: None,
            excluded: Vec::new(),
        }
    }
}

/// What is statically known about one SSA value.
#[derive(Clone, PartialEq, Debug)]
pub enum Stamp {
    /// An integer in the given range.
    Int(IntRange),
    /// A boolean, possibly with a known value.
    Bool(Option<bool>),
    /// An object reference.
    Obj(RefStamp),
    /// An array reference (nullness only).
    Arr(Nullness),
    /// No value.
    Void,
}

impl Stamp {
    /// The unconstrained stamp for a value of type `ty`.
    pub fn top(ty: Type) -> Self {
        match ty {
            Type::Int => Stamp::Int(IntRange::FULL),
            Type::Bool => Stamp::Bool(None),
            Type::Ref(_) => Stamp::Obj(RefStamp::top()),
            Type::Arr => Stamp::Arr(Nullness::Unknown),
            Type::Void => Stamp::Void,
        }
    }

    /// The stamp of a constant.
    pub fn of_const(c: ConstValue) -> Self {
        match c {
            ConstValue::Int(i) => Stamp::Int(IntRange::constant(i)),
            ConstValue::Bool(b) => Stamp::Bool(Some(b)),
            ConstValue::Null(_) => Stamp::Obj(RefStamp::null()),
            ConstValue::NullArr => Stamp::Arr(Nullness::Null),
        }
    }

    /// The constant boolean this stamp pins down, if any.
    pub fn as_bool_constant(&self) -> Option<bool> {
        match self {
            Stamp::Bool(b) => *b,
            _ => None,
        }
    }
}

/// The stamp an instruction's result has from local information alone
/// (before any condition-based refinement).
pub fn initial_stamp(g: &Graph, id: InstId) -> Stamp {
    match g.inst(id) {
        Inst::Const(c) => Stamp::of_const(*c),
        Inst::New { class } => Stamp::Obj(RefStamp::exact(*class)),
        Inst::NewArray { .. } => Stamp::Arr(Nullness::NonNull),
        Inst::ArrayLength(_) => Stamp::Int(IntRange::new(0, i64::MAX)),
        _ => Stamp::top(g.ty(id)),
    }
}

/// Tries to decide `lhs op rhs` from the operand stamps alone.
pub fn try_fold_cmp(op: CmpOp, lhs: &Stamp, rhs: &Stamp) -> Option<bool> {
    match (lhs, rhs) {
        (Stamp::Int(a), Stamp::Int(b)) => fold_int_cmp(op, *a, *b),
        (Stamp::Bool(Some(a)), Stamp::Bool(Some(b))) => match op {
            CmpOp::Eq => Some(a == b),
            CmpOp::Ne => Some(a != b),
            _ => None,
        },
        (Stamp::Obj(a), Stamp::Obj(b)) => fold_ref_cmp(op, a, b),
        (Stamp::Arr(a), Stamp::Arr(b)) => match (op, a, b) {
            (CmpOp::Eq, Nullness::Null, Nullness::Null) => Some(true),
            (CmpOp::Ne, Nullness::Null, Nullness::Null) => Some(false),
            (CmpOp::Eq, Nullness::Null, Nullness::NonNull)
            | (CmpOp::Eq, Nullness::NonNull, Nullness::Null) => Some(false),
            (CmpOp::Ne, Nullness::Null, Nullness::NonNull)
            | (CmpOp::Ne, Nullness::NonNull, Nullness::Null) => Some(true),
            _ => None,
        },
        _ => None,
    }
}

fn fold_int_cmp(op: CmpOp, a: IntRange, b: IntRange) -> Option<bool> {
    match op {
        CmpOp::Eq => {
            if a.intersect(b).is_none() {
                Some(false)
            } else if a.as_constant().is_some() && a == b {
                Some(true)
            } else {
                None
            }
        }
        CmpOp::Ne => fold_int_cmp(CmpOp::Eq, a, b).map(|r| !r),
        CmpOp::Lt => {
            if a.hi < b.lo {
                Some(true)
            } else if a.lo >= b.hi {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Le => {
            if a.hi <= b.lo {
                Some(true)
            } else if a.lo > b.hi {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Gt => fold_int_cmp(CmpOp::Le, a, b).map(|r| !r),
        CmpOp::Ge => fold_int_cmp(CmpOp::Lt, a, b).map(|r| !r),
    }
}

fn fold_ref_cmp(op: CmpOp, a: &RefStamp, b: &RefStamp) -> Option<bool> {
    let eq = match (a.nullness, b.nullness) {
        (Nullness::Null, Nullness::Null) => Some(true),
        (Nullness::Null, Nullness::NonNull) | (Nullness::NonNull, Nullness::Null) => Some(false),
        _ => {
            // Two non-null references with different exact classes cannot
            // be the same object.
            match (a.exact_class, b.exact_class) {
                (Some(ca), Some(cb))
                    if ca != cb
                        && a.nullness == Nullness::NonNull
                        && b.nullness == Nullness::NonNull =>
                {
                    Some(false)
                }
                _ => None,
            }
        }
    };
    match op {
        CmpOp::Eq => eq,
        CmpOp::Ne => eq.map(|r| !r),
        _ => None,
    }
}

/// Tries to decide `object instanceof class` from the object's stamp.
pub fn try_fold_instanceof(stamp: &RefStamp, class: ClassId) -> Option<bool> {
    if stamp.nullness == Nullness::Null {
        return Some(false);
    }
    if stamp.excluded.contains(&class) {
        return Some(false);
    }
    match stamp.exact_class {
        Some(c) if c != class => Some(false),
        Some(_) if stamp.nullness == Nullness::NonNull => Some(true),
        _ => None,
    }
}

/// Refines the operand stamps of `lhs op rhs` given that the comparison
/// evaluated to `truth`. Returns the refined `(lhs, rhs)` stamps; the
/// result equals the inputs when nothing new is learned. A `None` means
/// the path is infeasible (contradictory knowledge).
pub fn refine_by_cmp(op: CmpOp, truth: bool, lhs: &Stamp, rhs: &Stamp) -> Option<(Stamp, Stamp)> {
    let op = if truth { op } else { op.negate() };
    match (lhs, rhs) {
        (Stamp::Int(a), Stamp::Int(b)) => {
            let (a2, b2) = refine_int_cmp(op, *a, *b)?;
            Some((Stamp::Int(a2), Stamp::Int(b2)))
        }
        (Stamp::Bool(a), Stamp::Bool(b)) => {
            // x == true / x != false etc.
            let (a2, b2) = match op {
                CmpOp::Eq => match (a, b) {
                    (Some(x), Some(y)) if x != y => return None,
                    (Some(x), None) => (Some(*x), Some(*x)),
                    (None, Some(y)) => (Some(*y), Some(*y)),
                    _ => (*a, *b),
                },
                CmpOp::Ne => match (a, b) {
                    (Some(x), Some(y)) if x == y => return None,
                    (Some(x), None) => (Some(*x), Some(!*x)),
                    (None, Some(y)) => (Some(!*y), Some(*y)),
                    _ => (*a, *b),
                },
                _ => (*a, *b),
            };
            Some((Stamp::Bool(a2), Stamp::Bool(b2)))
        }
        (Stamp::Obj(a), Stamp::Obj(b)) => {
            let (a2, b2) = refine_ref_cmp(op, a, b)?;
            Some((Stamp::Obj(a2), Stamp::Obj(b2)))
        }
        (Stamp::Arr(a), Stamp::Arr(b)) => {
            let (a2, b2) = refine_arr_cmp(op, *a, *b)?;
            Some((Stamp::Arr(a2), Stamp::Arr(b2)))
        }
        _ => Some((lhs.clone(), rhs.clone())),
    }
}

fn refine_int_cmp(op: CmpOp, a: IntRange, b: IntRange) -> Option<(IntRange, IntRange)> {
    match op {
        CmpOp::Eq => {
            let m = a.intersect(b)?;
            Some((m, m))
        }
        CmpOp::Ne => {
            // Representable only when one side is a constant at the other
            // side's boundary.
            let mut a2 = a;
            let mut b2 = b;
            if let Some(c) = b.as_constant() {
                if a.lo == c && a.hi == c {
                    return None;
                }
                if a2.lo == c {
                    a2.lo += 1;
                }
                if a2.hi == c {
                    a2.hi -= 1;
                }
            }
            if let Some(c) = a.as_constant() {
                if b.lo == c && b.hi == c {
                    return None;
                }
                if b2.lo == c {
                    b2.lo += 1;
                }
                if b2.hi == c {
                    b2.hi -= 1;
                }
            }
            Some((a2, b2))
        }
        CmpOp::Lt => {
            // a < b: a ≤ b.hi-1, b ≥ a.lo+1.
            if b.hi == i64::MIN || a.lo == i64::MAX {
                return None;
            }
            let a2 = a.intersect(IntRange::new(i64::MIN, b.hi - 1))?;
            let b2 = b.intersect(IntRange::new(a.lo + 1, i64::MAX))?;
            Some((a2, b2))
        }
        CmpOp::Le => {
            let a2 = a.intersect(IntRange::new(i64::MIN, b.hi))?;
            let b2 = b.intersect(IntRange::new(a.lo, i64::MAX))?;
            Some((a2, b2))
        }
        CmpOp::Gt => {
            let (b2, a2) = refine_int_cmp(CmpOp::Lt, b, a)?;
            Some((a2, b2))
        }
        CmpOp::Ge => {
            let (b2, a2) = refine_int_cmp(CmpOp::Le, b, a)?;
            Some((a2, b2))
        }
    }
}

fn refine_ref_cmp(op: CmpOp, a: &RefStamp, b: &RefStamp) -> Option<(RefStamp, RefStamp)> {
    let mut a2 = a.clone();
    let mut b2 = b.clone();
    match op {
        CmpOp::Eq => {
            // Same object: merge knowledge.
            let nullness = match (a.nullness, b.nullness) {
                (Nullness::Null, Nullness::NonNull) | (Nullness::NonNull, Nullness::Null) => {
                    return None
                }
                (Nullness::Null, _) | (_, Nullness::Null) => Nullness::Null,
                (Nullness::NonNull, _) | (_, Nullness::NonNull) => Nullness::NonNull,
                _ => Nullness::Unknown,
            };
            let exact = match (a.exact_class, b.exact_class) {
                (Some(x), Some(y)) if x != y && nullness == Nullness::NonNull => return None,
                (Some(x), _) => Some(x),
                (_, y) => y,
            };
            a2.nullness = nullness;
            b2.nullness = nullness;
            a2.exact_class = exact;
            b2.exact_class = exact;
            for c in &b.excluded {
                if !a2.excluded.contains(c) {
                    a2.excluded.push(*c);
                }
            }
            for c in &a.excluded {
                if !b2.excluded.contains(c) {
                    b2.excluded.push(*c);
                }
            }
            Some((a2, b2))
        }
        CmpOp::Ne => {
            // x != null refines x to non-null (and vice versa).
            if a.nullness == Nullness::Null {
                if b.nullness == Nullness::Null {
                    return None;
                }
                b2.nullness = Nullness::NonNull;
            }
            if b.nullness == Nullness::Null {
                if a.nullness == Nullness::Null {
                    return None;
                }
                a2.nullness = Nullness::NonNull;
            }
            Some((a2, b2))
        }
        _ => Some((a2, b2)),
    }
}

fn refine_arr_cmp(op: CmpOp, a: Nullness, b: Nullness) -> Option<(Nullness, Nullness)> {
    match op {
        CmpOp::Eq => match (a, b) {
            (Nullness::Null, Nullness::NonNull) | (Nullness::NonNull, Nullness::Null) => None,
            (Nullness::Null, _) | (_, Nullness::Null) => Some((Nullness::Null, Nullness::Null)),
            (Nullness::NonNull, _) | (_, Nullness::NonNull) => {
                Some((Nullness::NonNull, Nullness::NonNull))
            }
            _ => Some((a, b)),
        },
        CmpOp::Ne => match (a, b) {
            (Nullness::Null, Nullness::Null) => None,
            (Nullness::Null, _) => Some((a, Nullness::NonNull)),
            (_, Nullness::Null) => Some((Nullness::NonNull, b)),
            _ => Some((a, b)),
        },
        _ => Some((a, b)),
    }
}

/// Refines an object's stamp given that `object instanceof class`
/// evaluated to `truth`. `None` means the path is infeasible.
pub fn refine_by_instanceof(stamp: &RefStamp, class: ClassId, truth: bool) -> Option<RefStamp> {
    let mut s = stamp.clone();
    if truth {
        match stamp.exact_class {
            Some(c) if c != class => return None,
            _ => {}
        }
        if stamp.nullness == Nullness::Null || stamp.excluded.contains(&class) {
            return None;
        }
        s.nullness = Nullness::NonNull;
        s.exact_class = Some(class);
    } else {
        // Not an instance: either null or a different class.
        if stamp.exact_class == Some(class) && stamp.nullness == Nullness::NonNull {
            return None;
        }
        if !s.excluded.contains(&class) {
            s.excluded.push(class);
        }
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_basics() {
        let r = IntRange::new(1, 10);
        assert!(r.contains(5));
        assert!(!r.contains(0));
        assert_eq!(IntRange::constant(4).as_constant(), Some(4));
        assert_eq!(r.as_constant(), None);
        assert_eq!(
            r.intersect(IntRange::new(5, 20)),
            Some(IntRange::new(5, 10))
        );
        assert_eq!(r.intersect(IntRange::new(11, 20)), None);
        assert_eq!(r.union(IntRange::new(20, 30)), IntRange::new(1, 30));
    }

    #[test]
    fn folds_int_comparisons() {
        let small = Stamp::Int(IntRange::new(0, 5));
        let big = Stamp::Int(IntRange::new(10, 20));
        assert_eq!(try_fold_cmp(CmpOp::Lt, &small, &big), Some(true));
        assert_eq!(try_fold_cmp(CmpOp::Gt, &small, &big), Some(false));
        assert_eq!(try_fold_cmp(CmpOp::Eq, &small, &big), Some(false));
        assert_eq!(try_fold_cmp(CmpOp::Ne, &small, &big), Some(true));
        let c5 = Stamp::Int(IntRange::constant(5));
        assert_eq!(try_fold_cmp(CmpOp::Eq, &c5, &c5), Some(true));
        let overlap = Stamp::Int(IntRange::new(3, 12));
        assert_eq!(try_fold_cmp(CmpOp::Lt, &small, &overlap), None);
    }

    #[test]
    fn folds_listing1_pattern() {
        // Listing 1: in the else branch p = 13, so `p > 12` is true.
        let p = Stamp::Int(IntRange::constant(13));
        let twelve = Stamp::Int(IntRange::constant(12));
        assert_eq!(try_fold_cmp(CmpOp::Gt, &p, &twelve), Some(true));
        // In the then branch p = i with i <= 0 refined: i > 0 false → i <= 0.
        let (i2, _) = refine_by_cmp(
            CmpOp::Gt,
            false,
            &Stamp::Int(IntRange::FULL),
            &Stamp::Int(IntRange::constant(0)),
        )
        .unwrap();
        assert_eq!(i2, Stamp::Int(IntRange::new(i64::MIN, 0)));
        assert_eq!(try_fold_cmp(CmpOp::Gt, &i2, &twelve), Some(false));
    }

    #[test]
    fn refines_lt() {
        let (a, b) = refine_by_cmp(
            CmpOp::Lt,
            true,
            &Stamp::Int(IntRange::FULL),
            &Stamp::Int(IntRange::constant(10)),
        )
        .unwrap();
        assert_eq!(a, Stamp::Int(IntRange::new(i64::MIN, 9)));
        assert_eq!(b, Stamp::Int(IntRange::constant(10)));
    }

    #[test]
    fn refine_eq_intersects() {
        let (a, b) = refine_by_cmp(
            CmpOp::Eq,
            true,
            &Stamp::Int(IntRange::new(0, 100)),
            &Stamp::Int(IntRange::new(50, 200)),
        )
        .unwrap();
        assert_eq!(a, Stamp::Int(IntRange::new(50, 100)));
        assert_eq!(a, b);
        // Contradiction → infeasible path.
        assert!(refine_by_cmp(
            CmpOp::Eq,
            true,
            &Stamp::Int(IntRange::new(0, 5)),
            &Stamp::Int(IntRange::new(10, 20)),
        )
        .is_none());
    }

    #[test]
    fn refine_ne_shaves_boundaries() {
        let (a, _) = refine_by_cmp(
            CmpOp::Ne,
            true,
            &Stamp::Int(IntRange::new(0, 10)),
            &Stamp::Int(IntRange::constant(0)),
        )
        .unwrap();
        assert_eq!(a, Stamp::Int(IntRange::new(1, 10)));
    }

    #[test]
    fn null_checks() {
        let unknown = Stamp::Obj(RefStamp::top());
        let null = Stamp::Obj(RefStamp::null());
        // (a == null) false → a non-null.
        let (a, _) = refine_by_cmp(CmpOp::Eq, false, &unknown, &null).unwrap();
        match a {
            Stamp::Obj(s) => assert_eq!(s.nullness, Nullness::NonNull),
            _ => panic!(),
        }
        // null == null folds.
        assert_eq!(try_fold_cmp(CmpOp::Eq, &null, &null), Some(true));
        // non-null vs null folds.
        let nn = Stamp::Obj(RefStamp::exact(ClassId(0)));
        assert_eq!(try_fold_cmp(CmpOp::Eq, &nn, &null), Some(false));
        assert_eq!(try_fold_cmp(CmpOp::Ne, &nn, &null), Some(true));
    }

    #[test]
    fn distinct_exact_classes_cannot_alias() {
        let a = Stamp::Obj(RefStamp::exact(ClassId(0)));
        let b = Stamp::Obj(RefStamp::exact(ClassId(1)));
        assert_eq!(try_fold_cmp(CmpOp::Eq, &a, &b), Some(false));
    }

    #[test]
    fn instanceof_folding_and_refinement() {
        let top = RefStamp::top();
        assert_eq!(try_fold_instanceof(&top, ClassId(0)), None);
        assert_eq!(
            try_fold_instanceof(&RefStamp::null(), ClassId(0)),
            Some(false)
        );
        let exact = RefStamp::exact(ClassId(1));
        assert_eq!(try_fold_instanceof(&exact, ClassId(1)), Some(true));
        assert_eq!(try_fold_instanceof(&exact, ClassId(2)), Some(false));

        // Refine: instanceof true pins the exact class.
        let refined = refine_by_instanceof(&top, ClassId(3), true).unwrap();
        assert_eq!(refined.nullness, Nullness::NonNull);
        assert_eq!(refined.exact_class, Some(ClassId(3)));
        assert_eq!(try_fold_instanceof(&refined, ClassId(3)), Some(true));

        // Refine: instanceof false excludes the class.
        let refined = refine_by_instanceof(&top, ClassId(3), false).unwrap();
        assert_eq!(try_fold_instanceof(&refined, ClassId(3)), Some(false));
        assert_eq!(try_fold_instanceof(&refined, ClassId(4)), None);

        // Contradictions.
        assert!(refine_by_instanceof(&exact, ClassId(2), true).is_none());
        assert!(refine_by_instanceof(&exact, ClassId(1), false).is_none());
    }

    #[test]
    fn bool_refinement() {
        let (a, _) = refine_by_cmp(
            CmpOp::Eq,
            true,
            &Stamp::Bool(None),
            &Stamp::Bool(Some(true)),
        )
        .unwrap();
        assert_eq!(a, Stamp::Bool(Some(true)));
        assert!(refine_by_cmp(
            CmpOp::Eq,
            true,
            &Stamp::Bool(Some(false)),
            &Stamp::Bool(Some(true))
        )
        .is_none());
    }

    #[test]
    fn initial_stamps() {
        use dbds_ir::{ClassTable, GraphBuilder};
        use std::sync::Arc;
        let mut t = ClassTable::new();
        let c = t.add_class("A");
        let mut b = GraphBuilder::new("s", &[Type::Int], Arc::new(t));
        let five = b.iconst(5);
        let obj = b.new_object(c);
        let len_src = b.new_array(five);
        let len = b.alength(len_src);
        let x = b.param(0);
        b.ret(Some(len));
        let g = b.finish();
        assert_eq!(initial_stamp(&g, five), Stamp::Int(IntRange::constant(5)));
        assert_eq!(initial_stamp(&g, obj), Stamp::Obj(RefStamp::exact(c)));
        assert_eq!(initial_stamp(&g, len_src), Stamp::Arr(Nullness::NonNull));
        assert_eq!(
            initial_stamp(&g, len),
            Stamp::Int(IntRange::new(0, i64::MAX))
        );
        assert_eq!(initial_stamp(&g, x), Stamp::Int(IntRange::FULL));
    }
}
