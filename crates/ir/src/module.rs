//! Modules: the compilation unit holding functions, global data, and
//! profiling side tables.

use std::fmt;

use crate::function::{BlockId, Function};

/// Identifier of a function within a [`Module`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Index into the module's function vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Identifier of an instrumented branch sequence (profiling).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqId(pub u32);

impl SeqId {
    /// Index into the module's profile-plan vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SeqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq{}", self.0)
    }
}

/// Initialized global data (string literals, global arrays).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalData {
    /// Name for diagnostics.
    pub name: String,
    /// Word address of the first cell in the global memory image.
    pub addr: i64,
    /// Initial contents; the global occupies `init.len()` words unless
    /// `size` is larger, in which case the rest is zero-filled.
    pub init: Vec<i64>,
    /// Total size in words (≥ `init.len()`).
    pub size: u32,
}

/// The values instrumented for one reorderable branch sequence.
///
/// The paper inserts all profiling code at the head of a sequence. A
/// [`crate::Inst::ProfileRanges`] probe refers to one of these plans; the
/// interpreter bumps the counter of the range holding the probed value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfilePlan {
    /// Function the sequence lives in (for diagnostics).
    pub func: FuncId,
    /// Block of the sequence head at instrumentation time (diagnostics).
    pub head: BlockId,
    /// One counter per inclusive `(lo, hi)` range; together the ranges
    /// must cover all of `i64::MIN..=i64::MAX` and be pairwise disjoint
    /// (the paper's Section 5).
    pub ranges: Vec<(i64, i64)>,
}

impl ProfilePlan {
    /// Index of the range containing `v`, if any.
    pub fn range_containing(&self, v: i64) -> Option<usize> {
        self.ranges.iter().position(|&(lo, hi)| lo <= v && v <= hi)
    }
}

/// A compilation unit: functions, globals, and profiling plans.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Module {
    /// All functions; [`FuncId`] indexes this vector.
    pub functions: Vec<Function>,
    /// Initialized global data, non-overlapping, lowest address first.
    pub globals: Vec<GlobalData>,
    /// Profiling plans for instrumented sequences; [`SeqId`] indexes this.
    pub profile_plans: Vec<ProfilePlan>,
    /// The entry function, if one has been designated.
    pub main: Option<FuncId>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Append a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(f);
        id
    }

    /// Look up a function by name.
    pub fn function_named(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Immutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Reserve `size` words of global memory with the given initial
    /// contents, returning the word address.
    pub fn add_global(&mut self, name: impl Into<String>, init: Vec<i64>, size: u32) -> i64 {
        assert!(size as usize >= init.len(), "global size below init length");
        let addr = self.globals_end();
        self.globals.push(GlobalData {
            name: name.into(),
            addr,
            init,
            size,
        });
        addr
    }

    /// First word address past all globals (start of stack frames).
    pub fn globals_end(&self) -> i64 {
        self.globals
            .last()
            .map(|g| g.addr + g.size as i64)
            .unwrap_or(0)
    }

    /// Register a profiling plan, returning its sequence id.
    pub fn add_profile_plan(&mut self, plan: ProfilePlan) -> SeqId {
        let id = SeqId(self.profile_plans.len() as u32);
        self.profile_plans.push(id_plan_check(plan));
        id
    }

    /// Total static instruction count over all functions.
    pub fn static_size(&self) -> usize {
        self.functions.iter().map(|f| f.static_size()).sum()
    }
}

/// Debug-time validation of a profiling plan.
fn id_plan_check(plan: ProfilePlan) -> ProfilePlan {
    debug_assert!(
        {
            let mut sorted = plan.ranges.clone();
            sorted.sort_unstable();
            let covers = !sorted.is_empty()
                && sorted[0].0 == i64::MIN
                && sorted.last().unwrap().1 == i64::MAX;
            let contiguous = sorted.windows(2).all(|w| {
                let (_, hi) = w[0];
                let (lo, _) = w[1];
                hi < lo && hi + 1 == lo
            });
            covers && contiguous
        },
        "profile plan ranges must partition the value space: {:?}",
        plan.ranges,
    );
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_are_packed() {
        let mut m = Module::new();
        let a = m.add_global("a", vec![1, 2, 3], 3);
        let b = m.add_global("b", vec![], 5);
        assert_eq!(a, 0);
        assert_eq!(b, 3);
        assert_eq!(m.globals_end(), 8);
    }

    #[test]
    #[should_panic(expected = "global size below init length")]
    fn global_size_validated() {
        let mut m = Module::new();
        m.add_global("bad", vec![1, 2, 3], 2);
    }

    #[test]
    fn profile_plan_lookup() {
        let plan = ProfilePlan {
            func: FuncId(0),
            head: BlockId(0),
            ranges: vec![(i64::MIN, -1), (0, 9), (10, i64::MAX)],
        };
        assert_eq!(plan.range_containing(-5), Some(0));
        assert_eq!(plan.range_containing(0), Some(1));
        assert_eq!(plan.range_containing(9), Some(1));
        assert_eq!(plan.range_containing(10), Some(2));
    }

    #[test]
    fn function_named_finds() {
        let mut m = Module::new();
        m.add_function(Function::new("alpha"));
        let beta = m.add_function(Function::new("beta"));
        assert_eq!(m.function_named("beta"), Some(beta));
        assert_eq!(m.function_named("gamma"), None);
    }
}
