//! The certifying symbolic prover for reordered branch sequences.
//!
//! [`prove_sequence`] upgrades the yes/no translation validator
//! ([`crate::validate`]) into a *certifying* analysis:
//!
//! * **Soundness prechecks** — the reordered function's CFG and
//!   dominator tree ([`crate::cfg`], [`crate::domtree`]) must show the
//!   sequence head dominating every reachable replica block (the
//!   replica has a single entry), and the replica structures as a nest
//!   of two-way conditionals.
//! * **Subsumption proof** — the symbolic walk derives each path's
//!   predicate as an exact interval constraint and proves the
//!   original/reordered partitions equivalent by constraint
//!   subsumption; no value enumeration ever happens (the
//!   `fallbacks` counter in [`SequenceProof`] exists to prove it).
//! * **Certificates** — every accepted reordering is rendered as a
//!   [`crate::cert`] artifact that the independent checker re-validates
//!   with no shared code.
//! * **Counterexample witnesses** — every refutation is solved for a
//!   concrete value of the tested variable, drawn from the diverging
//!   value class intersected with the [`feasible_values`]
//!   interval+congruence abstraction of what the program can actually
//!   put in the variable (so the witness is replayable as real input,
//!   not just an abstract value).

use br_ir::{BinOp, Callee, Function, Inst, Intrinsic, Operand, Reg};

use crate::cfg::Cfg;
use crate::domtree::{two_way_conditionals, DomTree};
use crate::interval::{Interval, IntervalSet};
use crate::validate::{check_equivalence, EquivalenceCheck, Side, ValidationError};
use crate::witness::Witness;

/// An interval+congruence abstraction of a register's dynamic values:
/// the value lies in `range` and is congruent to `residue` modulo
/// `modulus` (`modulus <= 1` means no congruence information).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AbsVal {
    /// Range bound.
    pub range: Interval,
    /// Congruence modulus (`<= 1` = unconstrained).
    pub modulus: i64,
    /// Residue class within `modulus`.
    pub residue: i64,
}

impl AbsVal {
    /// No information: any `i64`.
    pub fn top() -> AbsVal {
        AbsVal {
            range: Interval::FULL,
            modulus: 1,
            residue: 0,
        }
    }

    /// Whether `v` is admitted by the abstraction.
    pub fn admits(&self, v: i64) -> bool {
        self.range.contains(v) && (self.modulus <= 1 || v.rem_euclid(self.modulus) == self.residue)
    }

    /// Least upper bound.
    fn join(&self, o: &AbsVal) -> AbsVal {
        AbsVal {
            range: self.range.hull(&o.range),
            modulus: if (self.modulus, self.residue) == (o.modulus, o.residue) {
                self.modulus
            } else {
                1
            },
            residue: if self.modulus == o.modulus && self.residue == o.residue {
                self.residue
            } else {
                0
            },
        }
    }

    /// The abstraction shifted by a constant (`v + c`).
    fn shifted(&self, c: i64) -> AbsVal {
        let range = match (self.range.lo.checked_add(c), self.range.hi.checked_add(c)) {
            (Some(lo), Some(hi)) => Interval::new(lo, hi),
            _ => Interval::FULL,
        };
        AbsVal {
            range,
            modulus: self.modulus,
            residue: if self.modulus > 1 {
                (self.residue + c.rem_euclid(self.modulus)).rem_euclid(self.modulus)
            } else {
                0
            },
        }
    }
}

/// Join the abstractions of every definition of `var` in `f`: a sound
/// (flow-insensitive) bound on what the program can dynamically store
/// in the tested variable. `getchar` yields `[-1, 255]`; `rem`/`and`
/// with constants bound the range; multiplies and shifts by powers of
/// two yield congruence facts (wrapping-safe: wrapping preserves low
/// bits); adding a constant shifts the residue.
pub fn feasible_values(f: &Function, var: Reg) -> AbsVal {
    abs_of_reg(f, var, 8)
}

fn abs_of_reg(f: &Function, r: Reg, depth: usize) -> AbsVal {
    if depth == 0 {
        return AbsVal::top();
    }
    let mut joined: Option<AbsVal> = None;
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            if inst.def() != Some(r) {
                continue;
            }
            let a = abs_of_inst(f, inst, depth);
            joined = Some(match joined {
                None => a,
                Some(j) => j.join(&a),
            });
        }
    }
    joined.unwrap_or_else(AbsVal::top)
}

fn abs_of_inst(f: &Function, inst: &Inst, depth: usize) -> AbsVal {
    let singleton = |c: i64| AbsVal {
        range: Interval::singleton(c),
        modulus: 1,
        residue: 0,
    };
    let ranged = |lo: i64, hi: i64| AbsVal {
        range: Interval::new(lo, hi),
        modulus: 1,
        residue: 0,
    };
    match inst {
        Inst::Copy {
            src: Operand::Imm(c),
            ..
        } => singleton(*c),
        Inst::Copy {
            src: Operand::Reg(s),
            ..
        } => abs_of_reg(f, *s, depth - 1),
        Inst::Call {
            callee: Callee::Intrinsic(Intrinsic::GetChar),
            ..
        } => ranged(-1, 255),
        Inst::Bin { op, lhs, rhs, .. } => match (op, lhs, rhs) {
            (BinOp::Rem, _, Operand::Imm(k)) if *k > 0 => ranged(-(k - 1), k - 1),
            (BinOp::And, _, Operand::Imm(m)) | (BinOp::And, Operand::Imm(m), _) if *m >= 0 => {
                ranged(0, *m)
            }
            (BinOp::Mul, _, Operand::Imm(k)) | (BinOp::Mul, Operand::Imm(k), _)
                if *k > 1 && k.count_ones() == 1 =>
            {
                AbsVal {
                    range: Interval::FULL,
                    modulus: *k,
                    residue: 0,
                }
            }
            (BinOp::Shl, _, Operand::Imm(s)) if (1..=62).contains(s) => AbsVal {
                range: Interval::FULL,
                modulus: 1i64 << s,
                residue: 0,
            },
            (BinOp::Add, Operand::Reg(a), Operand::Imm(c))
            | (BinOp::Add, Operand::Imm(c), Operand::Reg(a)) => {
                abs_of_reg(f, *a, depth - 1).shifted(*c)
            }
            (BinOp::Sub, Operand::Reg(a), Operand::Imm(c)) if *c != i64::MIN => {
                abs_of_reg(f, *a, depth - 1).shifted(-c)
            }
            _ => AbsVal::top(),
        },
        _ => AbsVal::top(),
    }
}

/// The smallest member of `values` admitted by `feasible`, preferring
/// dynamically producible witnesses; falls back to any member of the
/// diverging class when the feasible set misses it entirely.
/// Non-negative members are preferred over negative ones: a `getchar`
/// witness of `-1` is end-of-input and replays as an *empty* stream,
/// so a byte-encodable value demonstrates the divergence more directly.
pub fn solve_witness(values: &IntervalSet, feasible: &AbsVal) -> Option<i64> {
    let restricted = values.intersect(&IntervalSet::of(feasible.range));
    let nonneg = restricted.intersect(&IntervalSet::of(Interval::new(0, i64::MAX)));
    let m = feasible.modulus.max(1);
    let r = feasible.residue.rem_euclid(m);
    for set in [&nonneg, &restricted] {
        for iv in set.intervals() {
            // Smallest v >= lo with v ≡ r (mod m), in i128 against overflow.
            let lo = iv.lo as i128;
            let mm = m as i128;
            let candidate = lo + (r as i128 - lo).rem_euclid(mm);
            if candidate <= iv.hi as i128 {
                return Some(candidate as i64);
            }
        }
    }
    restricted.sample().or_else(|| values.sample())
}

/// A successful, certified proof of one sequence.
#[derive(Clone, Debug)]
pub struct SequenceProof {
    /// The rendered proof certificate (see [`crate::cert`]).
    pub certificate: String,
    /// The certificate's signature / content address.
    pub sig: u64,
    /// Value classes the subsumption proof compared.
    pub value_classes: usize,
    /// Distinct sequence exits.
    pub exits: usize,
    /// Two-way conditionals structured in the replica (head included).
    pub two_way_headers: usize,
    /// Times the prover fell back to enumerating values instead of
    /// subsumption. Always zero — the field exists so callers can
    /// assert it stays that way.
    pub fallbacks: usize,
}

/// A refutation: the equivalence violations plus, when a diverging
/// value class exists, a concrete witness for it.
#[derive(Clone, Debug)]
pub struct Refutation {
    /// Every violation the validator proved.
    pub errors: Vec<ValidationError>,
    /// A concrete witness value for the first diverging class.
    pub witness: Option<Witness>,
}

impl std::fmt::Display for Refutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{e}")?;
        }
        if let Some(w) = &self.witness {
            write!(f, "\nwitness: {w}")?;
        }
        Ok(())
    }
}

/// The prover's own FNV-1a (the checker in [`crate::cert`] carries an
/// independent copy — deliberately no shared code).
fn sign(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Prove one reordered sequence equivalent to its original and render
/// the proof as a certificate; on refutation, solve for a concrete
/// counterexample witness.
///
/// # Errors
///
/// Returns a [`Refutation`] carrying every violation found and, when a
/// diverging value class exists, a feasibility-guided witness value.
pub fn prove_sequence(chk: &EquivalenceCheck) -> Result<SequenceProof, Refutation> {
    // Soundness precheck: the replica must be a single-entry region
    // hanging off the head — the head dominates every reachable
    // replica block. A replica block reachable around the head would
    // invalidate the walk-based partition argument.
    let cfg = Cfg::build(chk.reordered);
    let dom = DomTree::build(chk.reordered);
    for b in cfg.reachable() {
        if b.0 >= chk.replica_start && !dom.dominates(chk.head, b) {
            return Err(Refutation {
                errors: vec![ValidationError::Walk {
                    side: Side::Reordered,
                    detail: format!(
                        "replica block {b} is reachable without passing the sequence head \
                         {} (not a single-entry region)",
                        chk.head
                    ),
                }],
                witness: None,
            });
        }
    }
    let two_way_headers = two_way_conditionals(chk.reordered, &cfg, &dom)
        .iter()
        .filter(|t| t.header == chk.head || t.header.0 >= chk.replica_start)
        .count();

    match check_equivalence(chk) {
        Ok(proof) => {
            let certificate = render_certificate(chk, &proof);
            let sig = sign(certificate.rsplit_once("sig ").map_or("", |(body, _)| body));
            Ok(SequenceProof {
                certificate,
                sig,
                value_classes: proof.value_classes,
                exits: proof.exits,
                two_way_headers,
                fallbacks: 0,
            })
        }
        Err(errors) => {
            // Solve every diverging class and prefer a witness in the
            // character range — those replay directly as input bytes;
            // fall back to the first solvable class otherwise.
            let feasible = feasible_values(chk.original, chk.var);
            let mut witness: Option<Witness> = None;
            for values in errors.iter().filter_map(diverging_values) {
                let Some(v) = solve_witness(&values, &feasible) else {
                    continue;
                };
                if witness.is_none() {
                    witness = Some(Witness::new(v, feasible));
                }
                if (0..=255).contains(&v) {
                    witness = Some(Witness::new(v, feasible));
                    break;
                }
            }
            Err(Refutation { errors, witness })
        }
    }
}

/// The diverging value class a refutation names, if any.
fn diverging_values(e: &ValidationError) -> Option<IntervalSet> {
    match e {
        ValidationError::TargetMismatch { values, .. }
        | ValidationError::EffectMismatch { values, .. }
        | ValidationError::TailMismatch { values, .. }
        | ValidationError::NotDisjoint { values, .. }
        | ValidationError::Unresolved { values, .. } => Some(values.clone()),
        ValidationError::NotExhaustive { missing, .. } => Some(missing.clone()),
        ValidationError::PlanMismatch {
            expected, found, ..
        } => {
            let diff = expected.subtract(found).union(&found.subtract(expected));
            (!diff.is_empty()).then_some(diff)
        }
        _ => None,
    }
}

/// Render the proof as a [`crate::cert`] artifact. Certificates for
/// replicas containing an indirect dispatch (a Set IV jump table) are
/// rendered as `brcert v2` with the extra `temps` header the checker's
/// concrete walker needs; everything else stays `brcert v1`.
fn render_certificate(chk: &EquivalenceCheck, proof: &crate::validate::EquivalenceProof) -> String {
    use std::fmt::Write as _;
    let dispatches = (chk.replica_start..chk.reordered.blocks.len() as u32).any(|b| {
        matches!(
            chk.reordered.block(br_ir::BlockId(b)).term,
            br_ir::Terminator::IndirectJump { .. }
        )
    });
    let mut s = String::new();
    s.push_str(if dispatches {
        crate::cert::VERSION_V2
    } else {
        crate::cert::VERSION
    });
    s.push('\n');
    let _ = writeln!(s, "func {}", chk.original.name);
    let _ = writeln!(s, "var r{}", chk.var.0);
    let _ = writeln!(s, "head {}", chk.head.0);
    let _ = writeln!(s, "replica {}", chk.replica_start);
    let _ = writeln!(s, "prologue {}", proof.prologue);
    if dispatches {
        let _ = writeln!(s, "temps {}", chk.original.num_regs);
    }
    let _ = write!(s, "exits {}", chk.exits.len());
    for e in &chk.exits {
        let _ = write!(s, " {}", e.0);
    }
    s.push('\n');
    let _ = writeln!(s, "classes {}", proof.classes.len());
    for class in &proof.classes {
        let ivs = class.values.intervals();
        let _ = write!(s, "class {}", ivs.len());
        for iv in ivs {
            let _ = write!(s, " {},{}", iv.lo, iv.hi);
        }
        let _ = writeln!(s, " exit {}", class.target.0);
    }
    // Each listing is preceded by its line count, so it is printed into
    // one reused buffer first.
    let mut listing = String::new();
    for (label, f) in [("original", chk.original), ("reordered", chk.reordered)] {
        listing.clear();
        br_ir::write_function(&mut listing, f);
        let lines = listing.bytes().filter(|&b| b == b'\n').count();
        let _ = writeln!(s, "{label} {lines}");
        s.push_str(&listing);
    }
    let sig = sign(&s);
    let _ = writeln!(s, "sig {sig:016x}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use br_ir::{Block, BlockId, Cond, Operand, Terminator};

    fn cmp(var: Reg, c: i64) -> Inst {
        Inst::Cmp {
            lhs: Operand::Reg(var),
            rhs: Operand::Imm(c),
        }
    }

    /// The same three-exit chain the validator tests use, with
    /// observably distinct exits.
    fn chain() -> (Function, Reg, BlockId, [BlockId; 3]) {
        let mut f = Function::new("t");
        let var = f.new_reg();
        let head = f.add_block(Block::new(Terminator::Return(None)));
        let c2 = f.add_block(Block::new(Terminator::Return(None)));
        let t1 = f.add_block(Block::new(Terminator::Return(Some(Operand::Imm(1)))));
        let t2 = f.add_block(Block::new(Terminator::Return(Some(Operand::Imm(2)))));
        let dflt = f.add_block(Block::new(Terminator::Return(Some(Operand::Imm(3)))));
        f.block_mut(f.entry).insts.push(Inst::Call {
            dst: Some(var),
            callee: Callee::Intrinsic(Intrinsic::GetChar),
            args: vec![],
        });
        f.block_mut(f.entry).term = Terminator::Jump(head);
        f.block_mut(head).insts.push(cmp(var, 0));
        f.block_mut(head).term = Terminator::branch(Cond::Eq, t1, c2);
        f.block_mut(c2).insts.push(cmp(var, 1));
        f.block_mut(c2).term = Terminator::branch(Cond::Eq, t2, dflt);
        (f, var, head, [t1, t2, dflt])
    }

    fn plan(t1: BlockId, t2: BlockId, dflt: BlockId) -> Vec<(Interval, BlockId)> {
        vec![
            (Interval::singleton(0), t1),
            (Interval::singleton(1), t2),
            (Interval::new(i64::MIN, -1), dflt),
            (Interval::new(2, i64::MAX), dflt),
        ]
    }

    fn reorder(
        f: &Function,
        var: Reg,
        head: BlockId,
        t1: BlockId,
        t2: BlockId,
        dflt: BlockId,
    ) -> (Function, u32) {
        let mut g = f.clone();
        let replica_start = g.blocks.len() as u32;
        let r1 = BlockId(replica_start + 1);
        let r0 = g.add_block(Block::new(Terminator::branch(Cond::Eq, t2, r1)));
        g.block_mut(r0).insts.push(cmp(var, 1));
        let r1 = g.add_block(Block::new(Terminator::branch(Cond::Eq, t1, dflt)));
        g.block_mut(r1).insts.push(cmp(var, 0));
        g.block_mut(head).insts.clear();
        g.block_mut(head).term = Terminator::Jump(r0);
        (g, replica_start)
    }

    fn request<'a>(
        f: &'a Function,
        g: &'a Function,
        var: Reg,
        head: BlockId,
        exits: [BlockId; 3],
        replica_start: u32,
    ) -> EquivalenceCheck<'a> {
        EquivalenceCheck {
            original: f,
            reordered: g,
            var,
            head,
            exits: BTreeSet::from(exits),
            replica_start,
            expected: plan(exits[0], exits[1], exits[2]),
        }
    }

    #[test]
    fn proves_and_certifies_a_faithful_reordering() {
        let (f, var, head, [t1, t2, dflt]) = chain();
        let (g, rs) = reorder(&f, var, head, t1, t2, dflt);
        let proof = prove_sequence(&request(&f, &g, var, head, [t1, t2, dflt], rs)).unwrap();
        assert_eq!(proof.fallbacks, 0);
        assert!(proof.value_classes >= 3);
        assert!(proof.two_way_headers >= 2, "replica structures as a nest");
        // Double entry: the independent checker accepts the artifact.
        let checked = crate::cert::check(&proof.certificate).expect("checker accepts");
        assert_eq!(checked.sig, proof.sig);
        assert_eq!(checked.func_name, "t");
        assert_eq!(checked.classes, proof.value_classes);
    }

    /// A Set IV jump-table replica for [`chain`]: bounds checks, a
    /// `sub` into a fresh dispatch temp, and an `ijmp` over `[t1, t2]`.
    fn table_dispatch(
        f: &Function,
        var: Reg,
        head: BlockId,
        t1: BlockId,
        t2: BlockId,
        dflt: BlockId,
    ) -> (Function, u32) {
        let mut g = f.clone();
        let temp = g.new_reg();
        let replica_start = g.blocks.len() as u32;
        let [d1, d2] = [1, 2].map(|i: u32| BlockId(replica_start + i));
        let d0 = g.add_block(Block::new(Terminator::branch(Cond::Lt, dflt, d1)));
        g.block_mut(d0).insts.push(cmp(var, 0));
        let d1 = g.add_block(Block::new(Terminator::branch(Cond::Gt, dflt, d2)));
        g.block_mut(d1).insts.push(cmp(var, 1));
        let d2 = g.add_block(Block::new(Terminator::IndirectJump {
            index: temp,
            targets: vec![t1, t2],
        }));
        g.block_mut(d2).insts.push(Inst::Bin {
            op: BinOp::Sub,
            dst: temp,
            lhs: Operand::Reg(var),
            rhs: Operand::Imm(0),
        });
        g.block_mut(head).insts.clear();
        g.block_mut(head).term = Terminator::Jump(d0);
        (g, replica_start)
    }

    #[test]
    fn proves_and_certifies_a_jump_table_dispatch() {
        let (f, var, head, [t1, t2, dflt]) = chain();
        let (g, rs) = table_dispatch(&f, var, head, t1, t2, dflt);
        let proof = prove_sequence(&request(&f, &g, var, head, [t1, t2, dflt], rs)).unwrap();
        assert_eq!(proof.fallbacks, 0);
        assert!(
            proof.certificate.starts_with(crate::cert::VERSION_V2),
            "a dispatch replica must render a v2 certificate"
        );
        assert!(proof.certificate.contains("\ntemps "));
        // Double entry: the independent checker follows the table.
        let checked = crate::cert::check(&proof.certificate).expect("checker accepts v2");
        assert_eq!(checked.sig, proof.sig);
        assert_eq!(checked.dispatch_temps, f.num_regs);

        // Semantic tampering: swap the two table slots inside the
        // embedded reordered function and re-sign. The signature is
        // now valid, but a representative walk exits to the wrong
        // block and the checker must refuse.
        let body = proof
            .certificate
            .rsplit_once("sig ")
            .map(|(b, _)| b)
            .unwrap();
        let tampered_body = body.replace("ijmp r1, [b3, b4]", "ijmp r1, [b4, b3]");
        assert_ne!(tampered_body, body, "tamper target must exist: {body}");
        let tampered = format!(
            "{tampered_body}sig {:016x}\n",
            crate::cert::fingerprint(&tampered_body)
        );
        assert!(matches!(
            crate::cert::check(&tampered),
            Err(crate::cert::CertError::Walk(_))
        ));

        // Walks write dispatch temporaries untraced, so a re-signed
        // `temps` line that lets them alias the original's registers
        // must be refused too.
        let temps = format!("\ntemps {}\n", f.num_regs);
        let aliased_body = body.replace(&temps, "\ntemps 0\n");
        assert_ne!(aliased_body, body, "temps line must exist: {body}");
        let aliased = format!(
            "{aliased_body}sig {:016x}\n",
            crate::cert::fingerprint(&aliased_body)
        );
        assert!(matches!(
            crate::cert::check(&aliased),
            Err(crate::cert::CertError::Walk(d)) if d.contains("dispatch temporaries")
        ));
    }

    #[test]
    fn refutes_swapped_targets_with_a_feasible_witness() {
        let (f, var, head, [t1, t2, dflt]) = chain();
        let (mut g, rs) = reorder(&f, var, head, t1, t2, dflt);
        let r1 = BlockId(rs + 1);
        g.block_mut(r1).term = Terminator::branch(Cond::Eq, dflt, t1);
        let refutation =
            prove_sequence(&request(&f, &g, var, head, [t1, t2, dflt], rs)).unwrap_err();
        let w = refutation.witness.expect("witness solved");
        // The solver must pick a dynamically producible value: var is
        // fed by getchar, so the witness lies in [-1, 255] and maps
        // back to concrete input bytes.
        assert!(w.is_feasible());
        assert!((-1..=255).contains(&w.value));
        assert!(w.input_bytes().is_some());
    }

    #[test]
    fn rejects_multi_entry_replicas() {
        let (f, var, head, [t1, t2, dflt]) = chain();
        let (mut g, rs) = reorder(&f, var, head, t1, t2, dflt);
        // A side entrance into the replica, bypassing the head.
        let sneak = g.add_block(Block::new(Terminator::Jump(BlockId(rs))));
        let entry = g.entry;
        g.block_mut(entry).term = Terminator::branch(Cond::Eq, head, sneak);
        let refutation =
            prove_sequence(&request(&f, &g, var, head, [t1, t2, dflt], rs)).unwrap_err();
        assert!(matches!(
            refutation.errors[0],
            ValidationError::Walk {
                side: Side::Reordered,
                ..
            }
        ));
    }

    #[test]
    fn feasible_values_of_getchar_and_arithmetic() {
        // var = getchar() twice joined, then shifted chain elsewhere.
        let mut f = Function::new("t");
        let var = f.new_reg();
        let e = f.entry;
        f.block_mut(e).insts.push(Inst::Call {
            dst: Some(var),
            callee: Callee::Intrinsic(Intrinsic::GetChar),
            args: vec![],
        });
        let a = feasible_values(&f, var);
        assert_eq!(a.range, Interval::new(-1, 255));
        assert!(a.admits(-1) && a.admits(255) && !a.admits(256));

        // w = (x << 3) + 5: congruence 8, residue 5.
        let x = f.new_reg();
        let t = f.new_reg();
        let w = f.new_reg();
        f.block_mut(e).insts.push(Inst::Bin {
            op: BinOp::Shl,
            dst: t,
            lhs: Operand::Reg(x),
            rhs: Operand::Imm(3),
        });
        f.block_mut(e).insts.push(Inst::Bin {
            op: BinOp::Add,
            dst: w,
            lhs: Operand::Reg(t),
            rhs: Operand::Imm(5),
        });
        let aw = feasible_values(&f, w);
        assert_eq!((aw.modulus, aw.residue), (8, 5));
        assert!(aw.admits(13) && !aw.admits(12));
    }

    #[test]
    fn witness_solver_respects_congruence() {
        let feasible = AbsVal {
            range: Interval::new(0, 100),
            modulus: 8,
            residue: 5,
        };
        let cls = IntervalSet::from_intervals([Interval::new(10, 40)]);
        let w = solve_witness(&cls, &feasible).unwrap();
        assert!(cls.contains(w) && feasible.admits(w));
        assert_eq!(w, 13);
        // Infeasible class: fall back to a member of the class itself.
        let far = IntervalSet::from_intervals([Interval::new(1000, 2000)]);
        assert_eq!(solve_witness(&far, &feasible), Some(1000));
    }
}
