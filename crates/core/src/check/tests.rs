//! Accept/reject tests for the affine type checker, taken directly from the
//! paper's running examples (§3).

use crate::error::{Error, TypeErrorKind};
use crate::parser::parse;

use super::typecheck;

fn accepts(src: &str) {
    let p = parse(src).unwrap_or_else(|e| panic!("parse error: {e}\n{src}"));
    if let Err(e) = typecheck(&p) {
        panic!("expected accept, got {e}\n{src}");
    }
}

fn rejects(src: &str, kind: TypeErrorKind) {
    let p = parse(src).unwrap_or_else(|e| panic!("parse error: {e}\n{src}"));
    match typecheck(&p) {
        Ok(_) => panic!("expected {kind:?}, but the program was accepted\n{src}"),
        Err(Error::Type(t)) => {
            assert_eq!(t.kind, kind, "wrong error: {t}\n{src}");
        }
        Err(other) => panic!("unexpected error {other}\n{src}"),
    }
}

// ------------------------------------------------------------- §3.1 basics

#[test]
fn read_into_scalar_ok() {
    accepts("let A: float[10]; let x = A[0];");
}

#[test]
fn memories_cannot_be_copied() {
    rejects("let A: float[10]; let B = A;", TypeErrorKind::MemoryCopy);
}

#[test]
fn read_then_write_same_step_rejected() {
    // "let x = A[0]; A[1] := 1; // Error: Previous read consumed A."
    rejects(
        "let A: float[10]; let x = A[0]; A[1] := 1.0;",
        TypeErrorKind::AlreadyConsumed,
    );
}

#[test]
fn identical_reads_share_capability() {
    // "let x = A[0]; let y = A[0]; // OK: Reading the same address."
    accepts("let A: float[10]; let x = A[0]; let y = A[0];");
}

#[test]
fn different_reads_conflict() {
    rejects(
        "let A: float[10]; let x = A[0]; let y = A[1];",
        TypeErrorKind::AlreadyConsumed,
    );
}

#[test]
fn double_write_same_location_rejected() {
    rejects(
        "let A: float{2}[10]; A[0] := 1.0; A[0] := 2.0;",
        TypeErrorKind::WriteConflict,
    );
}

// ------------------------------------------------- §3.2 ordered composition

#[test]
fn ordered_composition_restores_capabilities() {
    accepts("let A: float[10]; let x = A[0] --- A[1] := 1.0;");
}

#[test]
fn paper_ordered_block_example() {
    // The read of B must not conflict with either ordered step.
    rejects(
        "let A: float[10]; let B: float[10];
         {
           let x = A[0] + 1.0
           ---
           B[1] := A[1] + x
         };
         let y = B[0];",
        TypeErrorKind::AlreadyConsumed,
    );
}

#[test]
fn ordered_block_then_disjoint_memory_ok() {
    accepts(
        "let A: float[10]; let B: float[10]; let C: float[10];
         {
           let x = A[0] + 1.0
           ---
           B[1] := A[1] + x
         };
         let y = C[0];",
    );
}

#[test]
fn local_variables_are_unrestricted() {
    accepts("let x = 0; x := x + 1; let y = x;");
}

// ------------------------------------------------------------ §3.3 banking

#[test]
fn distinct_banks_parallel_ok() {
    accepts(
        "let A: float[10 bank 2];
         A{0}[0] := 1.0;
         A{1}[0] := 2.0;",
    );
}

#[test]
fn same_bank_physical_conflict() {
    rejects(
        "let A: float[10 bank 2];
         A{0}[0] := 1.0;
         A{0}[1] := 2.0;",
        TypeErrorKind::AlreadyConsumed,
    );
}

#[test]
fn logical_indexing_deduces_bank() {
    // A[1] on a 2-banked memory is bank 1; A[2] is bank 0.
    accepts("let A: float[10 bank 2]; let x = A[0]; let y = A[1];");
    rejects(
        "let A: float[10 bank 2]; let x = A[0]; let y = A[2];",
        TypeErrorKind::AlreadyConsumed,
    );
}

#[test]
fn banking_must_divide_size() {
    rejects("let A: float[10 bank 3];", TypeErrorKind::UnevenBanking);
}

#[test]
fn multiported_memory_allows_read_and_write() {
    // "let A: float{2}[10]; let x = A[0]; A[1] := x + 1;"
    accepts("let A: float{2}[10]; let x = A[0]; A[1] := x + 1.0;");
}

#[test]
fn multidimensional_banking() {
    accepts(
        "let M: float[4 bank 2][4 bank 2];
         let a = M[0][0]; let b = M[0][1]; let c = M[1][0]; let d = M[1][1];",
    );
    // Two accesses landing in bank (0,0):
    rejects(
        "let M: float[4 bank 2][4 bank 2]; let a = M[0][0]; let b = M[2][2];",
        TypeErrorKind::AlreadyConsumed,
    );
}

#[test]
fn physical_multidim_access() {
    // M{3}[0] is the element logically at M[1][1] for a 2×2 banking: the two
    // accesses hit the same bank, so they conflict within a time step…
    rejects(
        "let M: float[4 bank 2][4 bank 2]; let x = M{3}[0]; let y = M[1][1];",
        TypeErrorKind::AlreadyConsumed,
    );
    // …and are fine when ordered, or when they hit different banks.
    accepts("let M: float[4 bank 2][4 bank 2]; let x = M{3}[0] --- let y = M[1][1];");
    accepts("let M: float[4 bank 2][4 bank 2]; let x = M{3}[0]; let y = M[0][0];");
}

// ---------------------------------------------------------- §3.4 unrolling

#[test]
fn unroll_needs_banks() {
    // Paper: unrolled write to an unbanked array is an error.
    rejects(
        "let A: float[10];
         for (let i = 0..10) unroll 2 { A[i] := 1.0; }",
        TypeErrorKind::InsufficientBanks,
    );
}

#[test]
fn unroll_matching_banks_ok() {
    accepts(
        "let A: float[10 bank 2];
         for (let i = 0..10) unroll 2 { A[i] := 1.0; }",
    );
}

#[test]
fn unroll_below_banking_needs_shrink_view() {
    rejects(
        "let A: float[8 bank 4];
         for (let i = 0..8) unroll 2 { let x = A[i]; }",
        TypeErrorKind::UnrollBankMismatch,
    );
}

#[test]
fn shrink_view_allows_lower_unroll() {
    // §3.6: "view sh = shrink A[by 2]; for (let i = 0..8) unroll 2 sh[i]"
    accepts(
        "let A: float[8 bank 4];
         view sh = shrink A[by 2];
         for (let i = 0..8) unroll 2 { let x = sh[i]; }",
    );
}

#[test]
fn unroll_must_divide_trip_count() {
    rejects(
        "let A: float[10 bank 3]; let B: float[9 bank 3];
         for (let i = 0..10) unroll 3 { let x = B[i]; }",
        TypeErrorKind::UnevenBanking, // A itself is invalid first
    );
    rejects(
        "let B: float[10 bank 5];
         for (let i = 0..10) unroll 3 { let x = B[i]; }",
        TypeErrorKind::UnevenUnroll,
    );
}

#[test]
fn unrolled_ordered_body_lockstep() {
    // §3.4: reading A[i] in step 1 and A[0] in step 2 is fine — conflicts
    // only matter within a time step.
    accepts(
        "def f(x: float, y: float) { let z = x + y; }
         let A: float[10 bank 2];
         for (let i = 0..10) unroll 2 {
           let x = A[i]
           ---
           f(x, A[0]);
         }",
    );
}

#[test]
fn nested_unroll_read_shares_write_conflicts() {
    // §3.4 nested unrolling: the read of A[i][0] fans out, the write does not.
    accepts(
        "let A: float[8 bank 1][10 bank 5];
         for (let i = 0..8) {
           for (let j = 0..10) unroll 5 {
             let x = A[i][0];
           }
         }",
    );
    rejects(
        "let A: float[8 bank 1][10 bank 5];
         for (let i = 0..8) {
           for (let j = 0..10) unroll 5 {
             let x = A[i][0]
             ---
             A[i][0] := j;
           }
         }",
        TypeErrorKind::WriteConflict,
    );
}

#[test]
fn sequential_iterator_reserves_all_banks() {
    // A plain loop can touch any bank, so a second distinct access conflicts.
    rejects(
        "let A: float[8 bank 4];
         for (let i = 0..8) { let x = A[i]; let y = A[0]; }",
        TypeErrorKind::AlreadyConsumed,
    );
    // …unless ordered.
    accepts(
        "let A: float[8 bank 4];
         for (let i = 0..8) { let x = A[i] --- let y = A[0]; }",
    );
}

// -------------------------------------------------------- §3.5 combine

#[test]
fn dot_product_with_combine() {
    accepts(
        "let A: float[10 bank 2]; let B: float[10 bank 2];
         let dot = 0.0;
         for (let i = 0..10) unroll 2 {
           let v = A[i] * B[i];
         } combine {
           dot += v;
         }",
    );
}

#[test]
fn plain_accumulation_in_doall_rejected() {
    // "dot += A[i] * B[i]" inside the unrolled body is a cross-iteration
    // dependency.
    rejects(
        "let A: float[10 bank 2]; let B: float[10 bank 2];
         let dot = 0.0;
         for (let i = 0..10) unroll 2 {
           dot += A[i] * B[i];
         }",
        TypeErrorKind::LoopDependency,
    );
}

#[test]
fn assign_to_outer_var_in_for_rejected() {
    rejects(
        "let t = 0;
         for (let i = 0..4) { t := i; }",
        TypeErrorKind::LoopDependency,
    );
}

#[test]
fn while_loops_may_carry_dependencies() {
    accepts("let t = 0; while (t < 10) { t := t + 1; }");
}

#[test]
fn combine_register_only_usable_by_reducer() {
    rejects(
        "let A: float[10 bank 2];
         let dot = 0.0;
         for (let i = 0..10) unroll 2 {
           let v = A[i];
         } combine {
           dot := v;
         }",
        TypeErrorKind::BadCombine,
    );
}

#[test]
fn memory_reduction_in_combine() {
    // gemm-style: prod[i][j] += mul in a combine block.
    accepts(
        "let A: float[8 bank 2]; let B: float[8 bank 2]; let prod: float[8];
         for (let i = 0..8) {
           for (let k = 0..8) unroll 2 {
             let mul = A[k] * B[k];
           } combine {
             prod[i] += mul;
           }
         }",
    );
}

// ------------------------------------------------------------- §3.6 views

#[test]
fn shrink_factor_must_divide_banking() {
    rejects(
        "let A: float[8 bank 4]; view sh = shrink A[by 3];",
        TypeErrorKind::BadView,
    );
}

#[test]
fn view_and_underlying_conflict() {
    rejects(
        "let A: float[8 bank 4];
         view sh = shrink A[by 2];
         let x = A[0]; let y = sh[2];",
        TypeErrorKind::AlreadyConsumed,
    );
}

#[test]
fn aligned_suffix_view() {
    // view s = suffix A[by 2*i]; s[1] reads A[2*i + 1].
    accepts(
        "let A: float[8 bank 2];
         for (let i = 0..4) {
           view s = suffix A[by 2*i];
           let x = s[1];
         }",
    );
}

#[test]
fn misaligned_suffix_rejected() {
    rejects(
        "let A: float[8 bank 2];
         for (let i = 0..4) {
           view s = suffix A[by 3*i];
           let x = s[1];
         }",
        TypeErrorKind::BadView,
    );
}

#[test]
fn shift_view_allows_arbitrary_offsets() {
    // §3.6: shift A[by i*i] with a fully unrolled inner loop.
    accepts(
        "let A: float[12 bank 4];
         for (let i = 0..3) {
           view r = shift A[by i*i];
           for (let j = 0..4) unroll 4 {
             let x = r[j];
           }
         }",
    );
}

#[test]
fn shift_view_consumes_every_underlying_bank() {
    rejects(
        "let A: float[12 bank 4];
         view r = shift A[by 5];
         let x = r[0]; let y = A[1];",
        TypeErrorKind::AlreadyConsumed,
    );
}

#[test]
fn split_view_enables_two_level_parallelism() {
    // §3.6 blocked dot product, after splitting.
    accepts(
        "let A: float[12 bank 4]; let B: float[12 bank 4];
         let sum = 0.0;
         view split_A = split A[by 2];
         view split_B = split B[by 2];
         for (let i = 0..6) unroll 2 {
           for (let j = 0..2) unroll 2 {
             let v = split_A[j][i] * split_B[j][i];
           } combine {
             sum += v;
           }
         }",
    );
}

#[test]
fn split_requires_one_dimension() {
    rejects(
        "let M: float[4 bank 2][4 bank 2]; view sp = split M[by 2];",
        TypeErrorKind::BadView,
    );
}

#[test]
fn split_factor_must_divide() {
    rejects(
        "let A: float[12 bank 4]; view sp = split A[by 3];",
        TypeErrorKind::BadView,
    );
}

#[test]
fn stencil_style_shift_window() {
    accepts(
        "let orig: float[126 bank 3][66 bank 3];
         let filter: float[3 bank 3][3 bank 3];
         let out: float[126 bank 1][66 bank 1];
         for (let row = 0..124) {
           for (let col = 0..64) {
             view window = shift orig[by row][by col];
             let acc = 0.0;
             for (let k1 = 0..3) unroll 3 {
               for (let k2 = 0..3) unroll 3 {
                 let mul = filter[k1][k2] * window[k1][k2];
               } combine {
                 acc += mul;
               }
             }
             ---
             out[row][col] := acc;
           }
         }",
    );
}

// --------------------------------------------------------- invalid indexing

#[test]
fn arbitrary_index_on_banked_dim_rejected() {
    rejects(
        "let A: float[8 bank 2]; for (let i = 0..4) { let x = A[2*i]; }",
        TypeErrorKind::InvalidIndex,
    );
}

#[test]
fn arbitrary_index_on_unbanked_dim_ok() {
    accepts("let A: float[8]; for (let i = 0..4) { let x = A[2*i]; }");
}

#[test]
fn dynamic_scalar_index_on_banked_dim_rejected() {
    rejects(
        "let A: float[8 bank 2]; let j = 3; let x = A[j];",
        TypeErrorKind::InvalidIndex,
    );
}

#[test]
fn out_of_bounds_constant_rejected() {
    rejects("let A: float[8]; let x = A[8];", TypeErrorKind::BadAccess);
}

#[test]
fn iterator_range_must_fit() {
    rejects(
        "let A: float[8]; for (let i = 0..10) { let x = A[i]; }",
        TypeErrorKind::BadAccess,
    );
}

#[test]
fn wrong_arity_rejected() {
    rejects(
        "let M: float[4][4]; let x = M[0];",
        TypeErrorKind::BadAccess,
    );
}

// ----------------------------------------------------------- if / while

#[test]
fn if_branches_meet() {
    // Both branches consume A's single port: afterwards it is gone.
    rejects(
        "let A: float[10]; let c = true;
         if (c) { A[0] := 1.0; } else { A[1] := 2.0; }
         let x = A[2];",
        TypeErrorKind::AlreadyConsumed,
    );
    accepts(
        "let A: float[10]; let c = true;
         if (c) { A[0] := 1.0; } else { A[1] := 2.0; }
         ---
         let x = A[2];",
    );
}

#[test]
fn condition_must_be_bool() {
    rejects("let x = 1; if (x) { }", TypeErrorKind::Mismatch);
}

#[test]
fn condition_reads_consume() {
    rejects(
        "let A: float[10]; if (A[0] > 0.0) { A[1] := 1.0; }",
        TypeErrorKind::AlreadyConsumed,
    );
}

// ------------------------------------------------------------- functions

#[test]
fn function_memory_params_are_affine() {
    accepts(
        "def g(M: float[8 bank 2]) { M[0] := 1.0; }
         let A: float[8 bank 2];
         g(A);",
    );
    // Two calls in the same time step both need the whole memory.
    rejects(
        "def g(M: float[8 bank 2]) { M[0] := 1.0; }
         let A: float[8 bank 2];
         g(A); g(A);",
        TypeErrorKind::AlreadyConsumed,
    );
}

#[test]
fn sequential_calls_ok() {
    accepts(
        "def g(M: float[8 bank 2]) { M[0] := 1.0; }
         let A: float[8 bank 2];
         g(A) --- g(A);",
    );
}

#[test]
fn call_type_must_match_banking() {
    rejects(
        "def g(M: float[8 bank 2]) { M[0] := 1.0; }
         let A: float[8 bank 4];
         g(A);",
        TypeErrorKind::BadCall,
    );
}

#[test]
fn recursion_rejected() {
    rejects("def f(x: bit<32>) { f(x); } f(1);", TypeErrorKind::Unbound);
}

#[test]
fn function_body_conflicts_detected() {
    rejects(
        "def g(M: float[8]) { let x = M[0]; M[1] := x; }",
        TypeErrorKind::AlreadyConsumed,
    );
}

// ----------------------------------------------------------- miscellany

#[test]
fn report_counts() {
    let p = parse(
        "let A: float[8 bank 4];
         view sh = shrink A[by 2];
         for (let i = 0..8) unroll 2 { let x = sh[i]; }",
    )
    .unwrap();
    let r = typecheck(&p).unwrap();
    assert_eq!(r.memories, 1);
    assert_eq!(r.views, 1);
    assert_eq!(r.accesses, 1);
    assert_eq!(r.max_unroll, 2);
}

#[test]
fn shadowing_in_same_scope_rejected() {
    rejects("let x = 1; let x = 2;", TypeErrorKind::AlreadyDefined);
}

#[test]
fn unbound_names() {
    rejects("let x = y;", TypeErrorKind::Unbound);
    rejects("x := 1;", TypeErrorKind::Unbound);
    rejects("f(1);", TypeErrorKind::Unbound);
}

#[test]
fn decl_memories_usable() {
    accepts("decl A: float[16 bank 2]; let x = A[0];");
}

#[test]
fn gemm_blocked_shape_typechecks() {
    // A faithful miniature of the paper's gemm-blocked kernel (Fig. 10).
    accepts(
        "decl m1: bit<32>[16 bank 2][16 bank 2];
         decl m2: bit<32>[16 bank 2][16 bank 2];
         decl prod: bit<32>[16 bank 1][16 bank 1];
         for (let jj = 0..2) {
           for (let kk = 0..2) {
             for (let i = 0..16) unroll 2 {
               for (let j = 0..8) unroll 2 {
                 for (let k = 0..8) {
                   let x = 0;
                 }
               }
             }
           }
         }",
    );
}

// ------------------------------------------------------- size budget

/// The message of the type error `src` is rejected with.
fn rejection(src: &str) -> String {
    match typecheck(&parse(src).unwrap()) {
        Err(Error::Type(t)) => t.msg,
        other => panic!("expected a type error, got {other:?}"),
    }
}

#[test]
fn bank_count_past_the_budget_is_rejected_before_allocation() {
    let src = "let A: float[100000000 bank 100000000]; A[0] := 1.0;";
    rejects(src, TypeErrorKind::SizeBudget);
    let message = rejection(src);
    assert!(message.contains("100000000 banks"), "{message}");
    assert!(message.contains("65536"), "{message}");
    // The budget is per program: memories, parameters, and shift views
    // add up, and a program exactly at it is fine.
    accepts("let A: float[65536 bank 65536]; A[0] := 1.0;");
    rejects(
        "let A: float[65536 bank 65536]; let B: float[2 bank 2]; B[0] := 1.0;",
        TypeErrorKind::SizeBudget,
    );
    rejects(
        "def g(M: float[65536 bank 65536]) { M[0] := 1.0; }
         let A: float[2 bank 2]; A[0] := 1.0;",
        TypeErrorKind::SizeBudget,
    );
    rejects(
        "let A: float[65536 bank 65536];
         view s = shift A[by 1];",
        TypeErrorKind::SizeBudget,
    );
}

#[test]
fn overflowing_bank_product_is_a_size_error() {
    // 2^32 × 2^32 wraps a u64 to 0; it must not be clamped to one bank.
    let src = "let A: float[4294967296 bank 4294967296][4294967296 bank 4294967296];
               A[1][1] := 1.0;";
    rejects(src, TypeErrorKind::SizeBudget);
    let message = rejection(src);
    assert!(
        message.contains("more than 18446744073709551615"),
        "{message}"
    );
}

#[test]
fn overflowing_element_count_is_a_size_error() {
    // 2^32 × 2^32 elements wrap a u64 to 0, which estimated as no
    // storage at all and ran as an empty memory.
    let src = "let A: float[4294967296][4294967296]; let x = A[0][0];";
    rejects(src, TypeErrorKind::SizeBudget);
    let message = rejection(src);
    assert!(
        message.contains("more than 18446744073709551615 elements"),
        "{message}"
    );
    accepts("let A: float[4294967296][4294967295]; let x = A[0][0];");
}
