//! Deeply nested expressions are a compile error, never a stack
//! overflow: the parser bounds expression nesting, so the recursive
//! passes after it (sema, lowering, the optimizer) only ever see
//! shallow trees.

use br_minic::{compile, Options};

/// Run `f` on a thread with a 2 MiB stack, the default for spawned
/// threads, so a regression aborts the test process instead of passing
/// on the main thread's larger stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawns")
        .join()
        .expect("no panic")
}

fn program(expr: &str) -> String {
    format!("int main() {{ int x; x = getchar(); return {expr}; }}")
}

fn compile_and_optimize(src: String) -> Result<(), String> {
    on_small_stack(move || {
        let mut m = compile(&src, &Options::default()).map_err(|e| e.to_string())?;
        br_opt::optimize(&mut m);
        Ok(())
    })
}

#[test]
fn parentheses_nest_to_the_limit_and_no_further() {
    let nested = |n: usize| program(&format!("{}x{}", "(".repeat(n), ")".repeat(n)));
    compile_and_optimize(nested(64)).expect("64 levels compile");
    let err = compile_and_optimize(nested(100_000)).expect_err("100,000 levels are refused");
    assert!(err.contains("nested"), "{err}");
}

#[test]
fn every_recursive_expression_form_is_bounded() {
    let deep = 100_000;
    for expr in [
        format!("{}x", "- ".repeat(deep)),
        format!("{}x", "!".repeat(deep)),
        format!("{}x", "++".repeat(deep)),
        format!("x{}", " + 1".repeat(deep)),
        format!("x{}", " = x".repeat(deep)),
        format!("{}x", "x ? 1 : ".repeat(deep)),
        format!("{}x{}", "putint(".repeat(deep), ")".repeat(deep)),
    ] {
        let head: String = expr.chars().take(12).collect();
        let err = compile_and_optimize(program(&expr)).expect_err(&head);
        assert!(err.contains("nested"), "{head}: {err}");
    }
}
