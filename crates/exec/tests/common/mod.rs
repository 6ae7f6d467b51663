//! The recursive `sum` fixture shared by the runtime and serving suites.

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use rdg_graph::{Module, ModuleBuilder};
use rdg_tensor::DType;

/// `sum(n) = n == 0 ? 0 : n + sum(n-1)`, with `n` fed as a main input —
/// every run of the same session can request a different depth.
pub fn sum_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let h = mb.declare_subgraph("sum", &[DType::I32], &[DType::I32]);
    mb.define_subgraph(&h, |b| {
        let n = b.input(0)?;
        let zero = b.const_i32(0);
        let p = b.igt(n, zero)?;
        let out = b.cond1(
            p,
            DType::I32,
            |b| {
                let one = b.const_i32(1);
                let m = b.isub(n, one)?;
                let rec = b.invoke(&h, &[m])?[0];
                b.iadd(n, rec)
            },
            |b| b.identity(zero),
        )?;
        Ok(vec![out])
    })
    .unwrap();
    let n = mb.main_input(DType::I32);
    let out = mb.invoke(&h, &[n]).unwrap();
    mb.set_outputs(&[out[0]]).unwrap();
    mb.finish().unwrap()
}

/// What `sum_module` computes for `n`.
pub fn gauss(n: i32) -> i32 {
    // i64 intermediate: n*(n+1) overflows i32 long before the sum does.
    ((n as i64 * (n as i64 + 1)) / 2) as i32
}
