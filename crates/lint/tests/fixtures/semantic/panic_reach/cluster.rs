//@ path: crates/cluster/src/engine.rs
//@ crate: cluster
//! Fixture: the callee side of the cross-file D101 pairs. `run` is reached
//! from `Distinct::resolve` and panics; `not_reached` panics but has no
//! caller on any entry-point path; `proven` is reached but carries a
//! reasoned suppression; `summarize` is reached only from the public
//! `Distinct::describe`, which is not a resolve*/train* entry point;
//! `audit` is reached only from a private core function.

pub fn run(n: usize) -> usize {
    let v: Vec<usize> = vec![n];
    let first = v.first().copied().unwrap(); //~ D101
    first + proven(Some(first))
}

pub fn not_reached(x: Option<usize>) -> usize {
    x.unwrap()
}

pub fn proven(x: Option<usize>) -> usize {
    x.unwrap() // distinct-lint: allow(D101, reason="run passes Some unconditionally on the line above")
}

pub fn summarize(n: usize) -> usize {
    let v: Vec<usize> = vec![n];
    v.last().copied().unwrap() //~ D101
}

pub fn audit(x: Option<usize>) -> usize {
    x.unwrap()
}
