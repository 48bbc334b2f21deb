// Rules 1 and 2: naked `unsafe`, and every panic site in a panic-free crate.
fn bad(p: *const u8, o: Option<u8>, r: Result<u8, ()>) -> u8 {
    let v = unsafe { *p }; //~ unsafe_code clippy::undocumented_unsafe_blocks
    o.unwrap() + r.expect("set") + v //~ clippy::unwrap_used clippy::expect_used
}
fn halt(n: u8) { match n { 0 => panic!(), 1 => unreachable!(), 2 => todo!(), _ => unimplemented!() } } //~ clippy::panic clippy::unreachable clippy::todo clippy::unimplemented
