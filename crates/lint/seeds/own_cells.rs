// Rule 11: a cell codec of an operator's own, called and passed as a function.
fn read(row: &[u8]) -> (i64, f64, i32) { (i64::from_le_bytes([row[0]; 8]), f64::from_le_bytes([row[1]; 8]), i32::from_le_bytes([row[2]; 4])) } //~ clippy::disallowed_methods clippy::disallowed_methods clippy::disallowed_methods
fn write(row: &mut Vec<u8>, k: i64, x: f64, d: i32) { row.extend(k.to_le_bytes().into_iter().chain(x.to_le_bytes()).chain(d.to_le_bytes())) } //~ clippy::disallowed_methods clippy::disallowed_methods clippy::disallowed_methods
fn encoder() -> fn(i64) -> [u8; 8] { i64::to_le_bytes } //~ clippy::disallowed_methods
fn decoder() -> fn([u8; 8]) -> f64 { f64::from_le_bytes } //~ clippy::disallowed_methods
