// Rule 9: a second pricing of a sharing group.
use cordoba_core::sharing::{GroupMember, SharingEvaluator};
fn member(s: f64, c: f64) -> GroupMember { GroupMember::new(s / c, vec![]).with_partial_overlap(c, 0.1 * s / c) } //~ clippy::disallowed_methods
fn z(m: GroupMember) -> f64 { SharingEvaluator::from_parts(vec![], 1.0, vec![m]).map_or(f64::NAN, |e| e.speedup(1.0)) } //~ clippy::disallowed_methods
