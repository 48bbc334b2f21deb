//! The workspace policy's gate (`tests/gate.rs`): clippy over every crate
//! with the seeded violations in `seeds/` added, each of which it must catch.
