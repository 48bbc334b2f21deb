// Rule 3: wall clocks, and defaults read from the environment.
type Clocks = (std::time::Instant, std::time::SystemTime); //~ clippy::disallowed_types clippy::disallowed_types
fn env() -> (Option<String>, bool) { (std::env::var("W").ok(), std::env::var_os("V").is_some()) } //~ clippy::disallowed_methods clippy::disallowed_methods
