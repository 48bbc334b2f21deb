// Rule 7: OS threads started outside wiring and thread_exec, a builder's too.
fn par_kernel(parts: &[u64]) { std::thread::scope(|s| parts.iter().for_each(|p| drop(s.spawn(move || p + 1)))) } //~ clippy::disallowed_methods
fn detached() { drop(std::thread::spawn(|| ())); } //~ clippy::disallowed_methods
fn built() { drop(std::thread::Builder::new().spawn(|| ())); } //~ clippy::disallowed_methods
