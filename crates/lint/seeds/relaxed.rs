// Rule 4: a Relaxed access outside the audited sites (a token match).
fn claim(n: &std::sync::atomic::AtomicUsize) -> usize { n.fetch_add(1, std::sync::atomic::Ordering::Relaxed) } //~ relaxed-ordering
