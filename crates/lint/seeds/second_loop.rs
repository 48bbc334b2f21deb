// Rule 6: a second run loop, by name and through an alias.
use cordoba_sim::Simulator as Sim;
fn run_again() { cordoba_sim::Simulator::new(1).run(None); } //~ clippy::disallowed_methods
fn run_aliased() { Sim::new(1).run(None); } //~ clippy::disallowed_methods
