// Rule 10: a file path of an operator's own.
type Handles = (std::fs::File, std::fs::OpenOptions); //~ clippy::disallowed_types clippy::disallowed_types
fn dump(p: &std::path::Path) -> std::io::Result<String> { std::fs::create_dir_all(p).and(std::fs::write(p, std::fs::read(p)?)).and(std::fs::remove_file(p)).and(std::fs::read_to_string(p)) } //~ clippy::disallowed_methods clippy::disallowed_methods clippy::disallowed_methods clippy::disallowed_methods clippy::disallowed_methods
