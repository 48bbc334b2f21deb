// Rule 10: spill streams opened past `SpillContext::io`.
use cordoba_storage::{spill::SpillFile, spill::SpillWriter, Schema};
use std::{io::Result, path::Path, sync::Arc};
fn create(d: &Path, s: Arc<Schema>) -> Result<(SpillWriter, SpillWriter)> { Ok((SpillWriter::create(d, s.clone())?, SpillWriter::create_framed(d, s, 4)?)) } //~ clippy::disallowed_methods clippy::disallowed_methods
fn reopen(a: SpillFile, b: SpillFile) -> Result<()> { drop((a.into_reader()?, b.into_reader_framed(2)?)); Ok(()) } //~ clippy::disallowed_methods clippy::disallowed_methods
