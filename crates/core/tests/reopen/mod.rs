//! Reopening a database after a simulated power cut, under a deadline.
//!
//! Recovery runs inside [`Database::open_with_vfs`], and a recovery bug can
//! hang there instead of failing. Every crash suite reopens through
//! [`reopen`], which runs the open on a thread of its own and panics once
//! the deadline passes, so a hang fails its test rather than stalling the
//! whole run.

use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;
use tcom_core::{Database, DbConfig, Result, Vfs};

/// How long one reopen may take. Recovering a test-sized directory takes
/// milliseconds; the bound only separates "slow" from "never".
const DEADLINE: Duration = Duration::from_secs(30);

/// Opens `dir` through `vfs`, panicking if the open (recovery included)
/// has not returned within [`DEADLINE`]. A hung open's thread is left
/// behind: it cannot be joined, and the failing test ends the process.
pub fn reopen(dir: &Path, cfg: DbConfig, vfs: Arc<dyn Vfs>) -> Result<Database> {
    let (tx, rx) = mpsc::channel();
    let path = dir.to_owned();
    let opener = std::thread::spawn(move || {
        let _ = tx.send(Database::open_with_vfs(&path, cfg, vfs));
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(opened) => {
            opener.join().expect("the opener ends once it has sent");
            opened
        }
        Err(RecvTimeoutError::Timeout) => panic!(
            "reopening {} did not finish within {DEADLINE:?}: recovery hangs",
            dir.display()
        ),
        Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
            opener
                .join()
                .expect_err("an opener that never sent has panicked"),
        ),
    }
}
