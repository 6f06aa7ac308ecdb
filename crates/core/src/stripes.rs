//! Per-atom-type commit stripes with wait-die deadlock avoidance.
//!
//! Write transactions no longer serialize on one global mutex: each atom
//! type hashes to a *stripe*, and a transaction acquires the stripe of
//! every type it touches at first touch, holding it until the commit is
//! fully applied and published (strict two-phase locking at type
//! granularity). Disjoint writers therefore build their overlays and
//! commit in parallel; same-type writers serialize per stripe.
//!
//! Deadlock freedom is by **wait-die** on the transaction's begin-order
//! id: when a stripe is held, an *older* requester (smaller id) waits and
//! a *younger* requester (larger id) aborts immediately with a
//! retryable [`Error::Txn`]. Waits therefore only ever run from older to
//! younger transactions, so the wait-for graph is acyclic. Only writers
//! take stripes: maintenance (history pruning, segment swaps, flushes)
//! never does, so a writer meets maintenance as a wait at `wal_order` or
//! at the apply lock, never as a wait-die abort.

use parking_lot::{Condvar, Mutex};
use tcom_kernel::{AtomTypeId, Error, Result};
use tcom_obs::Counter;

/// The engine's commit-stripe count: atom type `t` maps to stripe
/// `t % COMMIT_STRIPES`, so up to this many types commit in parallel.
pub const COMMIT_STRIPES: usize = 64;

struct Stripe {
    /// The id of the holding transaction, if any.
    holder: Mutex<Option<u64>>,
    freed: Condvar,
}

/// The engine's per-atom-type stripe lock table.
pub struct StripeLocks {
    stripes: Vec<Stripe>,
    /// Times a requester had to wait for a stripe (older behind younger).
    pub waits: Counter,
    /// Wait-die victims: younger requesters aborted on a held stripe.
    pub aborts: Counter,
}

impl StripeLocks {
    /// A table of `n` stripes (`n` is clamped to at least 1).
    pub fn new(n: usize) -> StripeLocks {
        let n = n.max(1);
        let mut stripes = Vec::with_capacity(n);
        stripes.resize_with(n, || Stripe {
            holder: Mutex::new(None),
            freed: Condvar::new(),
        });
        StripeLocks {
            stripes,
            waits: Counter::new(),
            aborts: Counter::new(),
        }
    }

    /// Number of stripes.
    pub fn len(&self) -> usize {
        self.stripes.len()
    }

    /// True only for a zero-stripe table, which [`StripeLocks::new`]
    /// never constructs.
    pub fn is_empty(&self) -> bool {
        self.stripes.is_empty()
    }

    /// The stripe an atom type maps to.
    pub fn stripe_of(&self, ty: AtomTypeId) -> usize {
        ty.0 as usize % self.stripes.len()
    }

    /// Acquires stripe `idx` for transaction `me`. Wait-die: blocks while
    /// the holder is younger than `me`, aborts (`Error::Txn`) when the
    /// holder is older. With `no_wait`, any held stripe aborts immediately
    /// — the deterministic-schedule mode the concurrency oracle uses.
    /// Re-acquiring a stripe already held by `me` is a no-op.
    pub fn acquire(&self, idx: usize, me: u64, no_wait: bool) -> Result<()> {
        let stripe = &self.stripes[idx];
        let mut holder = stripe.holder.lock();
        loop {
            match *holder {
                None => {
                    *holder = Some(me);
                    return Ok(());
                }
                Some(h) if h == me => return Ok(()),
                Some(h) => {
                    if no_wait || me > h {
                        self.aborts.inc();
                        return Err(wait_die_abort(idx, me, h));
                    }
                    // `me` is older: wait for the younger holder to finish.
                    self.waits.inc();
                    stripe.freed.wait(&mut holder);
                }
            }
        }
    }

    /// Releases stripe `idx`, which must be held by `me`.
    pub fn release(&self, idx: usize, me: u64) {
        let stripe = &self.stripes[idx];
        let mut holder = stripe.holder.lock();
        debug_assert_eq!(*holder, Some(me), "release of a stripe not held");
        if *holder == Some(me) {
            *holder = None;
        }
        drop(holder);
        stripe.freed.notify_all();
    }
}

fn wait_die_abort(idx: usize, me: u64, holder: u64) -> Error {
    Error::Txn(format!(
        "wait-die: transaction {me} aborted on stripe {idx} held by older transaction {holder}; retry"
    ))
}

/// True iff `e` is a wait-die conflict abort — the retryable outcome of
/// two transactions touching the same atom-type stripe.
pub fn is_wait_die_abort(e: &Error) -> bool {
    matches!(e, Error::Txn(msg) if msg.starts_with("wait-die:"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn acquire_release_roundtrip() {
        let s = StripeLocks::new(4);
        s.acquire(1, 7, false).unwrap();
        s.acquire(1, 7, false).unwrap(); // re-entrant no-op
        s.acquire(2, 8, false).unwrap(); // disjoint stripe
        s.release(1, 7);
        s.acquire(1, 9, false).unwrap(); // freed stripe is takable
        s.release(1, 9);
        s.release(2, 8);
    }

    #[test]
    fn younger_dies_older_waits() {
        let s = Arc::new(StripeLocks::new(2));
        s.acquire(0, 5, false).unwrap();
        // Younger requester dies immediately.
        let err = s.acquire(0, 9, false).unwrap_err();
        assert!(is_wait_die_abort(&err), "unexpected error: {err}");
        assert_eq!(s.aborts.get(), 1);
        // Older requester waits until release.
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            s2.acquire(0, 3, false).unwrap();
            s2.release(0, 3);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        s.release(0, 5);
        h.join().unwrap();
        assert!(s.waits.get() >= 1);
    }

    #[test]
    fn no_wait_mode_aborts_in_both_directions() {
        let s = StripeLocks::new(1);
        s.acquire(0, 5, true).unwrap();
        assert!(is_wait_die_abort(&s.acquire(0, 3, true).unwrap_err()));
        assert!(is_wait_die_abort(&s.acquire(0, 9, true).unwrap_err()));
        s.release(0, 5);
    }
}
