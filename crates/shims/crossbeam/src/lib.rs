//! Offline stand-in for `crossbeam`: only the `channel` module, with the
//! `unbounded` constructor and the `Sender`/`Receiver`/`TryRecvError` types
//! this workspace uses, backed by `std::sync::mpsc`.

pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvError, SendError, Sender, TryRecvError};

    /// An unbounded MPSC channel (crossbeam's `unbounded()` signature).
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, TryRecvError};

    #[test]
    fn send_try_recv_roundtrip() {
        let (tx, rx) = unbounded::<u32>();
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
        tx.send(5).unwrap();
        assert_eq!(rx.try_recv().unwrap(), 5);
        let tx2 = tx.clone();
        tx2.send(6).unwrap();
        assert_eq!(rx.recv().unwrap(), 6);
    }
}
