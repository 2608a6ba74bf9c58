//! Offline stand-in for the `crossbeam` crate (see `crates/shims/README.md`).
//!
//! Only the `channel` module is provided: MPMC channels with cloneable
//! senders *and* receivers and crossbeam's disconnection semantics (send
//! fails once all receivers are gone; recv fails once the queue is empty and
//! all senders are gone). Built on a mutex + condvars rather than lock-free
//! queues — throughput is a few million ops/s, ample for the simulated RPC
//! fabric. The condvars are the `parking_lot` shim's, which count their
//! waiters: a send, a receive or a last drop that finds no thread parked
//! on the other side wakes no one and makes no syscall.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use parking_lot::{Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// Signalled on push and on sender disconnect.
        readable: Condvar,
        /// Signalled on pop and on receiver disconnect (bounded sends wait).
        writable: Condvar,
        capacity: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait timed out with the channel still connected.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (MPMC: each message goes to exactly one
    /// receiver).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// An unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// A bounded channel; `send` blocks while `cap` messages are queued.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues a message, blocking if the channel is bounded and full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let shared = &self.shared;
            let mut queue = shared.queue.lock();
            loop {
                if shared.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendError(value));
                }
                match shared.capacity {
                    Some(cap) if queue.len() >= cap.max(1) => shared.writable.wait(&mut queue),
                    _ => break,
                }
            }
            queue.push_back(value);
            drop(queue);
            shared.readable.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues a message, blocking until one arrives or all senders
        /// disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let shared = &self.shared;
            let mut queue = shared.queue.lock();
            loop {
                if let Some(value) = queue.pop_front() {
                    drop(queue);
                    shared.writable.notify_one();
                    return Ok(value);
                }
                if shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                shared.readable.wait(&mut queue);
            }
        }

        /// Like [`Receiver::recv`] with an overall timeout.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let shared = &self.shared;
            let deadline = std::time::Instant::now() + timeout;
            let mut queue = shared.queue.lock();
            loop {
                if let Some(value) = queue.pop_front() {
                    drop(queue);
                    shared.writable.notify_one();
                    return Ok(value);
                }
                if shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                shared.readable.wait_for(&mut queue, deadline - now);
            }
        }

        /// Dequeues a message if one is ready.
        pub fn try_recv(&self) -> Result<T, RecvError> {
            let shared = &self.shared;
            let mut queue = shared.queue.lock();
            match queue.pop_front() {
                Some(value) => {
                    drop(queue);
                    shared.writable.notify_one();
                    Ok(value)
                }
                None => Err(RecvError),
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Wake receivers so they observe the disconnect. Take the
                // queue lock so the notification cannot race ahead of a
                // receiver that has checked `senders` but not yet parked.
                let _guard = self.shared.queue.lock();
                self.shared.readable.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _guard = self.shared.queue.lock();
                self.shared.writable.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn fifo_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
        }

        #[test]
        fn recv_fails_after_all_senders_drop() {
            let (tx, rx) = unbounded::<u32>();
            let tx2 = tx.clone();
            drop(tx);
            tx2.send(5).unwrap();
            drop(tx2);
            assert_eq!(rx.recv().unwrap(), 5);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_fails_after_all_receivers_drop() {
            let (tx, rx) = bounded(1);
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn blocked_recv_wakes_on_send() {
            let (tx, rx) = unbounded();
            let t = thread::spawn(move || rx.recv().unwrap());
            thread::sleep(Duration::from_millis(10));
            tx.send(9u8).unwrap();
            assert_eq!(t.join().unwrap(), 9);
        }

        #[test]
        fn blocked_recv_wakes_on_disconnect() {
            let (tx, rx) = unbounded::<u8>();
            let t = thread::spawn(move || rx.recv());
            thread::sleep(Duration::from_millis(10));
            drop(tx);
            assert_eq!(t.join().unwrap(), Err(RecvError));
        }

        #[test]
        fn cloned_receivers_share_the_stream() {
            let (tx, rx1) = unbounded();
            let rx2 = rx1.clone();
            for i in 0..10u32 {
                tx.send(i).unwrap();
            }
            let mut seen = Vec::new();
            for _ in 0..5 {
                seen.push(rx1.recv().unwrap());
                seen.push(rx2.recv().unwrap());
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..10).collect::<Vec<_>>());
        }

        /// Long enough for a spawned thread to park in its wait.
        const PARK: Duration = Duration::from_millis(20);

        #[derive(Clone, Copy)]
        enum RecvKind {
            Blocking,
            Timed,
        }

        fn recv_with(rx: &Receiver<u8>, kind: RecvKind) -> Result<u8, RecvError> {
            match kind {
                RecvKind::Blocking => rx.recv(),
                RecvKind::Timed => match rx.recv_timeout(Duration::from_secs(30)) {
                    Ok(v) => Ok(v),
                    Err(RecvTimeoutError::Disconnected) => Err(RecvError),
                    Err(RecvTimeoutError::Timeout) => panic!("woken by the timeout"),
                },
            }
        }

        #[test]
        fn parked_receiver_wakes_on_send_and_on_last_sender_drop() {
            for kind in [RecvKind::Blocking, RecvKind::Timed] {
                let (tx, rx) = unbounded::<u8>();
                let receiver = thread::spawn(move || {
                    let first = recv_with(&rx, kind);
                    let second = recv_with(&rx, kind);
                    (first, second)
                });
                thread::sleep(PARK);
                tx.send(7).unwrap();
                thread::sleep(PARK);
                // Dropping one of two senders disconnects nothing.
                let tx2 = tx.clone();
                drop(tx);
                thread::sleep(PARK);
                assert!(
                    !receiver.is_finished(),
                    "woken by a sender that was not the last"
                );
                drop(tx2);
                assert_eq!(receiver.join().unwrap(), (Ok(7), Err(RecvError)));
            }
        }

        #[test]
        fn parked_bounded_sender_wakes_on_recv_and_on_last_receiver_drop() {
            let (tx, rx) = bounded::<u8>(1);
            tx.send(1).unwrap();
            let sender = thread::spawn(move || {
                let first = tx.send(2).map_err(|e| e.0);
                // The queue is full again: this one waits for a receiver.
                let second = tx.send(3).map_err(|e| e.0);
                (first, second)
            });
            thread::sleep(PARK);
            assert_eq!(rx.recv().unwrap(), 1);
            thread::sleep(PARK);
            let rx2 = rx.clone();
            drop(rx);
            thread::sleep(PARK);
            assert!(
                !sender.is_finished(),
                "woken by a receiver that was not the last"
            );
            drop(rx2);
            assert_eq!(sender.join().unwrap(), (Ok(()), Err(3)));
        }

        #[test]
        fn recv_timeout_times_out() {
            let (_tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
        }
    }
}
