//! `std::thread` facade: spawn/join that the deterministic scheduler can
//! see. Outside a model run everything delegates to `std::thread`; inside
//! one, spawned threads become model threads and `join` is a modeled
//! blocking operation (so shutdown protocols — e.g. `ModelMaintenance`'s
//! Drop-join — are explored like any other interleaving).

use crate::model;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

pub use std::thread::Result;

enum Inner<T> {
    Std(std::thread::JoinHandle<T>),
    Model {
        tid: model::Tid,
        slot: Arc<StdMutex<Option<std::thread::Result<T>>>>,
    },
}

/// Owned permission to join a thread; mirrors `std::thread::JoinHandle`.
pub struct JoinHandle<T>(Inner<T>);

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish, returning its result (`Err` holds
    /// the panic payload, as with `std`).
    pub fn join(self) -> Result<T> {
        match self.0 {
            Inner::Std(h) => h.join(),
            Inner::Model { tid, slot } => {
                let ctx = model::current().unwrap_or_else(|| {
                    panic!("joining a model thread from outside its schedule run")
                });
                ctx.join(tid);
                // No result means the target was unwound by an aborting
                // execution (or, joined during that teardown, has not
                // finished): report it like a panic rather than raising one.
                slot.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take()
                    .unwrap_or_else(|| Err(Box::new("model execution aborted")))
            }
        }
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("JoinHandle { .. }")
    }
}

/// Thread factory; mirrors the `std::thread::Builder` subset the workspace
/// uses (`new`, `name`, `spawn`).
#[derive(Debug, Default)]
pub struct Builder {
    name: Option<String>,
}

impl Builder {
    /// Creates a builder with no name set.
    pub fn new() -> Self {
        Builder::default()
    }

    /// Names the thread (visible in panics, debuggers, and schedule
    /// failure reports).
    #[must_use]
    pub fn name(mut self, name: String) -> Self {
        self.name = Some(name);
        self
    }

    /// Spawns a thread running `f`. Inside a model run the thread is
    /// registered with the scheduler and starts parked until scheduled.
    pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        if let Some(ctx) = model::current() {
            let name = self.name.unwrap_or_else(|| "thread".to_string());
            let (tid, slot) = ctx.spawn(name, f);
            Ok(JoinHandle(Inner::Model { tid, slot }))
        } else {
            let mut b = std::thread::Builder::new();
            if let Some(name) = self.name {
                b = b.name(name);
            }
            b.spawn(f).map(|h| JoinHandle(Inner::Std(h)))
        }
    }
}

/// Spawns an unnamed thread; see [`Builder::spawn`].
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    Builder::new()
        .spawn(f)
        .unwrap_or_else(|e| panic!("failed to spawn thread: {e}"))
}

/// Yields: a schedule point inside a model run, `std::thread::yield_now`
/// outside one.
pub fn yield_now() {
    if model::in_model() {
        model::point("yield_now");
    } else {
        std::thread::yield_now();
    }
}

/// Sleeps. Inside a model run time is logical: this is a schedule point,
/// not a wall-clock delay (sleeping cannot order modeled events anyway —
/// only synchronization can).
pub fn sleep(dur: Duration) {
    if model::in_model() {
        model::point("sleep");
    } else {
        std::thread::sleep(dur);
    }
}
