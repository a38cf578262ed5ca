//! How the benchmark observes the program from outside: forwarding
//! transitions, timing wrappers around `compute_output` and `matches_any`,
//! and a bench-owned [`EventSink`].
//!
//! Untraced runs use [`Plain`]: the workload's own transition behind an
//! `Arc` (so every pooled run can own one without regenerating the
//! workload's data) and its own state type, with the no-op sink. Traced
//! runs use [`Wrapped`], whose wrappers record leaf calls; their outputs
//! are checked bit-identical to the untraced ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use stats_core::prelude::*;

use crate::trace::{self, Leaf};

/// Forwards to a shared transition; adds no work.
pub struct Shared<T>(pub Arc<T>);

impl<T: StateTransition> StateTransition for Shared<T> {
    type Input = T::Input;
    type State = T::State;
    type Output = T::Output;

    fn compute_output(
        &self,
        input: &T::Input,
        state: &mut T::State,
        ctx: &mut InvocationCtx,
    ) -> T::Output {
        self.0.compute_output(input, state, ctx)
    }

    fn merge_states(&self, parents: &[T::State]) -> T::State {
        self.0.merge_states(parents)
    }
}

/// A state whose `matches_any` is timed as a validation leaf.
#[derive(Clone, Debug, PartialEq)]
pub struct TracedState<S>(pub S);

impl<S: SpecState> SpecState for TracedState<S> {
    fn matches_any(&self, originals: &[Self]) -> bool {
        // Unwrapping the originals is wrapper cost, kept outside the leaf.
        let originals: Vec<S> = originals.iter().map(|o| o.0.clone()).collect();
        let start = Instant::now();
        let matched = self.0.matches_any(&originals);
        let kind = if matched {
            Leaf::ValidateMatch
        } else {
            Leaf::ValidateMiss
        };
        trace::leaf(kind, start);
        matched
    }
}

/// A transition whose `compute_output` is timed as a kernel leaf (original
/// code) or an auxiliary leaf (`ctx.is_auxiliary()`).
pub struct Timed<T>(pub Arc<T>);

impl<T: StateTransition> StateTransition for Timed<T> {
    type Input = T::Input;
    type State = TracedState<T::State>;
    type Output = T::Output;

    fn compute_output(
        &self,
        input: &T::Input,
        state: &mut TracedState<T::State>,
        ctx: &mut InvocationCtx,
    ) -> T::Output {
        let kind = if ctx.is_auxiliary() {
            Leaf::Aux
        } else {
            Leaf::Kernel
        };
        let start = Instant::now();
        let out = self.0.compute_output(input, &mut state.0, ctx);
        trace::leaf(kind, start);
        out
    }

    fn merge_states(&self, parents: &[TracedState<T::State>]) -> TracedState<T::State> {
        let parents: Vec<T::State> = parents.iter().map(|p| p.0.clone()).collect();
        TracedState(self.0.merge_states(&parents))
    }
}

/// How one run is made: untraced ([`Plain`]) or traced ([`Wrapped`]).
pub trait Arm<T: StateTransition> {
    /// The transition handed to the program.
    type X: StateTransition<Input = T::Input, Output = T::Output>;
    /// Whether this arm records spans and leaves.
    const TRACED: bool;
    /// The transition for one run.
    fn transition(t: &Arc<T>) -> Self::X;
    /// The initial state for one run.
    fn state(s: &T::State) -> <Self::X as StateTransition>::State;
}

/// Untraced: the workload's own transition and state.
pub struct Plain;

impl<T: StateTransition> Arm<T> for Plain {
    type X = Shared<T>;
    const TRACED: bool = false;
    fn transition(t: &Arc<T>) -> Shared<T> {
        Shared(Arc::clone(t))
    }
    fn state(s: &T::State) -> T::State {
        s.clone()
    }
}

/// Traced: timing wrappers around the workload's transition and state.
pub struct Wrapped;

impl<T: StateTransition> Arm<T> for Wrapped {
    type X = Timed<T>;
    const TRACED: bool = true;
    fn transition(t: &Arc<T>) -> Timed<T> {
        Timed(Arc::clone(t))
    }
    fn state(s: &T::State) -> TracedState<T::State> {
        TracedState(s.clone())
    }
}

/// Bench-owned sink for one request: opens a `group` span per group
/// (child of the request's span), and keeps the timestamps and counts the
/// runtime metrics are computed from.
pub struct RunSink {
    request: u64,
    parent: usize,
    /// First `GroupStart` or `NodeValidation`, ns since the trace epoch.
    pub first_start_ns: AtomicU64,
    /// Last `GroupEnd`.
    pub last_group_end_ns: AtomicU64,
    /// Last `RunEnd`.
    pub last_run_end_ns: AtomicU64,
    /// `NodeValidation` events.
    pub node_validations: AtomicU64,
    /// `NodeAbort` events.
    pub node_aborts: AtomicU64,
}

impl RunSink {
    /// A sink for request `request`, whose span is `parent`.
    pub fn new(request: u64, parent: usize) -> Self {
        RunSink {
            request,
            parent,
            first_start_ns: AtomicU64::new(u64::MAX),
            last_group_end_ns: AtomicU64::new(0),
            last_run_end_ns: AtomicU64::new(0),
            node_validations: AtomicU64::new(0),
            node_aborts: AtomicU64::new(0),
        }
    }
}

impl EventSink for RunSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, kind: EventKind) {
        let now = trace::now_ns();
        match kind {
            EventKind::GroupStart { .. } => {
                self.first_start_ns.fetch_min(now, Ordering::Relaxed);
                trace::begin("group", self.request, Some(self.parent));
            }
            EventKind::GroupEnd { .. } => {
                self.last_group_end_ns.fetch_max(now, Ordering::Relaxed);
                trace::end_innermost();
            }
            EventKind::RunEnd => {
                self.last_run_end_ns.fetch_max(now, Ordering::Relaxed);
            }
            EventKind::NodeValidation { .. } => {
                self.first_start_ns.fetch_min(now, Ordering::Relaxed);
                self.node_validations.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::NodeAbort { .. } => {
                self.node_aborts.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}
