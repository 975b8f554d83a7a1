//! Engine-agnostic node/engine boundary: `Clock`, `Transport`, and
//! `NodeBehavior`.
//!
//! The paper's algorithms (search, exploration, neighbor update,
//! duplicate suppression) are per-node state machines; nothing about
//! them requires virtual time. Historically the three case-study worlds
//! implemented them directly against `ddr-sim`'s event dispatch, so
//! every throughput number was a sim-events/sec claim. These traits
//! split the state machine from the engine that drives it:
//!
//! * [`Clock`] — what time is it, and schedule an event for *this* node
//!   (timers are self-addressed messages);
//! * [`Transport`] — deliver a typed message to *another* node after a
//!   delay (the delay is sampled by the caller, which owns the network
//!   model and its RNG stream);
//! * [`NodeBehavior`] — one node's reaction to one delivered message.
//!
//! Two engines drive the same behavior:
//!
//! * the discrete-event simulator: `ddr_sim::Scheduler` implements both
//!   traits by pushing into the calendar queue. Events already carry
//!   their recipient in the payload, so `send` is exactly
//!   `schedule_after` — which is why the port of the three worlds onto
//!   these traits is bit-identical (see `tests/runtime_regression.rs`);
//! * the real-time serve bus (`ddr-serve`): sharded worker threads with
//!   bounded channels and a wall-clock `Clock`, driving [`NodeBehavior`]
//!   instances under synthetic load.
//!
//! `NodeBehavior::on_message` is generic over the context (not
//! dyn-safe on purpose): both engines monomorphize the hot path, and
//! the simulator keeps its zero-allocation dispatch.

use ddr_sim::{NodeId, Scheduler, SimDuration, SimTime};

/// Time source plus self-scheduling: timers are messages a node sends
/// to itself.
pub trait Clock<E> {
    /// Current time. Virtual in the simulator, milliseconds since
    /// process start under the serve bus.
    fn now(&self) -> SimTime;

    /// Deliver `event` back to the current node after `delay`.
    fn schedule_after(&mut self, delay: SimDuration, event: E);
}

/// Typed node-to-node message delivery.
///
/// The *caller* samples `delay` (it owns the `NetworkModel` and the RNG
/// stream that feeds it); the transport only moves the message. `to` is
/// redundant for the single-threaded simulator — payloads carry their
/// recipient — but it is the shard-routing key for the serve bus.
pub trait Transport<E> {
    /// Deliver `event` to node `to` after `delay`.
    fn send(&mut self, to: NodeId, delay: SimDuration, event: E);
}

/// One node's state machine: react to a delivered message (or a
/// self-addressed timer) by mutating local state and emitting further
/// sends/timers through the context.
pub trait NodeBehavior {
    /// The message alphabet of this protocol.
    type Msg;

    /// Handle one delivered message. `from` is the sending node
    /// (`self`'s own id for timers).
    fn on_message<C>(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut C)
    where
        C: Clock<Self::Msg> + Transport<Self::Msg>;
}

/// The discrete-event backend: a [`ddr_sim::Scheduler`] used through the
/// `Clock`/`Transport` traits.
impl<E> Clock<E> for Scheduler<'_, E> {
    #[inline]
    fn now(&self) -> SimTime {
        Scheduler::now(self)
    }

    #[inline]
    fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.after(delay, event);
    }
}

impl<E> Transport<E> for Scheduler<'_, E> {
    /// Simulator events carry their recipient in the payload, so
    /// delivery is pure scheduling — `to` only matters to engines that
    /// route (the serve bus shards by it).
    #[inline]
    fn send(&mut self, _to: NodeId, delay: SimDuration, event: E) {
        self.after(delay, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddr_sim::EventQueue;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Ping {
        to: NodeId,
        from: NodeId,
    }

    /// A toy behavior: bounce a ping back to the sender until a hop
    /// budget runs out.
    struct Bouncer {
        id: NodeId,
        hops_left: u32,
        received: u32,
    }

    impl NodeBehavior for Bouncer {
        type Msg = Ping;

        fn on_message<C>(&mut self, from: NodeId, msg: Ping, ctx: &mut C)
        where
            C: Clock<Ping> + Transport<Ping>,
        {
            assert_eq!(msg.to, self.id);
            self.received += 1;
            if self.hops_left > 0 {
                self.hops_left -= 1;
                ctx.send(
                    from,
                    SimDuration::from_millis(5),
                    Ping {
                        to: from,
                        from: self.id,
                    },
                );
            }
        }
    }

    #[test]
    fn scheduler_implements_clock_and_transport() {
        let mut q: EventQueue<Ping> = EventQueue::new();
        {
            let mut sched = q.scheduler();
            assert_eq!(Clock::<Ping>::now(&sched), SimTime::ZERO);
            Clock::schedule_after(
                &mut sched,
                SimDuration::from_millis(10),
                Ping {
                    to: NodeId(0),
                    from: NodeId(0),
                },
            );
            Clock::schedule_after(
                &mut sched,
                SimDuration::from_millis(3),
                Ping {
                    to: NodeId(1),
                    from: NodeId(1),
                },
            );
            Transport::send(
                &mut sched,
                NodeId(2),
                SimDuration::from_millis(7),
                Ping {
                    to: NodeId(2),
                    from: NodeId(0),
                },
            );
        }
        // Delivery order follows time: after(+3) < send(+7) < after(+10).
        let (t1, e1) = q.pop().unwrap();
        assert_eq!((t1, e1.to), (SimTime::from_millis(3), NodeId(1)));
        let (t2, e2) = q.pop().unwrap();
        assert_eq!((t2, e2.to), (SimTime::from_millis(7), NodeId(2)));
        let (t3, e3) = q.pop().unwrap();
        assert_eq!((t3, e3.to), (SimTime::from_millis(10), NodeId(0)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn node_behavior_runs_under_the_sim_backend() {
        // Two bouncers exchanging pings through the DES: the behavior
        // only ever talks to Clock + Transport, the driver routes.
        let mut nodes = [
            Bouncer {
                id: NodeId(0),
                hops_left: 3,
                received: 0,
            },
            Bouncer {
                id: NodeId(1),
                hops_left: 3,
                received: 0,
            },
        ];
        let mut q: EventQueue<Ping> = EventQueue::new();
        q.schedule_at(
            SimTime::ZERO,
            Ping {
                to: NodeId(0),
                from: NodeId(1),
            },
        );
        let mut last = SimTime::ZERO;
        while let Some((now, msg)) = q.pop() {
            assert!(now >= last);
            last = now;
            let mut sched = q.scheduler();
            nodes[msg.to.index()].on_message(msg.from, msg, &mut sched);
        }
        // First ping + 3 bounces each way until both budgets drain:
        // node 0 receives the seed + node 1's bounces.
        assert_eq!(nodes[0].received + nodes[1].received, 7);
        assert_eq!(nodes[0].hops_left + nodes[1].hops_left, 0);
    }
}
