//! Integration: the simulator's core guarantee — identical inputs
//! produce bit-identical schedules — plus the throttling behavior the
//! work-sharing model depends on (bounded channels propagate back
//! pressure from slow consumers to producers).

use cordoba_sim::{channel, SimConfig, SimStats, Simulator, Span, Step, Task, TaskCtx, VTime};

struct Producer {
    tx: channel::Sender<u64>,
    left: u64,
    step_cost: VTime,
}

impl Task for Producer {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        if self.left == 0 {
            self.tx.close(ctx);
            return Step::done(0);
        }
        match self.tx.try_send(self.left, ctx) {
            Ok(()) => {
                self.left -= 1;
                Step::yielded(self.step_cost)
            }
            Err(_) => Step::blocked(0),
        }
    }
}

struct Consumer {
    rx: channel::Receiver<u64>,
    seen: u64,
    step_cost: VTime,
}

impl Task for Consumer {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        match self.rx.try_recv(ctx) {
            channel::Recv::Value(_) => {
                self.seen += 1;
                Step::yielded(self.step_cost)
            }
            channel::Recv::Empty => Step::blocked(0),
            channel::Recv::Closed => Step::done(0),
        }
    }
}

/// Runs a `stages`-deep relay pipeline, traced, and returns its finish
/// time, every busy span and the machine statistics.
fn run_pipeline(contexts: usize, items: u64, costs: &[VTime]) -> (VTime, Vec<Span>, SimStats) {
    let mut sim = Simulator::with_config(SimConfig {
        contexts,
        trace: true,
    });
    let (tx, mut rx) = channel::bounded(8);
    sim.spawn(
        "producer",
        Box::new(Producer {
            tx,
            left: items,
            step_cost: costs[0],
        }),
    );
    for (i, &c) in costs[1..costs.len() - 1].iter().enumerate() {
        let (tx_next, rx_next) = channel::bounded(8);
        struct Relay {
            rx: channel::Receiver<u64>,
            tx: channel::Sender<u64>,
            pending: Option<u64>,
            cost: VTime,
        }
        impl Task for Relay {
            fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
                let v = match self.pending.take() {
                    Some(v) => v,
                    None => match self.rx.try_recv(ctx) {
                        channel::Recv::Value(v) => v,
                        channel::Recv::Empty => return Step::blocked(0),
                        channel::Recv::Closed => {
                            self.tx.close(ctx);
                            return Step::done(0);
                        }
                    },
                };
                match self.tx.try_send(v, ctx) {
                    Ok(()) => Step::yielded(self.cost),
                    Err(v) => {
                        self.pending = Some(v);
                        Step::blocked(0)
                    }
                }
            }
        }
        sim.spawn(
            format!("relay{i}"),
            Box::new(Relay {
                rx,
                tx: tx_next,
                pending: None,
                cost: c,
            }),
        );
        rx = rx_next;
    }
    sim.spawn(
        "consumer",
        Box::new(Consumer {
            rx,
            seen: 0,
            step_cost: *costs.last().unwrap(),
        }),
    );
    let outcome = sim.run_to_idle();
    assert!(outcome.completed_all(), "pipeline deadlocked: {outcome:?}");
    (sim.now(), sim.trace().to_vec(), sim.stats())
}

#[test]
fn identical_runs_produce_identical_schedules() {
    for contexts in [1usize, 2, 4, 32] {
        let a = run_pipeline(contexts, 500, &[7, 3, 5]);
        let b = run_pipeline(contexts, 500, &[7, 3, 5]);
        assert!(
            !a.1.is_empty(),
            "trace recorded no span on {contexts} contexts"
        );
        assert_eq!(a, b, "divergent schedule on {contexts} contexts");
    }
}

#[test]
fn slow_consumer_throttles_producer() {
    // Finite buffering: a consumer 10x slower than its producer forces
    // the pipeline to finish at the consumer's rate (the model's "slow
    // consumers throttle producers" premise).
    let items = 400u64;
    let (fast_t, ..) = run_pipeline(2, items, &[5, 5]);
    let (slow_t, ..) = run_pipeline(2, items, &[5, 50]);
    assert!(
        slow_t >= items * 50,
        "consumer-bound time {slow_t} below its sequential floor"
    );
    assert!(
        slow_t > fast_t * 5,
        "back pressure missing: slow {slow_t} vs fast {fast_t}"
    );
}

#[test]
fn added_contexts_never_slow_a_pipeline_down() {
    let mut prev = VTime::MAX;
    for contexts in [1usize, 2, 3, 4] {
        let (t, ..) = run_pipeline(contexts, 300, &[4, 4, 4, 4]);
        assert!(
            t <= prev,
            "{contexts} contexts slower than {} ({t} vs {prev})",
            contexts - 1
        );
        prev = t;
    }
}
