//! Property-based tests of the streaming session layer.
//!
//! The contract under test (DESIGN.md, "Streaming sessions"): feeding
//! a session the canonical event stream of an instance produces an
//! outcome *bit-identical* to the batch [`Runner`] replay — same
//! assignments, same usage intervals, same totals — for every
//! algorithm and engine backend, and a session checkpointed and
//! resumed at any point finishes exactly like one that never stopped.

use dbp_core::prelude::*;
use dbp_core::session::{Session, SessionSnapshot};
use dbp_core::{event_schedule, PackingAlgorithm};
use dbp_numeric::rat;
use dbp_simcore::EventClass;
use proptest::prelude::*;

/// Strategy: a well-formed instance with up to 20 items, sizes from
/// small fractions, arrivals on a quarter grid — lots of equal-time
/// ties so the departure-before-arrival canonical order is exercised.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    let item = (1i128..=8, 1i128..=8, 0i128..=40, 1i128..=16).prop_map(|(num, den, arr4, dur4)| {
        let size = rat(num.min(den), den);
        let arrival = rat(arr4, 4);
        let duration = rat(dur4, 4);
        (size, arrival, arrival + duration)
    });
    prop::collection::vec(item, 0..20)
        .prop_map(|specs| Instance::new(specs).expect("strategy produces valid specs"))
}

/// Strategy: an instance that fits a `TickGrid::new(4, 8)` — sizes
/// are eighths, times are quarters — so Auto sessions with a declared
/// grid run on the integer tick engine.
fn gridded_instance_strategy() -> impl Strategy<Value = Instance> {
    let item = (1i128..=8, 0i128..=40, 1i128..=16).prop_map(|(eighths, arr4, dur4)| {
        let size = rat(eighths, 8);
        let arrival = rat(arr4, 4);
        let duration = rat(dur4, 4);
        (size, arrival, arrival + duration)
    });
    prop::collection::vec(item, 0..20)
        .prop_map(|specs| Instance::new(specs).expect("strategy produces valid specs"))
}

/// The canonical wire stream of an instance: the batch engine's own
/// event order (time-sorted, departures before arrivals at ties),
/// rendered as [`Event`]s.
fn events_of(inst: &Instance) -> Vec<Event> {
    event_schedule(inst)
        .iter()
        .map(|entry| match entry.class {
            EventClass::Arrival => Event::Arrive {
                id: entry.payload,
                size: inst.item(entry.payload).size,
                time: entry.time,
            },
            EventClass::Departure => Event::Depart {
                id: entry.payload,
                time: entry.time,
            },
            EventClass::Control => unreachable!("instances schedule no control events"),
        })
        .collect()
}

/// Algorithms a session can stream through: the tick-capable
/// Any-Fit rules.
fn algorithms() -> Vec<Box<dyn PackingAlgorithm>> {
    vec![
        Box::new(FirstFit::new()),
        Box::new(BestFit::new()),
        Box::new(WorstFit::new()),
    ]
}

/// Streams `events` into a fresh session built by `make` and finishes
/// it.
fn stream(
    events: &[Event],
    make: impl FnOnce() -> Result<Session<'static>, SessionError>,
) -> PackingOutcome {
    let mut session = make().expect("session builds");
    session.ingest(events).expect("canonical stream is valid");
    session.finish().expect("finish after a valid stream")
}

/// The id of the one off-grid arrival in [`reused_id_stream`].
const OFF_GRID_ID: ItemId = ItemId(100);

/// A valid stream on the `TickGrid::new(4, 8)` grid whose ids depart
/// and re-arrive, plus one off-grid arrival (size 1/3) before the
/// `cut`-th random op.
///
/// A fixed First-Fit prefix guarantees that id 0 re-arrives into a
/// different bin: it fills bin 0 with ids 0 and 1, opens bin 1 with
/// id 2, then departs id 0 and re-arrives it after id 3 has retaken
/// its room in bin 0. Each random op `(id, eighths, quarter steps)`
/// advances the clock, then departs `id` if it is active or arrives
/// it with size `eighths/8`. Departures never follow an arrival at
/// the same instant, and every item departs at the end.
fn reused_id_stream(ops: &[(u32, i128, i128)], cut: usize) -> Vec<Event> {
    let arrive = |id, eighths, quarters| Event::Arrive {
        id: ItemId(id),
        size: rat(eighths, 8),
        time: rat(quarters, 4),
    };
    let depart = |id, quarters| Event::Depart {
        id: ItemId(id),
        time: rat(quarters, 4),
    };
    let mut events = vec![
        arrive(0, 4, 0),
        arrive(1, 4, 0),
        arrive(2, 4, 0),
        depart(0, 1),
        arrive(3, 4, 1),
        arrive(0, 4, 1),
    ];
    let mut active: Vec<u32> = vec![0, 1, 2, 3];
    let mut now = 1;
    let mut arrived_now = true;
    for (k, &(id, eighths, steps)) in ops.iter().enumerate() {
        if k == cut.min(ops.len().saturating_sub(1)) {
            events.push(Event::Arrive {
                id: OFF_GRID_ID,
                size: rat(1, 3),
                time: rat(now, 4),
            });
            arrived_now = true;
        }
        now += steps;
        if steps > 0 {
            arrived_now = false;
        }
        if let Some(at) = active.iter().position(|&a| a == id) {
            if arrived_now {
                now += 1;
                arrived_now = false;
            }
            active.remove(at);
            events.push(depart(id, now));
        } else {
            active.push(id);
            events.push(arrive(id, eighths, now));
            arrived_now = true;
        }
    }
    if ops.is_empty() {
        events.push(Event::Arrive {
            id: OFF_GRID_ID,
            size: rat(1, 3),
            time: rat(now, 4),
        });
    }
    active.sort_unstable();
    for id in active.into_iter().chain([OFF_GRID_ID.0]) {
        events.push(depart(id, now + 1));
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Streaming one event at a time is bit-identical to the batch
    /// replay, for every algorithm, linear and indexed.
    #[test]
    fn streaming_matches_batch_bit_for_bit(inst in instance_strategy()) {
        let events = events_of(&inst);
        for mut algo in algorithms() {
            let batch = Runner::new(&inst)
                .backend(Backend::Exact)
                .run(algo.as_mut())
                .unwrap();
            let name = batch.algorithm().to_string();
            let streamed = match name.as_str() {
                "FirstFit" => stream(&events, || Session::builder(FirstFit::new()).build()),
                "BestFit" => stream(&events, || Session::builder(BestFit::new()).build()),
                "WorstFit" => stream(&events, || Session::builder(WorstFit::new()).build()),
                other => unreachable!("unexpected algorithm {other}"),
            };
            prop_assert_eq!(streamed, batch);
        }
    }

    /// With a declared grid, an Auto session runs the integer tick
    /// engine — and its outcome is still bit-identical to the exact
    /// batch replay.
    #[test]
    fn tick_sessions_match_exact_batch(inst in gridded_instance_strategy()) {
        let events = events_of(&inst);
        let batch = Runner::new(&inst)
            .backend(Backend::Exact)
            .run(&mut FirstFit::new())
            .unwrap();
        let mut session = Session::builder(FirstFit::new())
            .grid(TickGrid::new(4, 8))
            .build()
            .unwrap();
        session.ingest(&events).unwrap();
        if !events.is_empty() {
            prop_assert!(session.tick_active(), "grid declared but tick not engaged");
        }
        prop_assert_eq!(session.finish().unwrap(), batch);
    }

    /// A session snapshotted after a random prefix and resumed from
    /// the checkpoint finishes exactly like one that never stopped.
    #[test]
    fn snapshot_resume_is_seamless(inst in instance_strategy(), cut in 0usize..=40) {
        let events = events_of(&inst);
        let full = stream(&events, || Session::builder(FirstFit::new()).build());

        let cut = cut.min(events.len());
        let mut first = Session::builder(FirstFit::new()).build().unwrap();
        first.ingest(&events[..cut]).unwrap();
        let checkpoint = first.snapshot().unwrap();

        let mut resumed = Session::resume(&checkpoint).unwrap();
        prop_assert_eq!(resumed.metrics(), first.metrics());
        resumed.ingest(&events[cut..]).unwrap();
        prop_assert_eq!(resumed.finish().unwrap(), full);
    }

    /// The tick engine keeps no per-bin item lists; it rebuilds them
    /// from its placement log, both at `finish` and when an off-grid
    /// event promotes it to the exact engine. Ids that depart and
    /// re-arrive into another bin must land in every bin's list in
    /// placement order.
    #[test]
    fn promoted_tick_sessions_keep_reused_ids_in_order(
        ops in prop::collection::vec((0u32..6, 1i128..=8, 0i128..=2), 0..40),
        cut in 0usize..=40,
    ) {
        let events = reused_id_stream(&ops, cut);
        let exact_of = |algo: Box<dyn PackingAlgorithm>| {
            let mut s = Session::builder(algo).backend(Backend::Exact).build().unwrap();
            s.ingest(&events).unwrap();
            s.finish().unwrap()
        };
        let tick_of = |algo: Box<dyn PackingAlgorithm>| {
            let mut s = Session::builder(algo).grid(TickGrid::new(4, 8)).build().unwrap();
            for ev in &events {
                let off_grid = matches!(ev, Event::Arrive { id, .. } if *id == OFF_GRID_ID);
                if off_grid {
                    assert!(s.tick_active(), "on-grid prefix runs on the tick engine");
                }
                s.apply(ev).unwrap();
                if off_grid {
                    assert!(!s.tick_active(), "off-grid size promotes to exact");
                }
            }
            s.finish().unwrap()
        };
        prop_assert_eq!(tick_of(Box::new(FirstFit::new())), exact_of(Box::new(FirstFit::new())));
        prop_assert_eq!(tick_of(Box::new(BestFit::new())), exact_of(Box::new(BestFit::new())));
        prop_assert_eq!(tick_of(Box::new(WorstFit::new())), exact_of(Box::new(WorstFit::new())));
    }

    /// Live metrics agree with the finished outcome: after the last
    /// event, accrued usage equals the outcome's total usage and the
    /// bin tallies match.
    #[test]
    fn final_metrics_agree_with_outcome(inst in instance_strategy()) {
        let events = events_of(&inst);
        let mut session = Session::builder(BestFit::new()).build().unwrap();
        session.ingest(&events).unwrap();
        let metrics = session.metrics();
        let outcome = session.finish().unwrap();
        prop_assert_eq!(metrics.events as usize, events.len());
        prop_assert_eq!(metrics.arrivals as usize, inst.len());
        prop_assert_eq!(metrics.departures as usize, inst.len());
        prop_assert_eq!(metrics.bins_opened, outcome.bins().len());
        prop_assert_eq!(metrics.usage_time, outcome.total_usage());
        prop_assert_eq!(metrics.open_bins, 0);
        prop_assert_eq!(metrics.active_items, 0);
    }
}

// ---------------------------------------------------------------
// Typed rejection: every contract violation maps to a specific
// `SessionError`, and a rejected event never corrupts the session.
// ---------------------------------------------------------------

#[test]
fn rejects_departure_after_arrival_at_same_instant() {
    let mut session = Session::builder(FirstFit::new()).build().unwrap();
    session.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
    session.arrive(ItemId(1), rat(1, 4), rat(5, 1)).unwrap();
    // Departure at t=5 after an arrival at t=5: half-open intervals
    // require departures first, so this must be a typed rejection.
    let err = session.depart(ItemId(0), rat(5, 1)).unwrap_err();
    assert_eq!(err, SessionError::DepartureAfterArrival { time: rat(5, 1) });
    // The session is still usable: later departures proceed.
    session.depart(ItemId(0), rat(6, 1)).unwrap();
    session.depart(ItemId(1), rat(7, 1)).unwrap();
    let outcome = session.finish().unwrap();
    assert_eq!(outcome.assignments().len(), 2);
}

#[test]
fn rejects_sizes_outside_unit_interval() {
    let mut session = Session::builder(FirstFit::new()).build().unwrap();
    let zero = session.arrive(ItemId(0), rat(0, 1), rat(0, 1)).unwrap_err();
    assert_eq!(
        zero,
        SessionError::InvalidSize {
            id: ItemId(0),
            size: rat(0, 1)
        }
    );
    let over = session.arrive(ItemId(0), rat(3, 2), rat(0, 1)).unwrap_err();
    assert_eq!(
        over,
        SessionError::InvalidSize {
            id: ItemId(0),
            size: rat(3, 2)
        }
    );
    // Size exactly 1 is legal.
    session.arrive(ItemId(0), rat(1, 1), rat(0, 1)).unwrap();
}

#[test]
fn rejects_time_regression_and_unknown_departure_as_packing_errors() {
    let mut session = Session::builder(FirstFit::new()).build().unwrap();
    session.arrive(ItemId(0), rat(1, 2), rat(10, 1)).unwrap();
    let back = session.arrive(ItemId(1), rat(1, 2), rat(9, 1)).unwrap_err();
    assert!(matches!(back, SessionError::Packing(_)), "{back:?}");
    let ghost = session.depart(ItemId(7), rat(11, 1)).unwrap_err();
    assert!(matches!(ghost, SessionError::Packing(_)), "{ghost:?}");
}

#[test]
fn ingest_reports_the_failing_index_and_applies_the_prefix() {
    let events = vec![
        Event::Arrive {
            id: ItemId(0),
            size: rat(1, 2),
            time: rat(0, 1),
        },
        Event::Arrive {
            id: ItemId(1),
            size: rat(5, 2), // invalid size: rejected at index 1
            time: rat(1, 1),
        },
        Event::Depart {
            id: ItemId(0),
            time: rat(2, 1),
        },
    ];
    let mut session = Session::builder(FirstFit::new()).build().unwrap();
    let err = session.ingest(&events).unwrap_err();
    assert_eq!(err.index, 1);
    assert!(matches!(err.error, SessionError::InvalidSize { .. }));
    // Events before the failing index were applied; nothing after.
    let metrics = session.metrics();
    assert_eq!(metrics.events, 1);
    assert!(session.is_active(ItemId(0)));
}

#[test]
fn snapshot_without_checkpoints_is_a_typed_error() {
    let mut session = Session::builder(FirstFit::new())
        .without_checkpoints()
        .build()
        .unwrap();
    session.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
    assert_eq!(
        session.snapshot().unwrap_err(),
        SessionError::CheckpointsDisabled
    );
}

#[test]
fn resume_rejects_unknown_and_mismatched_algorithms() {
    let snapshot = SessionSnapshot {
        algorithm: "NoSuchFit".to_string(),
        backend: Backend::Auto,
        grid: None,
        telemetry: false,
        events: Vec::new(),
    };
    assert_eq!(
        Session::resume(&snapshot).unwrap_err(),
        SessionError::UnknownAlgorithm("NoSuchFit".to_string())
    );
    assert_eq!(
        Session::resume_with(&snapshot, Box::new(FirstFit::new())).unwrap_err(),
        SessionError::AlgorithmMismatch {
            expected: "NoSuchFit".to_string(),
            got: "FirstFit".to_string(),
        }
    );
}

#[test]
fn strict_tick_sessions_reject_off_grid_events() {
    let mut session = Session::builder(FirstFit::new())
        .backend(Backend::Tick)
        .grid(TickGrid::new(1, 4))
        .build()
        .unwrap();
    session.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
    let err = session.arrive(ItemId(1), rat(1, 3), rat(1, 1)).unwrap_err();
    assert_eq!(
        err,
        SessionError::OffGrid {
            what: "size",
            value: rat(1, 3)
        }
    );
}

#[test]
fn equal_time_burst_streams_like_batch() {
    // Dense tie at t=1: two departures then three arrivals, all at
    // the same instant — the canonical order the batch engine uses.
    let inst = Instance::builder()
        .item(rat(1, 2), rat(0, 1), rat(1, 1))
        .item(rat(1, 2), rat(0, 1), rat(1, 1))
        .item(rat(1, 2), rat(1, 1), rat(2, 1))
        .item(rat(1, 2), rat(1, 1), rat(2, 1))
        .item(rat(1, 2), rat(1, 1), rat(2, 1))
        .build()
        .unwrap();
    let batch = Runner::new(&inst)
        .backend(Backend::Exact)
        .run(&mut FirstFit::new())
        .unwrap();
    let streamed = stream(&events_of(&inst), || {
        Session::builder(FirstFit::new()).build()
    });
    assert_eq!(streamed, batch);
}
