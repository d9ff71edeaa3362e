//! The acceptance-criterion concurrency test: 64 parallel submissions of
//! the same program execute the pipeline exactly once.

use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

use dahlia_server::{Artifact, Key, Request, Server, Stage, Store};

const SRC: &str = "let A: float[64 bank 8];\nlet B: float[64 bank 8];\n\
                   for (let i = 0..64) unroll 8 { B[i] := A[i] * 2.0; }";

#[test]
fn sixty_four_way_submission_executes_once() {
    // A compute delay widens the in-flight window so every thread truly
    // overlaps: this pins single-flight joining, not just caching.
    let server = Arc::new(Server::with_compute_delay(4, Duration::from_millis(60)));
    let barrier = Arc::new(Barrier::new(64));

    let responses: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..64)
            .map(|i| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    server.submit(Request::new(format!("r{i}"), Stage::Estimate, SRC, "scale"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(responses.iter().all(|r| r.ok()));
    let est = responses[0].estimate().expect("estimate payload");
    assert!(est.correct);
    // Everyone got the same artifact.
    for r in &responses {
        assert_eq!(r.estimate(), Some(est));
    }

    let stats = server.stats();
    assert_eq!(stats.requests, 64);
    // THE claim: each pipeline stage ran exactly once.
    assert_eq!(
        stats.store.executions[Stage::Parse.index()],
        1,
        "parse ran once"
    );
    assert_eq!(
        stats.store.executions[Stage::Check.index()],
        1,
        "check ran once"
    );
    assert_eq!(
        stats.store.executions[Stage::Lower.index()],
        1,
        "lower ran once"
    );
    assert_eq!(
        stats.store.executions[Stage::Estimate.index()],
        1,
        "estimate ran once"
    );
    assert_eq!(stats.store.total_executions(), 4);
    // With the barrier + compute delay, the 63 non-leaders overlapped the
    // computation rather than arriving after it finished.
    assert!(
        stats.store.joins >= 32,
        "expected most submissions to join the in-flight computation, joins = {}",
        stats.store.joins
    );
    // And every non-leader response is marked served-from-cache.
    assert_eq!(responses.iter().filter(|r| r.cached).count(), 63);
}

#[test]
fn batch_api_dedups_the_same_way() {
    let server = Server::with_compute_delay(8, Duration::from_millis(20));
    let reqs: Vec<Request> = (0..64)
        .map(|i| Request::new(format!("b{i}"), Stage::Estimate, SRC, "scale"))
        .collect();
    let responses = server.submit_batch(reqs);
    assert_eq!(responses.len(), 64);
    assert!(responses.iter().all(|r| r.ok()));
    // Request order is preserved.
    assert_eq!(responses[17].id, "b17");
    let stats = server.stats();
    assert_eq!(
        stats.store.total_executions(),
        4,
        "one pipeline for 64 batch items"
    );
}

#[test]
fn concurrent_distinct_programs_do_not_serialize() {
    // 8 distinct programs in one batch: single-flight must not collapse
    // distinct keys, so every program runs its own 4 stages.
    let server = Server::with_threads(8);
    let reqs: Vec<Request> = (0..8)
        .map(|i| {
            let trips = 16 * (i + 1);
            Request::new(
                format!("p{i}"),
                Stage::Estimate,
                format!("let A: float[{trips}];\nfor (let i = 0..{trips}) {{ A[i] := 1.0; }}"),
                "k",
            )
        })
        .collect();
    let responses = server.submit_batch(reqs);
    assert!(responses.iter().all(|r| r.ok()));
    assert_eq!(
        server.stats().store.total_executions(),
        32,
        "8 programs × 4 stages"
    );

    // Distinct keys compute at the same time: eight `get_or_compute`
    // closures on eight threads meet at a rendezvous, each waiting until
    // all eight are computing at once, which a store that serialized
    // distinct keys never reaches. The timeout fails the test instead
    // of hanging it.
    let store = Store::new();
    let meet = (Mutex::new(0usize), Condvar::new());
    let met: Vec<bool> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..8u128)
            .map(|source| {
                let (store, meet) = (&store, &meet);
                s.spawn(move || {
                    let key = Key {
                        source,
                        stage: Stage::Parse,
                        options: 0,
                    };
                    let mut met = false;
                    let _ = store.get_or_compute(key, || {
                        let (computing, all_in) = meet;
                        let mut n = computing.lock().unwrap();
                        *n += 1;
                        all_in.notify_all();
                        let wait = Duration::from_secs(30);
                        let timeout = all_in.wait_timeout_while(n, wait, |n| *n < 8).unwrap().1;
                        met = !timeout.timed_out();
                        Ok(Artifact::Cpp(Arc::new(String::new())))
                    });
                    met
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    assert!(
        met.into_iter().all(|m| m),
        "eight computations never ran at once"
    );
}
