//! Fault-tolerance machinery of the fleet front: compacted update
//! history, catch-up of respawned replicas, the per-backend circuit
//! breaker, and deadline budgets that bound failover.
//!
//! Some tests drive the process-global failpoint registry
//! (`flowistry-fault`); every test takes one lock so no concurrently
//! running test in this binary sees another's injected faults.

use flowistry_engine::{QueryRequest, QueryResponse};
use flowistry_fault::sites;
use flowistry_obs::Registry;
use flowistry_router::{BackendLauncher, FlowRouter, InProcessLauncher, RouterConfig};
use flowistry_server::FlowClient;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    FAILPOINT_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const TOKEN: &str = "fleet-secret";

fn version(v: usize, pad: usize) -> String {
    let mut src = format!("fn f(p: &mut i32, x: i32) -> i32 {{ *p = x + {v}; return x; }}\n");
    for i in 0..pad {
        src.push_str(&format!("fn pad{i}(x: i32) -> i32 {{ return x + {i}; }}\n"));
    }
    src
}

fn fleet(backends: usize, config: RouterConfig) -> (FlowRouter, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let launchers: Vec<Box<dyn BackendLauncher>> = (0..backends)
        .map(|_| {
            Box::new(InProcessLauncher {
                source: version(0, 0),
                workers: 1,
                cache_dir: None,
                auth_token: Some(TOKEN.to_string()),
            }) as Box<dyn BackendLauncher>
        })
        .collect();
    let router = FlowRouter::start(
        launchers,
        "127.0.0.1:0",
        config
            .with_backend_auth_token(TOKEN)
            .with_max_connections(8)
            .with_registry(registry.clone()),
    )
    .expect("start fleet");
    (router, registry)
}

fn gauge(registry: &Registry, series: &str) -> f64 {
    registry
        .render_prometheus()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("series {series} missing from scrape"))
}

/// The router retains only the latest update source: after N updates the
/// `flow_router_history_bytes` gauge reports the size of update N alone,
/// not the sum of every version ever broadcast.
#[test]
fn update_history_is_compacted_to_the_latest_source() {
    let _guard = lock();
    let (router, registry) = fleet(2, RouterConfig::default());
    let mut client = FlowClient::connect(router.local_addr()).expect("connect");

    // Three updates with very different sizes; the padded middle one
    // would dominate an accumulating history.
    let sources = [version(1, 40), version(2, 200), version(3, 5)];
    for (i, source) in sources.iter().enumerate() {
        let epoch = client.update(source).expect("update");
        assert_eq!(epoch, i as u64 + 1);
    }
    let retained = gauge(&registry, "flow_router_history_bytes");
    assert_eq!(
        retained as usize,
        sources[2].len(),
        "history must hold the latest source only"
    );
    assert!(
        (retained as usize) < sources.iter().map(String::len).sum::<usize>(),
        "history grew like an accumulating log"
    );

    // And the fleet serves the newest version.
    let envelope = client.query(&QueryRequest::Stats).expect("stats");
    assert_eq!(envelope.epoch, 3);
}

/// A replica killed after updates is caught up by the supervisor from the
/// compacted history: one pinned update fast-forwards it to the fleet
/// epoch, and every backend serves that epoch afterwards.
#[test]
fn respawned_backend_catches_up_from_the_compacted_history() {
    let _guard = lock();
    let (router, registry) = fleet(
        2,
        RouterConfig::default()
            .with_health_interval(Duration::from_millis(50))
            .with_failure_threshold(2),
    );
    let mut client = FlowClient::connect(router.local_addr()).expect("connect");
    for v in 1..=2 {
        let epoch = client.update(&version(v, 10)).expect("update");
        assert_eq!(epoch, v as u64);
    }

    router.kill_backend(0);
    let deadline = Instant::now() + Duration::from_secs(30);
    while gauge(
        &registry,
        "flow_router_backend_respawns_total{backend=\"0\"}",
    ) < 1.0
    {
        assert!(Instant::now() < deadline, "backend 0 was never respawned");
        std::thread::sleep(Duration::from_millis(25));
    }
    while !router.backend_healthy(0) {
        assert!(Instant::now() < deadline, "backend 0 never turned healthy");
        std::thread::sleep(Duration::from_millis(25));
    }

    // Stats queries spread round-robin, so a handful hits both replicas;
    // every response must come from the caught-up epoch.
    for _ in 0..8 {
        let envelope = client.query(&QueryRequest::Stats).expect("stats");
        assert_eq!(envelope.epoch, 2, "a replica still serves a stale epoch");
    }
}

/// Consecutive injected send failures open the backend's circuit (requests
/// fail fast, state gauge reads 1); after the cooldown one half-open probe
/// closes it again and traffic resumes.
#[test]
fn circuit_breaker_opens_on_send_failures_and_recloses_after_cooldown() {
    let _guard = lock();
    let (router, registry) = fleet(
        1,
        RouterConfig::default()
            // Keep the supervisor out of the way: the breaker, not a
            // respawn, must be what restores service here.
            .with_health_interval(Duration::from_secs(120)),
    );
    let mut client = FlowClient::connect(router.local_addr()).expect("connect");
    let envelope = client.query(&QueryRequest::Stats).expect("warm-up");
    assert!(!matches!(envelope.response, QueryResponse::Error(_)));

    flowistry_fault::configure(&format!("{}=err:1.0:7", sites::BACKEND_SEND)).unwrap();
    // Each query's send fails; after the threshold the breaker opens.
    for _ in 0..6 {
        let envelope = client.query(&QueryRequest::Stats).expect("round-trip");
        assert!(
            matches!(envelope.response, QueryResponse::Error(_)),
            "sends are failing, responses must be structured errors"
        );
    }
    assert_eq!(router.backend_breaker_state(0), 1, "breaker must be open");
    assert_eq!(gauge(&registry, "flow_breaker_state{backend=\"0\"}"), 1.0);
    flowistry_fault::clear();

    // While open (cooldown default 500ms), requests fail fast without
    // touching the backend.
    let envelope = client.query(&QueryRequest::Stats).expect("fast-fail");
    assert!(matches!(envelope.response, QueryResponse::Error(_)));

    // After the cooldown, the half-open probe goes through, succeeds, and
    // recloses the breaker.
    std::thread::sleep(Duration::from_millis(600));
    let envelope = client.query(&QueryRequest::Stats).expect("probe");
    assert!(
        !matches!(envelope.response, QueryResponse::Error(_)),
        "half-open probe should have served: {:?}",
        envelope.response
    );
    assert_eq!(router.backend_breaker_state(0), 0, "breaker must reclose");
}

/// A request with a `deadline=` budget never waits past it: with every
/// job start delayed beyond the budget, the router answers `error
/// deadline exceeded` within the budget (plus scheduling slack), and the
/// deadline counter ticks.
#[test]
fn deadline_budget_bounds_the_wait_and_sheds_structured_errors() {
    let _guard = lock();
    let (router, registry) = fleet(1, RouterConfig::default());
    let mut client = FlowClient::connect(router.local_addr()).expect("connect");

    // Untraced and traced: a router-made error echoes the request's id.
    for trace_id in [None, Some("deadline-tid")] {
        flowistry_fault::configure(&format!("{}=delay(200):1.0", sites::SCHEDULER_JOB_START))
            .unwrap();
        let started = Instant::now();
        client
            .submit_with(&QueryRequest::Stats, trace_id, Some(20))
            .expect("submit");
        let envelope = client.recv().expect("recv");
        let waited = started.elapsed();
        flowistry_fault::clear();

        match &envelope.response {
            QueryResponse::Error(msg) => {
                assert!(
                    msg.contains("deadline exceeded"),
                    "unexpected error {msg:?}"
                )
            }
            other => panic!("expected a deadline error, got {other:?}"),
        }
        assert_eq!(envelope.trace_id.as_deref(), trace_id);
        assert!(
            waited < Duration::from_millis(150),
            "the 20ms budget leaked into a {waited:?} wait"
        );
        assert!(gauge(&registry, "flow_deadline_exceeded_total") >= 1.0);

        // The delayed response drains harmlessly; the connection still works.
        std::thread::sleep(Duration::from_millis(250));
        let envelope = client.query(&QueryRequest::Stats).expect("after");
        assert!(!matches!(envelope.response, QueryResponse::Error(_)));
    }
}
