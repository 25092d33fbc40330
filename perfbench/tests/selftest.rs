//! The benchmark's self-test: a tiny-size run of every workload emits every
//! metric `BENCHMARK.json` names, with its unit, passes every check, and
//! simulates the same report twice for the same seed.

use std::path::Path;

use albatross_perfbench::report::Outcome;
use albatross_perfbench::run::{run_e2e, run_traced};
use albatross_perfbench::workloads::{Scenario, Size, Workload};
use albatross_testkit::alloc::CountingAllocator;

// The traced run reads the allocation counters, as in the traced binary.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Time budget of a tiny run: a run always makes at least a few rounds.
const SECONDS: f64 = 0.01;

fn tiny(workload: Workload, seed: u64) -> Scenario {
    Scenario {
        workload,
        size: Size::Tiny,
        seed,
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("no {list} list"));
    let section = &text[start..];
    let section = &section[..section.find(']').expect("list closes")];
    let names = string_values(section, "name");
    let units = string_values(section, "unit");
    assert_eq!(names.len(), units.len(), "every {list} metric has a unit");
    names.into_iter().zip(units).collect()
}

/// Values of every `"key": "value"` pair in `text`, in order.
fn string_values(text: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = text[i + pat.len()..].trim_start();
            let rest = rest.strip_prefix(':').expect("key is followed by a colon");
            let rest = rest.trim_start().strip_prefix('"').expect("string value");
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

fn emitted(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn assert_clean(o: &Outcome, what: &str) {
    assert!(o.correct, "{what}: a check failed");
    assert!(o.attempted > 0, "{what}: nothing simulated");
    assert_eq!(o.failed, 0, "{what}: failed packets");
    assert!(
        o.metrics.iter().all(|m| m.value.is_finite()),
        "{what}: non-finite metric"
    );
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let e2e = listed("end_to_end");
    let layers = listed("per_layer");
    assert_eq!(e2e.len(), 4);
    for w in Workload::ALL {
        let s = tiny(w, 7);
        let o = run_e2e(&s, SECONDS).expect("end-to-end run");
        assert_clean(&o, w.name());
        assert_eq!(emitted(&o), e2e, "{}: end-to-end metrics", w.name());
        let ratio = o.metric("check_pass_ratio").expect("emitted").value;
        assert_eq!(ratio, 1.0, "{}: check_pass_ratio", w.name());
        for name in ["sim_pkts_per_s", "setup_s", "peak_rss_mb"] {
            assert!(
                o.metric(name).expect("emitted").value > 0.0,
                "{name} is never 0"
            );
        }

        let t = run_traced(&s, SECONDS, None).expect("traced run");
        assert_clean(&t, w.name());
        assert_eq!(emitted(&t), layers, "{}: per-layer metrics", w.name());
        let calls = |layer: &str| t.metric(&format!("{layer}.calls_per_pkt")).unwrap().value;
        for layer in [
            "workload.next_packet",
            "container.run",
            "sim.engine",
            "gateway.services",
        ] {
            assert!(calls(layer) > 0.0, "{}: {layer} never ran", w.name());
        }
        let runs = |layer: &str| calls(layer) > 0.0;
        assert_eq!(runs("core.ratelimit"), w == Workload::LimiterOverload);
        assert_eq!(runs("gateway.flowstate"), w == Workload::CpsChurn);
        assert_eq!(runs("fpga.tier"), w == Workload::TiersZipf);
    }
}

#[test]
fn same_seed_runs_produce_identical_reports() {
    for w in Workload::ALL {
        let a = run_e2e(&tiny(w, 3), SECONDS).expect("first run");
        let b = run_e2e(&tiny(w, 3), SECONDS).expect("second run");
        assert_eq!(a.fingerprint, b.fingerprint, "{}: same seed", w.name());
        let c = run_e2e(&tiny(w, 4), SECONDS).expect("other seed");
        assert_ne!(
            a.fingerprint,
            c.fingerprint,
            "{}: the seed changes the input",
            w.name()
        );
    }
}
