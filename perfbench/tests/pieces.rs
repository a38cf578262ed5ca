//! Tests of the benchmark's own pieces: the percentile rule, self time
//! from nested spans, seeded input generation, and the metric lists
//! against `BENCHMARK.json`.

use perfbench::seed;
use perfbench::stats::{self, has_enough_beyond, tail_percentile};
use perfbench::trace::{covered_ns, self_times, Span};

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert!(has_enough_beyond(1000, 99.0));
    assert!(!has_enough_beyond(999, 99.0));
    assert_eq!(tail_percentile(999), Some(95.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(19), None);

    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let (p99, p) = stats::tail(&samples);
    assert_eq!(p, 99.0);
    assert_eq!(samples.iter().filter(|s| **s > p99).count(), 10);
    assert_eq!(stats::median(&samples), 500.0);
}

#[test]
fn tail_of_few_samples_is_their_max() {
    assert_eq!(stats::tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
}

#[test]
fn interquartile_mean_averages_the_middle_half() {
    // The cold first sample and the lowest one fall outside the middle half.
    let samples = [40.0, 5.0, 7.0, 5.0, 7.0, 1.0, 5.0, 7.0];
    assert_eq!(stats::interquartile_mean(&samples), 6.0);
    assert_eq!(stats::interquartile_mean(&[2.0]), 2.0);
    assert_eq!(stats::interquartile_mean(&[]), 0.0);
}

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>, leaf_ns: u64) -> Span {
    Span {
        name: "s",
        start_ns,
        end_ns,
        parent,
        request: 1,
        leaf_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_and_leaves() {
    let spans = vec![
        span(0, 100, None, 5),
        // Two overlapping children cover 10..60, one sticks out past the end.
        span(10, 40, Some(0), 0),
        span(30, 60, Some(0), 0),
        span(90, 120, Some(0), 0),
        // A grandchild counts against its own parent only.
        span(12, 20, Some(1), 3),
    ];
    let own = self_times(&spans);
    assert_eq!(own[0], 100 - 50 - 10 - 5);
    assert_eq!(own[1], 30 - 8);
    assert_eq!(own[2], 30);
    assert_eq!(own[3], 30);
    assert_eq!(own[4], 8 - 3);
}

#[test]
fn covered_time_merges_and_clips() {
    assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
    assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30)], 8, 25), 12);
    assert_eq!(covered_ns(vec![], 0, 10), 0);
}

#[test]
fn the_seed_changes_the_inputs_and_reproduces_them() {
    assert_eq!(seed::values(7, "tiny", 64), seed::values(7, "tiny", 64));
    assert_ne!(seed::values(7, "tiny", 64), seed::values(8, "tiny", 64));
    assert_ne!(seed::values(7, "tiny", 64), seed::values(7, "session", 64));
    assert_eq!(
        seed::poisson_schedule(7, "arrivals", 100.0, 1000),
        seed::poisson_schedule(7, "arrivals", 100.0, 1000)
    );
    assert_ne!(
        seed::poisson_schedule(7, "arrivals", 100.0, 1000),
        seed::poisson_schedule(8, "arrivals", 100.0, 1000)
    );

    // The program's own input generators, fed the derived seed.
    use stats_workloads::dag::windowed_join::inputs;
    let events = |s: u64| inputs(seed::derive(s, "windowed_join"), 3, 48, 24);
    assert_eq!(events(1), events(1));
    assert_ne!(events(1), events(2));
}

#[test]
fn schedule_rate_matches_its_mean() {
    let due = seed::poisson_schedule(3, "arrivals", 200.0, 20_000);
    let rate = due.len() as f64 / due.last().copied().unwrap_or(1.0);
    assert!((rate - 200.0).abs() < 10.0, "rate {rate}");
}

/// Names listed between `"key": [` and the matching `]` of BENCHMARK.json.
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let end = body.find(']').expect("list closes");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("name value").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e: Vec<&str> = perfbench::END_TO_END.iter().map(|(n, _)| *n).collect();
    let layers: Vec<&str> = perfbench::PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&json, "workloads"), perfbench::WORKLOADS);
    assert_eq!(names(&json, "end_to_end"), e2e);
    assert_eq!(names(&json, "per_layer"), layers);
}
