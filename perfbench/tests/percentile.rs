//! The tail-percentile helper at every sample count the workloads
//! produce: the timed metrics rank one fastest reply per position of the
//! pass order, so a run's sample count is its pass length.

use perfbench::plan::{plan, Workload};
use perfbench::stats::{median, mid_mean, tail, TAIL_BEYOND, TAIL_LADDER};

#[test]
fn tail_leaves_ten_samples_beyond_at_every_workload_sample_count() {
    for w in Workload::ALL {
        let n = plan(w, 1).order.len();
        // distinct values, shuffled order, so the rank is observable
        let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
        let t = tail(&values).expect("enough samples");
        assert_eq!(t.samples, n);
        assert!(t.beyond >= TAIL_BEYOND, "{}: {n} samples", w.name());
        assert!(t.percentile >= 75.0, "{}: only p{}", w.name(), t.percentile);
        let above = values.iter().filter(|v| **v > t.value).count();
        assert_eq!(above, t.beyond, "{}: {n} samples", w.name());
        // the next percentile up the ladder would leave fewer
        let step = TAIL_LADDER
            .iter()
            .position(|pm| *pm as f64 / 10.0 == t.percentile);
        match step {
            Some(0) => {}
            Some(i) => {
                let higher = (TAIL_LADDER[i - 1] * n).div_ceil(1000);
                assert!(
                    n - higher < TAIL_BEYOND,
                    "{n} samples: p{} fits",
                    TAIL_LADDER[i - 1]
                );
            }
            None => panic!("{}: p{} is off the ladder", w.name(), t.percentile),
        }
        let text = t.describe();
        assert!(text.starts_with('p'), "{text}");
        assert!(text.contains(&format!("of {n} samples")), "{text}");
    }
}

#[test]
fn tail_needs_more_than_ten_samples() {
    for n in 0..=TAIL_BEYOND {
        assert_eq!(tail(&vec![1.0; n]), None);
    }
    let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>()).unwrap();
    assert_eq!((t.value, t.beyond), (0.0, 10));
    let t = tail(&(0..2520).map(f64::from).collect::<Vec<_>>()).unwrap();
    assert_eq!((t.percentile, t.beyond), (99.0, 25));
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn mid_mean_averages_the_middle_fifth() {
    assert_eq!(mid_mean(&[]), None);
    assert_eq!(mid_mean(&[5.0]), Some(5.0));
    assert_eq!(mid_mean(&[4.0, 1.0]), Some(2.5));
    // ranks 40..=61 of 1..=100: symmetric around the median
    let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(mid_mean(&v), Some(50.5));
    // two equal clusters: the middle fifth takes as many of each
    let mut v = vec![1.0; 50];
    v.extend([9.0; 50]);
    v.reverse();
    assert_eq!(mid_mean(&v), Some(5.0));
    // one slow outlier past the middle does not move it
    let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
    v[98] = 1e9;
    assert_eq!(mid_mean(&v), Some(50.0));
}
