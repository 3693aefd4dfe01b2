//! `FcfsStation::submit_block` against per-job `submit`: block splits,
//! scalar/block interleaving, tied arrivals, zero services and queues
//! long enough to span many blocks must never change a bit of the
//! departures or the station state.

use memlat_des::FcfsStation;
use proptest::prelude::*;

/// Builds a time-ordered job stream from raw draws: about a third of the
/// gaps are zero (a batch of tied arrivals), about a quarter of the
/// services are zero, and `load` sets the mean service against the mean
/// gap (above 1 the queue grows without bound).
fn jobs(raw: &[(u8, f64, u8, f64)], load: f64) -> (Vec<f64>, Vec<f64>) {
    let mut t = 0.0;
    let mut arrivals = Vec::with_capacity(raw.len());
    let mut services = Vec::with_capacity(raw.len());
    for &(gap_kind, gap, svc_kind, svc) in raw {
        if gap_kind % 3 != 0 {
            // Mean gap 1/3 over all jobs: a third are zero, the rest
            // uniform on [0, 1).
            t += gap;
        }
        arrivals.push(t);
        services.push(if svc_kind % 4 == 0 {
            0.0
        } else {
            // Mean service `load / 3` over all jobs: a quarter are zero,
            // the rest uniform with mean `4·load/9`.
            svc * load * 8.0 / 9.0
        });
    }
    (arrivals, services)
}

fn assert_same_state(a: &FcfsStation, b: &FcfsStation) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.busy_time().to_bits(), b.busy_time().to_bits());
    prop_assert_eq!(a.busy_until().to_bits(), b.busy_until().to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every split of the stream into block and scalar calls leaves the
    /// departures and the station state after each call bit-identical
    /// to per-job submits.
    #[test]
    fn block_and_scalar_submits_agree(
        raw in proptest::collection::vec((0u8..6, 0.0f64..1.0, 0u8..8, 0.0f64..1.0), 1..3000),
        load in 0.2f64..2.0,
        splits in proptest::collection::vec((0u8..3, 1usize..8), 1..64),
        big_blocks in 0u8..2,
    ) {
        let (arrivals, services) = jobs(&raw, load);
        let n = arrivals.len();
        let mut scalar = FcfsStation::new();
        let mut mixed = FcfsStation::new();
        let mut expected = vec![0.0; n];
        let mut got = vec![0.0; n];
        let mut at = 0usize;
        let mut step = 0usize;
        while at < n {
            let (kind, small) = splits[step % splits.len()];
            step += 1;
            let len = if big_blocks == 1 { 1024 } else { small }.min(n - at);
            let span = at..at + len;
            for i in span.clone() {
                expected[i] = scalar.submit(arrivals[i], services[i]).departure;
            }
            if kind == 0 {
                // A scalar stretch between blocks on the same station.
                for i in span.clone() {
                    got[i] = mixed.submit(arrivals[i], services[i]).departure;
                }
            } else {
                mixed.submit_block(&arrivals[span.clone()], &services[span.clone()], &mut got[span.clone()]);
            }
            for i in span {
                prop_assert_eq!(expected[i].to_bits(), got[i].to_bits(), "job {}", i);
            }
            assert_same_state(&scalar, &mixed)?;
            at += len;
        }
    }

    /// A stream cut into two blocks equals per-job submits: the second
    /// block continues from the first's carried departure exactly.
    #[test]
    fn whole_block_then_block_reads_the_carry(
        raw in proptest::collection::vec((0u8..6, 0.0f64..1.0, 0u8..8, 0.0f64..1.0), 2..2000),
        load in 0.5f64..2.0,
        cut in 1usize..2000,
    ) {
        let (arrivals, services) = jobs(&raw, load);
        let n = arrivals.len();
        let cut = cut.min(n - 1);
        let mut scalar = FcfsStation::new();
        let expected: Vec<f64> = arrivals
            .iter()
            .zip(&services)
            .map(|(&a, &s)| scalar.submit(a, s).departure)
            .collect();
        let mut blocked = FcfsStation::new();
        let mut got = vec![0.0; n];
        let (head, tail) = got.split_at_mut(cut);
        blocked.submit_block(&arrivals[..cut], &services[..cut], head);
        blocked.submit_block(&arrivals[cut..], &services[cut..], tail);
        for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
            prop_assert_eq!(e.to_bits(), g.to_bits(), "job {}", i);
        }
        assert_same_state(&scalar, &blocked)?;
    }
}

#[test]
fn batch_of_tied_zero_service_jobs_departs_at_arrival() {
    // Five jobs tied at t = 1 with no service on an idle server: each
    // departs at its arrival, on the block path as on the scalar one.
    let mut scalar = FcfsStation::new();
    let want: Vec<f64> = (0..5).map(|_| scalar.submit(1.0, 0.0).departure).collect();
    let mut blocked = FcfsStation::new();
    let mut d = [0.0; 5];
    blocked.submit_block(&[1.0; 5], &[0.0; 5], &mut d);
    assert_eq!(d, [1.0; 5]);
    assert_eq!(want, d);
    assert_eq!(blocked.busy_until(), 1.0);
    assert_eq!(blocked.busy_time(), 0.0);
    // A tied batch behind a busy server waits for it, then passes
    // through at its departure.
    let mut busy = FcfsStation::new();
    let mut d = [0.0; 4];
    busy.submit_block(&[0.0, 0.5, 0.5, 0.5], &[1.0, 0.0, 0.0, 0.0], &mut d);
    assert_eq!(d, [1.0; 4]);
    assert_eq!(busy.busy_until(), 1.0);
}
