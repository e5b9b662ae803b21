//! Property checks on the program's outputs.
//!
//! Every check tests a property the method must have, never a stored
//! copy of an earlier output, and returns `Err` with a one-line reason
//! when the property fails. The functions take plain values so the
//! tests below can feed them doctored inputs.

use semcluster::serve::{LoadSummary, ServeReport};
use semcluster::RunReport;

/// Little's law on the closed queueing network: `users` interactive
/// users alternate think time and response time, so the measured
/// throughput times the mean cycle time must equal the user count.
///
/// The tolerance covers the sampling error of the mean cycle time (the
/// think times are exponential, so their sample mean over `n`
/// transactions has relative deviation `1/sqrt(n)`; five of those
/// allow for the response-time variance too) plus the partial cycles
/// each user leaves at both ends of the measured span.
pub fn littles_law(report: &RunReport, users: u32, think_s: f64) -> Result<(), String> {
    let n = report.txns;
    if n == 0 || report.measured_span_s <= 0.0 {
        return Err(format!(
            "little: empty measurement ({n} txns over {} s)",
            report.measured_span_s
        ));
    }
    let throughput = n as f64 / report.measured_span_s;
    let estimate = throughput * (report.mean_response_s + think_s);
    let users = f64::from(users);
    let tolerance = 5.0 / (n as f64).sqrt() + 2.0 * users / n as f64;
    let error = (estimate - users).abs() / users;
    if error > tolerance {
        return Err(format!(
            "little: X*(R+Z) = {estimate:.4} users, expected {users} \
             (relative error {error:.4} > tolerance {tolerance:.4})"
        ));
    }
    Ok(())
}

/// The response-time attribution partitions every measured microsecond
/// into exactly one component: the components sum to the total.
pub fn attribution_residual(report: &RunReport) -> Result<(), String> {
    let attributed = report.span_totals.total_us();
    if attributed != report.response_us_total {
        return Err(format!(
            "attribution: components sum to {attributed} us, response total is {} us \
             (residual {})",
            report.response_us_total,
            report.response_us_total as i128 - attributed as i128
        ));
    }
    Ok(())
}

/// One page as the placement check sees it.
pub struct PageView<'a> {
    /// Usable bytes.
    pub capacity: u32,
    /// Bytes the page says it uses.
    pub used: u32,
    /// Resident `(object id, size)` slots.
    pub objects: &'a [(u32, u32)],
}

/// Every object `0..object_count` is on exactly one page, and no page
/// holds more bytes than its capacity (nor disagrees with its own
/// slots about how many it holds).
pub fn placement<'a>(
    object_count: usize,
    pages: impl IntoIterator<Item = PageView<'a>>,
) -> Result<(), String> {
    let mut seen = vec![0u8; object_count];
    for (p, page) in pages.into_iter().enumerate() {
        let bytes: u64 = page.objects.iter().map(|&(_, s)| u64::from(s)).sum();
        if bytes != u64::from(page.used) {
            return Err(format!(
                "placement: page {p} says it uses {} bytes, its slots hold {bytes}",
                page.used
            ));
        }
        if page.used > page.capacity {
            return Err(format!(
                "placement: page {p} holds {} bytes, capacity {}",
                page.used, page.capacity
            ));
        }
        for &(object, _) in page.objects {
            let Some(count) = seen.get_mut(object as usize) else {
                return Err(format!(
                    "placement: page {p} holds object {object}, outside 0..{object_count}"
                ));
            };
            *count = count.saturating_add(1);
            if *count > 1 {
                return Err(format!(
                    "placement: object {object} is on more than one page"
                ));
            }
        }
    }
    if let Some(missing) = seen.iter().position(|&c| c == 0) {
        return Err(format!("placement: object {missing} is on no page"));
    }
    Ok(())
}

/// A traced run must report exactly what the untraced run reports:
/// observation is not allowed to change the simulation.
pub fn reports_equal(untraced: &RunReport, traced: &RunReport) -> Result<(), String> {
    let (a, b) = (format!("{untraced:?}"), format!("{traced:?}"));
    if a != b {
        return Err(format!(
            "trace: the traced run's report differs from the untraced one's \
             ({} txns, {} s mean response vs {} txns, {} s)",
            untraced.txns, untraced.mean_response_s, traced.txns, traced.mean_response_s
        ));
    }
    Ok(())
}

/// Every acknowledged commit must be a winner of recovery on the real
/// files; `winners` is sorted ascending, as recovery returns it.
pub fn acked_are_winners(acked: &[u64], winners: &[u64]) -> Result<(), String> {
    match acked.iter().find(|t| winners.binary_search(t).is_err()) {
        Some(t) => Err(format!(
            "durability: acknowledged commit {t} is not a recovery winner ({} of {} acked missing)",
            acked
                .iter()
                .filter(|t| winners.binary_search(t).is_err())
                .count(),
            acked.len()
        )),
        None => Ok(()),
    }
}

/// The client's view of a closed-loop load and the server's final
/// report must agree, and the server must have drained cleanly with no
/// ACID violation.
///
/// * every attempted transaction ends as exactly one of: acked, a
///   typed rejection, or lost;
/// * the client's acked count equals the server's TxnOk count (the
///   report's own `acked` field counts only write transactions, whose
///   ack waits for the commit force), and each typed rejection count
///   equals the server's error counter of that type.
pub fn serve_accounting(client: &LoadSummary, server: &ServeReport) -> Result<(), String> {
    let outcomes = client.acked
        + client.rejected_overloaded
        + client.rejected_deadline
        + client.rejected_shutdown
        + client.rejected_retry
        + client.rejected_malformed
        + client.lost;
    if outcomes != client.attempted {
        return Err(format!(
            "serve: attempted {} != acked + typed rejections + lost = {outcomes}",
            client.attempted
        ));
    }
    let pairs = [
        ("acked", client.acked, server.stats.counter("txn_ok")),
        ("overloaded", client.rejected_overloaded, server.sheds),
        ("deadline", client.rejected_deadline, server.deadline_misses),
        (
            "retry-exhausted",
            client.rejected_retry,
            server.retry_exhausted,
        ),
        (
            "shutting-down",
            client.rejected_shutdown,
            server.shutdown_rejected,
        ),
    ];
    for (what, c, s) in pairs {
        if c != s {
            return Err(format!("serve: client counted {c} {what}, server {s}"));
        }
    }
    if server.acid_violations != 0 {
        return Err(format!(
            "serve: {} acknowledged transactions are not recovery winners",
            server.acid_violations
        ));
    }
    if !server.clean_drain {
        return Err("serve: the server did not drain cleanly".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcluster::serve::StatsSnapshot;
    use semcluster::{run_simulation, SimConfig};

    fn small_report() -> (RunReport, SimConfig) {
        let mut cfg = SimConfig {
            database_bytes: 1 << 20,
            buffer_pages: 8,
            ..SimConfig::default()
        };
        cfg.warmup_txns = 50;
        cfg.measured_txns = 400;
        (run_simulation(cfg.clone()), cfg)
    }

    #[test]
    fn littles_law_holds_on_a_real_run_and_rejects_a_doctored_one() {
        let (report, cfg) = small_report();
        let think = cfg.think_time.as_secs_f64();
        littles_law(&report, cfg.users, think).unwrap();
        let mut doctored = report.clone();
        doctored.txns *= 2;
        assert!(littles_law(&doctored, cfg.users, think).is_err());
        let mut doctored = report;
        doctored.measured_span_s *= 1.5;
        assert!(littles_law(&doctored, cfg.users, think).is_err());
    }

    #[test]
    fn attribution_rejects_a_nonzero_residual() {
        let (report, _) = small_report();
        attribution_residual(&report).unwrap();
        let mut doctored = report;
        doctored.response_us_total += 1;
        assert!(attribution_residual(&doctored).is_err());
    }

    #[test]
    fn reports_equal_rejects_a_changed_report() {
        let (report, _) = small_report();
        reports_equal(&report, &report.clone()).unwrap();
        let mut doctored = report.clone();
        doctored.splits += 1;
        assert!(reports_equal(&report, &doctored).is_err());
    }

    fn page(objects: &[(u32, u32)], used: u32, capacity: u32) -> PageView<'_> {
        PageView {
            capacity,
            used,
            objects,
        }
    }

    #[test]
    fn placement_rejects_duplicates_gaps_and_overfull_pages() {
        let a = [(0u32, 100u32), (1, 200)];
        let b = [(2u32, 50u32)];
        placement(3, [page(&a, 300, 4000), page(&b, 50, 4000)]).unwrap();
        // Object 2 on two pages.
        let twice = [page(&a, 300, 4000), page(&b, 50, 4000), page(&b, 50, 4000)];
        assert!(placement(3, twice).is_err());
        // Object 2 on no page.
        assert!(placement(3, [page(&a, 300, 4000)]).is_err());
        // Over capacity.
        assert!(placement(3, [page(&a, 300, 250), page(&b, 50, 4000)]).is_err());
        // Used bytes disagree with the slots.
        assert!(placement(3, [page(&a, 299, 4000), page(&b, 50, 4000)]).is_err());
        // An id outside the object table.
        assert!(placement(2, [page(&a, 300, 4000), page(&b, 50, 4000)]).is_err());
    }

    #[test]
    fn acked_must_be_winners() {
        acked_are_winners(&[3, 7, 9], &[1, 3, 7, 9, 12]).unwrap();
        assert!(acked_are_winners(&[3, 8], &[1, 3, 7, 9]).is_err());
    }

    fn server_report(acked: u64, sheds: u64) -> ServeReport {
        ServeReport {
            connections: 2,
            sessions_peak: 2,
            committed: acked,
            acked: acked / 2,
            sheds,
            deadline_misses: 0,
            malformed: 0,
            retry_exhausted: 0,
            shutdown_rejected: 0,
            group_commits: 0,
            group_forces: 0,
            group_txns: 0,
            acid_violations: 0,
            clean_drain: true,
            timeline: None,
            stats: StatsSnapshot {
                counters: vec![("txn_ok", acked)],
                ..StatsSnapshot::default()
            },
            request_trace: Vec::new(),
        }
    }

    #[test]
    fn serve_accounting_rejects_disagreeing_counts() {
        let client = LoadSummary {
            attempted: 100,
            acked: 97,
            rejected_overloaded: 2,
            lost: 1,
            ..LoadSummary::default()
        };
        serve_accounting(&client, &server_report(97, 2)).unwrap();
        // Client and server disagree on acks.
        assert!(serve_accounting(&client, &server_report(96, 2)).is_err());
        // ... or on sheds.
        assert!(serve_accounting(&client, &server_report(97, 3)).is_err());
        // A transaction that ended in no outcome at all.
        let mut leaky = client.clone();
        leaky.attempted += 1;
        assert!(serve_accounting(&leaky, &server_report(97, 2)).is_err());
        // An ACID violation or an unclean drain.
        let mut bad = server_report(97, 2);
        bad.acid_violations = 1;
        assert!(serve_accounting(&client, &bad).is_err());
        let mut bad = server_report(97, 2);
        bad.clean_drain = false;
        assert!(serve_accounting(&client, &bad).is_err());
    }
}
