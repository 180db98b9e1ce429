"""Mixed-priority workload: suspend Q_lo so Q_hi can run immediately.

The paper's motivating scenario (Section 1): a long-running analytical
query Q_lo occupies a large amount of memory when a high-priority query
Q_hi arrives. Three scheduler pressure policies are compared on
simulated time:

- kill-restart: throw away Q_lo's work, rerun it after Q_hi;
- wait: let Q_lo finish before starting Q_hi (terrible Q_hi latency);
- suspend-resume: release Q_lo's resources within a suspend budget, run
  Q_hi, resume Q_lo without losing its progress.

The workload itself lives in :func:`repro.workloads.mixed_priority_trace`
(Q_lo arrives at t=0 at priority 0; Q_hi arrives mid-flight at priority
10; the memory budget is half of Q_lo's solo peak, so Q_hi's admission
always creates pressure). The scheduler replays the same arrival trace
under each policy on identical fresh databases.

Run:  python examples/mixed_priority_workload.py
"""

from repro.harness import compare_policies, format_table, policy_comparison_rows
from repro.workloads import mixed_priority_trace


def main():
    workload = mixed_priority_trace(scale=4, seed=1)
    results = compare_policies(workload)

    print(format_table(
        policy_comparison_rows(results),
        title="policy comparison (best combined turnaround first)",
    ))

    sr = results["suspend-resume"]
    print("\nsuspend-resume timeline:")
    for event in sr.timeline:
        print(
            f"  t={event.time:7.2f}  {event.event:<8} {event.query:<6} "
            f"(live memory {event.memory_bytes:,} bytes)"
        )

    best = min(results, key=lambda p: results[p].total_turnaround())
    print(
        f"\nbest policy: {best} — Q_hi gets near-immediate service (small "
        "suspend budget)\nwithout wasting Q_lo's completed work, so the "
        "combined turnaround beats both\nkill-restart and wait."
    )
    assert best == "suspend-resume"


if __name__ == "__main__":
    main()
