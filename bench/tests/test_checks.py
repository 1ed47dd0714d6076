"""Output checks feed ``failed``/``attempted`` and so the error rate."""

from bench import run
from bench.workloads import Checks, check_chaos

CLEAN = {"digest": "ab" * 32, "records": 100, "pending": 0, "dead_letters": 0, "backlog": 0}


def test_a_matching_run_passes_every_check():
    checks = Checks()
    check_chaos(dict(CLEAN), CLEAN, checks, "world 0")
    assert (checks.attempted, checks.failures) == (5, [])


def test_error_rate_counts_a_mismatched_digest():
    checks = Checks()
    check_chaos(dict(CLEAN, digest="cd" * 32), CLEAN, checks, "world 0")
    summary = run.check_summary(checks.attempted, checks.failures)
    assert (summary["attempted"], summary["failed"], summary["error_rate"]) == (5, 1, 0.2)
    assert "digest" in summary["failures"][0]


def test_queues_left_at_close_fail_even_without_a_reference():
    checks = Checks()
    check_chaos(dict(CLEAN, pending=2, backlog=1), None, checks, "world 1 reference")
    assert checks.attempted == 3 and len(checks.failures) == 2
