"""compare.py verdicts: within bound, regressed, unresolved."""

import json

from bench import compare


def _records(path, iteration_values):
    records = [
        {"workload": "simulate-small", "metrics": {"iteration_s": {"value": v, "unit": "s"}}}
        for v in iteration_values
    ]
    path.write_text(json.dumps(records))
    return str(path)


def test_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(steady, [1.05, 1.04, 1.06, 1.05], "lower", 0.1)[1] == "within bound"
    assert compare.verdict(steady, [1.20, 1.21, 1.19, 1.20], "lower", 0.1)[1] == "regressed"
    assert compare.verdict(steady, [0.8, 1.0, 1.3, 1.1], "lower", 0.1)[1] == "unresolved"
    # Higher-is-better metrics regress when they fall.
    assert compare.verdict(steady, [0.80, 0.81, 0.79, 0.80], "higher", 0.1)[1] == "regressed"
    # A wide spread is no excuse when every B run beats every A run.
    assert compare.verdict([1.0, 1.5, 2.0], [0.5, 0.55, 0.9], "lower", 0.1)[1] == "within bound"


def test_exit_status_reports_a_regression(tmp_path, capsys):
    a = _records(tmp_path / "a.json", [1.0, 1.01, 0.99])
    b = _records(tmp_path / "b.json", [1.3, 1.31, 1.29])
    assert compare.main([a, "--", a]) == 0
    assert compare.main([a, "--", b]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([a, b]) == 2
