import json

import pytest

from bench import compare

ENV = {"nproc": 2, "blas": {"name": "openblas"}, "blas_env": {}, "numpy": "2.0",
       "python": "3.11", "commit": "abc", "seed": 0}


def by_seed(values):
    return dict(enumerate(values, 1))


def test_within_bound_is_ok():
    a = by_seed([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    b = by_seed([99, 100, 98, 100, 101, 97, 99, 100, 98, 99])
    change, won, outcome = compare.verdict(a, b, "higher", 0.1)
    assert outcome == "ok"
    assert change == pytest.approx(-0.01, abs=0.005)


def test_regression_beyond_bound():
    a = by_seed([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    b = by_seed([v * 0.8 for v in a.values()])
    change, won, outcome = compare.verdict(a, b, "higher", 0.1)
    assert outcome == "REGRESSION"
    assert won == "0/10"


def test_lower_is_better_direction():
    a = by_seed([10.0, 10.1, 9.9, 10.0])
    b = by_seed([12.0, 12.1, 11.9, 12.0])
    assert compare.verdict(a, b, "lower", 0.1)[2] == "REGRESSION"
    assert compare.verdict(b, a, "lower", 0.1)[2] == "better"


def test_spread_wider_than_bound_is_unresolved():
    a = by_seed([100, 70, 130, 90, 110, 60, 140, 100])
    b = by_seed([v * 0.85 for v in a.values()])
    assert compare.verdict(a, b, "higher", 0.1)[2] == "unresolved"


def test_wide_spread_still_better_when_every_run_wins():
    a = by_seed([100, 80, 120, 90])
    b = by_seed([200, 180, 220, 190])
    assert compare.verdict(a, b, "higher", 0.1)[2] == "better"


def test_better_needs_nine_in_ten_pairs():
    a = by_seed([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    b = by_seed([104, 105, 103, 104, 106, 102, 104, 105, 103, 99])
    change, won, outcome = compare.verdict(a, b, "higher", 0.1)
    assert won == "9/10"
    assert outcome == "better"


def test_per_layer_metrics_get_no_verdict():
    assert compare.verdict(by_seed([1.0, 2.0]), by_seed([1.0, 2.0]), "lower", None)[2] == "-"


def write_set(directory, values, env=ENV, correct=True):
    directory.mkdir()
    paths = []
    for seed, value in enumerate(values, 1):
        result = {
            "workload": "classify_clean", "seed": seed, "trace": 0,
            "env": dict(env, seed=seed), "correct": correct, "valid": True,
            "attempted": 10, "failed": 0 if correct else 1, "errors": [], "notes": [],
            "metrics": {"samples_per_s": {"value": value, "unit": "samples/s"}},
        }
        path = directory / f"classify_clean-s{seed}-plain.json"
        path.write_text(json.dumps(result))
        paths.append(path)
    return paths


def test_main_exit_codes(tmp_path, capsys):
    base = write_set(tmp_path / "a", [100, 101, 99, 100])
    same = write_set(tmp_path / "b", [100, 100, 99, 101])
    slow = write_set(tmp_path / "c", [50, 51, 49, 50])
    other = write_set(tmp_path / "d", [100, 101, 99, 100], env=dict(ENV, nproc=1))
    wrong = write_set(tmp_path / "e", [100, 101, 99, 100], correct=False)
    assert compare.main([str(p) for p in base + same]) == 0
    assert "samples_per_s" in capsys.readouterr().out
    assert compare.main([str(p) for p in base + slow]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.main([str(p) for p in base + other]) == 2
    assert compare.main([str(p) for p in base + wrong]) == 1
    assert compare.main([str(p) for p in base]) == 2
