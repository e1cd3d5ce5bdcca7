"""Tests for the benchmark-regression gate (`repro.bench.regression`)."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench import regression
from repro.bench.regression import (
    BenchCase,
    FULL_CASES,
    SMOKE_CASES,
    SNAPSHOT_SCHEMA,
    check_index_ratio,
    compare_snapshots,
    main,
    run_case,
    run_suite,
    suite_cases,
)
from repro.bench.runner import paper_mining_parameters
from repro.core.params import MiningParameters
from repro.datasets.running_example import load_running_example

TINY = BenchCase(
    "tiny",
    lambda: (
        load_running_example(),
        MiningParameters(
            min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
        ),
    ),
    repeats=2,
)


class TestSuiteDefinition:
    def test_scales(self):
        assert suite_cases("smoke") == SMOKE_CASES
        assert suite_cases("full") == FULL_CASES
        with pytest.raises(ValueError, match="scale"):
            suite_cases("galactic")

    def test_smoke_is_a_prefix_of_full(self):
        assert FULL_CASES[: len(SMOKE_CASES)] == SMOKE_CASES

    def test_full_includes_the_fig7_default_point(self):
        names = [case.name for case in FULL_CASES]
        assert "fig7-default" in names

    def test_cases_are_pinned(self):
        # Building a case twice yields the same matrix (fixed seeds).
        for case in SMOKE_CASES:
            first, params_a = case.build()
            second, params_b = case.build()
            assert first == second
            assert params_a == params_b

    def test_fig7_params_follow_the_paper(self):
        matrix, params = dict(
            (c.name, c) for c in SMOKE_CASES
        )["fig7-smoke"].build()
        assert params == paper_mining_parameters(matrix.n_genes)


class TestRunCase:
    @pytest.mark.parametrize("use_kernel", [True, False])
    def test_measurement_fields(self, use_kernel):
        entry = run_case(TINY, use_kernel=use_kernel)
        assert entry["case"] == "tiny"
        assert entry["use_kernel"] is use_kernel
        assert entry["repeats"] == 2
        assert entry["wall_seconds"] > 0
        assert entry["wall_seconds_mean"] >= entry["wall_seconds"]
        assert entry["nodes_expanded"] > 0
        assert entry["nodes_per_second"] > 0
        assert entry["clusters"] == 1
        assert entry["peak_rss_kb"] > 0
        assert entry["shape"] == [3, 10]
        assert entry["index_seconds"] > 0
        assert set(entry["phase_seconds"]) == {
            "candidates", "windows", "emit"
        }

    def test_phases_come_from_the_fastest_repeat(self, monkeypatch):
        """``wall_seconds`` and ``phase_seconds`` describe one repeat."""
        clock = SimpleNamespace(now=0.0)
        durations = iter([3.0, 1.0, 2.0])

        class ScriptedResult(list):
            def __init__(self, seconds):
                super().__init__()
                timers = {"candidates": seconds / 2, "windows": 0.0,
                          "emit": seconds / 4}
                self.statistics = SimpleNamespace(
                    nodes_expanded=10,
                    timers=SimpleNamespace(as_dict=lambda: timers),
                )

        class ScriptedMiner:
            def __init__(self, matrix, params, **kwargs):
                pass

            def mine(self):
                seconds = next(durations)
                clock.now += seconds
                return ScriptedResult(seconds)

        monkeypatch.setattr(regression, "RegClusterMiner", ScriptedMiner)
        monkeypatch.setattr(
            regression,
            "time",
            SimpleNamespace(perf_counter=lambda: clock.now),
        )
        case = BenchCase("scripted", TINY.build, repeats=3)
        entry = run_case(case)
        assert entry["wall_seconds"] == 1.0
        assert entry["wall_seconds_mean"] == 2.0
        assert entry["phase_seconds"] == {
            "candidates": 0.5, "windows": 0.0, "emit": 0.25
        }
        assert sum(entry["phase_seconds"].values()) <= entry["wall_seconds"]

    def test_paths_agree_on_output_size(self):
        kernel = run_case(TINY, use_kernel=True)
        legacy = run_case(TINY, use_kernel=False)
        assert kernel["clusters"] == legacy["clusters"]
        assert kernel["nodes_expanded"] == legacy["nodes_expanded"]


def _bloated_build():
    """The TINY case, after touching 96 MB that is freed again."""
    ballast = np.ones(96 * 1024 * 1024 // 8)
    ballast.sum()
    del ballast
    return TINY.build()


class TestPeakRss:
    def test_each_case_reports_its_own_peak(self):
        """``peak_rss_kb`` is per case, not the maximum so far."""
        big = BenchCase("bloated", _bloated_build, repeats=1)
        small = BenchCase("tiny", TINY.build, repeats=1)
        snapshot = run_suite(cases=[big, small])
        peaks = {c["case"]: c["peak_rss_kb"] for c in snapshot["cases"]}
        assert peaks["tiny"] > 0
        assert peaks["tiny"] + 64 * 1024 < peaks["bloated"]

    def test_a_failing_case_raises_in_the_parent(self, capfd):
        def broken():
            raise ValueError("no matrix today")

        with pytest.raises(RuntimeError, match="measurement child failed"):
            run_case(BenchCase("broken", broken, repeats=1))
        assert "ValueError: no matrix today" in capfd.readouterr().err


class TestRunSuite:
    def test_snapshot_shape_and_json(self):
        snapshot = run_suite(scale="smoke", cases=[TINY])
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert snapshot["use_kernel"] is True
        assert [c["case"] for c in snapshot["cases"]] == ["tiny"]
        # The whole payload must survive a JSON round trip untouched.
        assert json.loads(json.dumps(snapshot)) == snapshot


def snapshot_with(cases):
    return {
        "schema": SNAPSHOT_SCHEMA,
        "cases": [
            {"case": name, "wall_seconds": wall} for name, wall in cases
        ],
    }


class TestCompare:
    def test_within_tolerance_passes(self):
        lines, regressions = compare_snapshots(
            snapshot_with([("a", 1.2)]),
            snapshot_with([("a", 1.0)]),
            tolerance=0.3,
        )
        assert regressions == []
        assert any("1.20x" in line for line in lines)

    def test_regression_detected(self):
        __, regressions = compare_snapshots(
            snapshot_with([("a", 1.5)]),
            snapshot_with([("a", 1.0)]),
            tolerance=0.3,
        )
        assert len(regressions) == 1
        assert "a" in regressions[0]

    def test_new_and_removed_cases_never_fail(self):
        lines, regressions = compare_snapshots(
            snapshot_with([("new", 9.9)]),
            snapshot_with([("old", 0.1)]),
            tolerance=0.0,
        )
        assert regressions == []
        assert any("new" in line for line in lines)
        assert any("only in baseline" in line for line in lines)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            compare_snapshots(
                snapshot_with([]), snapshot_with([]), tolerance=-0.1
            )


def ratio_snapshot(*cases):
    return {
        "cases": [
            {"case": name, "shape": shape, "index_seconds": index,
             "wall_seconds": wall}
            for name, shape, index, wall in cases
        ]
    }


class TestIndexRatio:
    def test_gates_the_largest_case_only(self):
        snapshot = ratio_snapshot(
            ("small", [3, 10], 0.9, 1.0), ("large", [400, 16], 0.2, 1.0)
        )
        line, failure = check_index_ratio(snapshot)
        assert failure is None
        assert line.startswith("large 400x16")

    def test_slow_index_build_fails(self):
        snapshot = ratio_snapshot(("large", [400, 16], 0.3, 1.0))
        __, failure = check_index_ratio(snapshot)
        assert failure is not None and "large" in failure

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="no cases"):
            check_index_ratio(ratio_snapshot())
        with pytest.raises(ValueError, match="regenerate"):
            check_index_ratio(snapshot_with([("old", 1.0)]))


class TestCli:
    def test_run_writes_valid_snapshot(self, tmp_path, capsys):
        out = tmp_path / "snap.json"
        # The smoke suite's fig7 case takes ~seconds on the legacy path;
        # the CLI is exercised on the kernel path only here.
        code = main(["run", "--scale", "smoke", "--out", str(out)])
        assert code == 0
        snapshot = json.loads(out.read_text(encoding="utf-8"))
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert {c["case"] for c in snapshot["cases"]} == {
            c.name for c in SMOKE_CASES
        }
        assert "nodes/s" in capsys.readouterr().out

    def test_compare_gates(self, tmp_path, capsys):
        fast = tmp_path / "fast.json"
        slow = tmp_path / "slow.json"
        fast.write_text(json.dumps(snapshot_with([("a", 1.0)])))
        slow.write_text(json.dumps(snapshot_with([("a", 2.0)])))
        assert main(
            ["compare", str(fast), str(slow), "--tolerance", "0.3"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["compare", str(slow), str(fast), "--tolerance", "0.3"]
        ) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regression:" in captured.err

    def test_index_ratio_gates(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps(
            ratio_snapshot(("large", [400, 16], 0.1, 1.0))
        ))
        assert main(["index-ratio", str(snap)]) == 0
        assert "0.100x" in capsys.readouterr().out
        snap.write_text(json.dumps(
            ratio_snapshot(("large", [400, 16], 0.5, 1.0))
        ))
        assert main(["index-ratio", str(snap)]) == 1
        assert "regression:" in capsys.readouterr().err
