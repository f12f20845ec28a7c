"""Tests for the perf subsystem (:mod:`repro.perf`) and its CLI."""

import copy
import json

import numpy as np
import pytest

from repro.experiments.artifacts import load_artifact, validate_artifact
from repro.experiments.cli import main as cli_main
from repro.perf import (
    calibrate_cpu,
    check_speedup,
    compare_documents,
    format_report,
    perf_cases,
    run_perf,
)


class TestCaseGrid:
    def test_quick_grid_is_a_subset_of_full(self):
        cases = perf_cases()
        names = [case.name for case in cases]
        assert len(names) == len(set(names)), "case names must be unique"
        quick = [case for case in cases if case.quick]
        assert quick and len(quick) < len(cases)
        groups = {case.group for case in cases}
        assert {"multiply", "reference", "semilocal", "streaming", "service"} <= groups
        # The full grid covers the issue's size range and both fan-ins.
        multiply_sizes = {case.params["n"] for case in cases if case.group == "multiply"}
        assert {256, 4096, 16384} <= multiply_sizes
        assert {case.params["fanin"] for case in cases if case.group == "multiply"} == {2, 4}

    def test_calibration_is_positive_and_stable(self):
        first = calibrate_cpu(repeats=2)
        assert first > 0


class TestRunPerf:
    def test_quick_run_produces_valid_artifact(self):
        document = run_perf(quick=True, repeats=1)
        validate_artifact(document)
        assert document["experiment"] == "perf_core"
        assert document["quick"] is True
        assert document["perf"]["calibration_seconds"] > 0
        speedup = document["perf"]["multiply_speedup_vs_reference"]
        assert speedup is not None and speedup > 1.0
        for point in document["points"]:
            assert point["metrics"]["seconds"] > 0
            assert point["metrics"]["normalized"] > 0
        names = {point["params"]["case"] for point in document["points"]}
        assert "multiply_n1024_h2" in names and "multiply_reference_n1024" in names


class TestRegressionGate:
    def _fake_document(self, cases):
        return {
            "points": [
                {
                    "params": {"case": name, "group": "multiply", "n": 1},
                    "metrics": {"seconds": seconds, "normalized": normalized},
                    "seconds": seconds,
                }
                for name, seconds, normalized in cases
            ],
            "perf": {"multiply_speedup_vs_reference": 5.0, "headline_n": 4096},
        }

    def test_matching_cases_within_tolerance_pass(self):
        baseline = self._fake_document([("a", 0.1, 1.0), ("b", 0.2, 2.0)])
        current = self._fake_document([("a", 0.1, 1.4), ("b", 0.2, 1.8)])
        report = compare_documents(current, baseline, tolerance=1.5)
        assert report["ok"] and report["checked"] == 2
        assert not report["regressions"]

    def test_regression_beyond_tolerance_fails(self):
        baseline = self._fake_document([("a", 0.1, 1.0)])
        current = self._fake_document([("a", 0.4, 4.0)])
        report = compare_documents(current, baseline, tolerance=2.0)
        assert not report["ok"]
        assert report["regressions"][0]["case"] == "a"
        assert report["regressions"][0]["ratio"] == pytest.approx(4.0)
        assert "REGRESSED" in format_report(report)

    def test_unmatched_cases_are_informational(self):
        baseline = self._fake_document([("a", 0.1, 1.0), ("old", 0.1, 1.0)])
        current = self._fake_document([("a", 0.1, 1.0), ("new", 0.1, 1.0)])
        report = compare_documents(current, baseline)
        assert report["ok"]
        assert report["only_in_current"] == ["new"]
        assert report["only_in_baseline"] == ["old"]

    def test_invalid_tolerance_rejected(self):
        doc = self._fake_document([("a", 0.1, 1.0)])
        with pytest.raises(ValueError):
            compare_documents(doc, doc, tolerance=0)

    def test_speedup_floor(self):
        doc = self._fake_document([])
        assert check_speedup(doc, floor=3.0) is None
        assert check_speedup(doc, floor=6.0) is not None
        assert check_speedup({"perf": {}}, floor=1.0) is not None


class TestRecordedBaseline:
    def test_recorded_baseline_is_valid_and_proves_the_claim(self):
        document = load_artifact("results/perf_core.json")
        assert document["experiment"] == "perf_core"
        assert document["quick"] is False
        # The acceptance criterion: >= 3x at n=4096 vs the recursive oracle.
        perf = document["perf"]
        assert perf["headline_n"] == 4096
        assert perf["multiply_speedup_vs_reference"] >= 3.0
        assert check_speedup(document, floor=3.0) is None
        names = {point["params"]["case"] for point in document["points"]}
        assert "multiply_n4096_h2" in names and "multiply_reference_n4096" in names


class TestPerfCLI:
    def test_cli_quick_run_writes_and_validates(self, tmp_path, capsys):
        out_path = tmp_path / "perf.json"
        code = cli_main(["perf", "--quick", "--repeats", "1", "--no-check",
                         "--json", str(out_path)])
        assert code == 0
        document = load_artifact(str(out_path))
        assert document["experiment"] == "perf_core"
        assert cli_main(["validate", str(out_path)]) == 0

    def test_cli_gates_on_fabricated_regression(self, tmp_path):
        # A baseline claiming everything once ran ~1000x faster must trip the
        # tolerance check and exit non-zero.
        document = run_perf(quick=True, repeats=1)
        fabricated = copy.deepcopy(document)
        for point in fabricated["points"]:
            point["metrics"]["normalized"] /= 1000.0
        baseline_path = tmp_path / "baseline.json"
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(fabricated, handle)
        code = cli_main(["perf", "--quick", "--repeats", "1",
                         "--baseline", str(baseline_path)])
        assert code == 1
