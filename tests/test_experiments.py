"""Tests for the experiment-runner subsystem (`repro.experiments`)."""

import json

import pytest

from repro.analysis import to_jsonable
from repro.experiments import (
    SCHEMA_ID,
    SCHEMA_VERSION,
    ArtifactError,
    ExperimentSpec,
    all_specs,
    expand_grid,
    get_spec,
    load_artifact,
    register_spec,
    result_to_artifact,
    run_experiment,
    spec_names,
    validate_artifact,
    write_artifact,
)
from repro.experiments.cli import main as cli_main
from repro.lis import mpc_lis_length
from repro.mpc import MPCCluster
from repro.workloads import (
    make_sequence,
    sequence_workload,
    sequence_workload_names,
    string_workload_names,
)


# ----------------------------------------------------------------- registry
def test_registry_has_all_builtin_experiments():
    names = spec_names()
    assert len(names) >= 8
    for expected in (
        "table1",
        "multiply_rounds",
        "scalability_delta",
        "lis_rounds",
        "sequential",
        "lcs",
        "communication",
        "fanin_ablation",
        "space_overhead",
        "service_throughput",
    ):
        assert expected in names


def test_get_spec_roundtrip_and_unknown():
    spec = get_spec("table1")
    assert spec.name == "table1"
    assert spec in all_specs()
    with pytest.raises(KeyError, match="unknown experiment"):
        get_spec("definitely_not_registered")


def test_register_duplicate_name_rejected():
    spec = get_spec("table1")
    with pytest.raises(ValueError, match="already registered"):
        register_spec(spec)


# ------------------------------------------------------------ grid expansion
def test_expand_grid_cartesian_product_in_order():
    points = expand_grid({"a": [1, 2], "b": ["x", "y"]})
    assert points == [
        {"a": 1, "b": "x"},
        {"a": 1, "b": "y"},
        {"a": 2, "b": "x"},
        {"a": 2, "b": "y"},
    ]


def test_expand_grid_empty_grid_is_single_point():
    assert expand_grid({}) == [{}]


def test_effective_grid_overrides_and_typo_rejection():
    spec = get_spec("table1")
    grid = spec.effective_grid(overrides={"delta": [0.5]})
    assert grid["delta"] == [0.5]
    assert grid["algorithm"] == list(spec.grid["algorithm"])
    with pytest.raises(KeyError, match="no grid parameter"):
        spec.effective_grid(overrides={"detla": [0.5]})


# -------------------------------------------------------------- quick subset
def test_quick_run_uses_reduced_grid_and_fixed():
    spec = get_spec("multiply_rounds")
    quick_grid = spec.effective_grid(quick=True)
    assert len(expand_grid(quick_grid)) < len(expand_grid(spec.effective_grid()))

    table1 = get_spec("table1")
    assert table1.effective_fixed(quick=True)["n"] < table1.effective_fixed()["n"]
    assert table1.effective_grid(quick=True) == table1.effective_grid()


def _tiny_spec(name, point, **kwargs):
    defaults = dict(
        name=name,
        title=name,
        claim="test",
        grid={"x": [1, 2, 3]},
        point=point,
        columns=["x", "y"],
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def _double(x):
    return {"y": 2 * x}


def test_runner_executes_every_grid_point_without_registration():
    spec = _tiny_spec("tiny_double", _double)
    result = run_experiment(spec)
    assert [point.params for point in result.points] == [{"x": 1}, {"x": 2}, {"x": 3}]
    assert [point.metrics["y"] for point in result.points] == [2, 4, 6]
    table = result.to_table()
    assert table.splitlines()[0].split() == ["x", "y"]


def test_runner_checks_failure_propagates():
    def bad_check(points):
        assert False, "intentional"

    spec = _tiny_spec("tiny_failing", _double, checks=bad_check)
    with pytest.raises(AssertionError, match="intentional"):
        run_experiment(spec)
    result = run_experiment(spec, run_checks=False)
    assert result.checks_passed is None

    recorded = run_experiment(spec, raise_on_check_failure=False)
    assert recorded.checks_passed is False
    assert "intentional" in recorded.check_error
    artifact = result_to_artifact(recorded)
    assert artifact["checks_passed"] is False
    assert "intentional" in artifact["check_error"]


# ------------------------------------------------------- workload registry
def test_workload_registry_names_and_lookup():
    assert set(sequence_workload_names()) >= {"random", "planted", "decreasing"}
    assert set(string_workload_names()) == {"random_pair", "correlated_pair"}
    seq = make_sequence("decreasing", 16)
    assert list(seq) == list(range(15, -1, -1))
    assert sequence_workload("random") is not None
    with pytest.raises(KeyError, match="unknown sequence workload"):
        sequence_workload("nope")


# ------------------------------------------------------- JSON serialization
def test_cluster_stats_summary_json_roundtrip():
    cluster = MPCCluster(256, delta=0.5)
    seq = make_sequence("random", 256, seed=0)
    mpc_lis_length(cluster, seq)
    summary = to_jsonable(cluster.stats.summary())
    restored = json.loads(json.dumps(summary))
    assert restored == summary
    assert restored["rounds"] == cluster.stats.num_rounds
    assert isinstance(restored["rounds"], int)
    assert isinstance(restored["space_utilisation"], float)


def test_to_jsonable_handles_numpy_scalars_and_arrays():
    import numpy as np

    doc = to_jsonable(
        {
            "i": np.int64(3),
            "f": np.float64(0.5),
            "b": np.bool_(True),
            "arr": np.arange(3),
            "nested": [np.int32(1), (np.float32(2.0),)],
        }
    )
    assert doc == {"i": 3, "f": 0.5, "b": True, "arr": [0, 1, 2], "nested": [1, [2.0]]}
    json.dumps(doc)


# ------------------------------------------------------------ JSON artifacts
def test_artifact_write_load_validate_roundtrip(tmp_path):
    result = run_experiment(get_spec("table1"), quick=True, overrides={"delta": [0.5]})
    path = tmp_path / "table1.json"
    written = write_artifact(result, str(path))
    loaded = load_artifact(str(path))
    assert loaded == json.loads(json.dumps(written))
    assert loaded["schema"] == SCHEMA_ID
    assert loaded["schema_version"] == SCHEMA_VERSION
    assert loaded["experiment"] == "table1"
    assert loaded["quick"] is True
    assert len(loaded["points"]) == len(result.points)


def test_validate_artifact_rejects_corrupt_documents():
    result = run_experiment(get_spec("lcs"), quick=True, overrides={"workload": ["random4"]})
    document = result_to_artifact(result)
    validate_artifact(document)

    for mutation in (
        lambda d: d.pop("points"),
        lambda d: d.__setitem__("schema", "something.else"),
        lambda d: d.__setitem__("schema_version", SCHEMA_VERSION + 1),
        lambda d: d.__setitem__("grid", {"workload": "not-a-list"}),
        lambda d: d["points"].append({"params": {}}),
    ):
        corrupt = json.loads(json.dumps(document))
        mutation(corrupt)
        with pytest.raises(ArtifactError):
            validate_artifact(corrupt)
    with pytest.raises(ArtifactError):
        validate_artifact([document])


# ------------------------------------------------- end-to-end / consistency
def test_table1_run_matches_direct_benchmark():
    result = run_experiment(get_spec("table1"), quick=True, overrides={"delta": [0.5]})
    fixed = result.fixed
    by_algorithm = {point.params["algorithm"]: point.metrics for point in result.points}

    cluster = MPCCluster(fixed["n"], delta=0.5)
    seq = make_sequence("random", fixed["n"], seed=fixed["seed"])
    mpc_lis_length(cluster, seq)
    assert by_algorithm["this_paper"]["rounds"] == cluster.stats.num_rounds
    assert by_algorithm["this_paper"]["answer"] == "exact"
    assert by_algorithm["kt10"]["scalable"] == "no (delta too large)"
    assert by_algorithm["kt10"]["rounds"] is None


def test_workers_fanout_matches_serial_run():
    serial = run_experiment(get_spec("lis_rounds"), quick=True, overrides={"n": [512]})
    parallel = run_experiment(
        get_spec("lis_rounds"), quick=True, overrides={"n": [512]}, workers=2
    )
    assert [point.params for point in serial.points] == [point.params for point in parallel.points]
    assert [point.metrics for point in serial.points] == [point.metrics for point in parallel.points]
    assert parallel.workers == 2


# ------------------------------------------------------------------- the CLI
def test_cli_list_shows_all_experiments(capsys):
    assert cli_main(["list"]) == 0
    captured = capsys.readouterr().out
    for name in spec_names():
        assert name in captured


def test_cli_list_json(capsys):
    assert cli_main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) >= 8
    assert {"name", "title", "claim", "points", "swept", "bench_file"} <= set(payload[0])


def test_cli_run_writes_validated_artifact(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = cli_main(["run", "table1", "--quick", "--set", "delta=0.5", "--json", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 1 reproduction" in out
    assert "consistency checks: passed" in out
    loaded = load_artifact(str(path))
    assert loaded["experiment"] == "table1"
    assert loaded["grid"]["delta"] == [0.5]
    assert cli_main(["validate", str(path)]) == 0


def test_cli_errors_are_reported_not_raised(tmp_path, capsys):
    assert cli_main(["run", "no_such_experiment"]) == 1
    assert cli_main(["run", "table1", "--quick", "--set", "bogus"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cli_main(["validate", str(bad)]) == 1
    assert cli_main([]) == 2
