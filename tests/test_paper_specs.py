"""The paper specs' simulated accounting, pinned to a committed record.

``tests/data/paper_specs_quick.json`` holds, for every point of the quick
grids of the eight specs that run a simulated cluster, the point's
parameters and every metric that is not a wall-clock time: rounds, words,
peak loads, machine counts, space budgets and answers.  The simulator is
deterministic, so rerunning the grids reproduces the record exactly, and any
change to a charged quantity fails here with the spec, the point and the
key named.

A change that moves the accounting on purpose re-records the file with
``PYTHONPATH=src python tests/test_paper_specs.py`` and says why.
"""

import json
import pathlib

import pytest

from repro.experiments import get_spec, run_experiment, spec_names

RECORD = pathlib.Path(__file__).with_name("data") / "paper_specs_quick.json"

#: Registered specs that are not pinned, with the reason.
SPEC_EXCLUSIONS = {
    "sequential": "no cluster: the sequential substrate charges no rounds",
    "service_throughput": "serving wall-clock; each point checks sampled answers "
    "against a from-scratch rebuild",
    "streaming_throughput": "streaming wall-clock; each point checks every tick "
    "against the DP oracle",
    "shard_scaling": "sharded serving wall-clock; each point checks its answers "
    "against the single-process oracle",
}


def _load_record():
    return json.loads(RECORD.read_text())


def measure(name):
    """The quick grid of ``name``: params and non-timing metrics per point."""
    result = run_experiment(get_spec(name), quick=True)
    points = [
        {
            "params": point.params,
            "metrics": {k: v for k, v in point.metrics.items() if "seconds" not in k},
        }
        for point in result.points
    ]
    # Through JSON, so tuples and floats compare as the record stores them.
    return json.loads(json.dumps(points))


def _flatten(metrics, prefix=""):
    flat = {}
    for key, value in metrics.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def test_every_registered_spec_is_covered_or_excluded():
    assert set(spec_names()) == set(_load_record()) | set(SPEC_EXCLUSIONS)


@pytest.mark.parametrize("name", sorted(_load_record()))
def test_spec_matches_pinned_record(name):
    expected = _load_record()[name]
    observed = measure(name)
    assert [point["params"] for point in observed] == [
        point["params"] for point in expected
    ], f"{name}: the quick grid changed"
    mismatches = []
    for recorded, now in zip(expected, observed):
        old, new = _flatten(recorded["metrics"]), _flatten(now["metrics"])
        for key in sorted(set(old) | set(new)):
            if old.get(key, "<missing>") != new.get(key, "<missing>"):
                mismatches.append(
                    f"{name} {recorded['params']} {key}: recorded "
                    f"{old.get(key, '<missing>')!r}, now {new.get(key, '<missing>')!r}"
                )
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    record = {name: measure(name) for name in sorted(_load_record())}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True))
