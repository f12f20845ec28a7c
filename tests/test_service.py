"""Tests for the query-serving subsystem (:mod:`repro.service`)."""

import json

import numpy as np
import pytest

from repro.core.permutation import SubPermutation, random_subpermutation
from repro.experiments import load_artifact
from repro.experiments.cli import main as cli_main
from repro.analysis.serialize import weighted_checksum
from repro.experiments.specs import (
    _service_query_windows,
    check_service_throughput,
    run_service_throughput_point,
)
from repro.lcs.dp_baseline import lcs_length_dp
from repro.lis import lis_length
from repro.lis.dp_baseline import lis_length_dp
from repro.service import (
    IndexCache,
    QueryRequest,
    QueryService,
    SemiLocalIndex,
    ServiceRequestError,
    TargetSpec,
    build_lcs_index,
    build_lis_index,
    lis_index_fingerprint,
    parse_requests_document,
)
from repro.workloads import make_sequence, make_string_pair

MODES = ("sequential", "mpc")


def _random_windows(rng, n, count, upper=None):
    upper = n if upper is None else upper
    i = rng.integers(0, upper, size=count)
    j = i + rng.integers(0, upper - i + 1)
    return i, j


# ---------------------------------------------------------------- fingerprints
class TestFingerprints:
    def test_identity_covers_input_kind_and_strictness(self):
        seq = make_sequence("random", 64, seed=1)
        base = lis_index_fingerprint(seq, "lis:position", True)
        assert base == lis_index_fingerprint(seq.copy(), "lis:position", True)
        assert base != lis_index_fingerprint(seq, "lis:value", True)
        assert base != lis_index_fingerprint(seq, "lis:position", False)
        other = make_sequence("random", 64, seed=2)
        assert base != lis_index_fingerprint(other, "lis:position", True)

    def test_build_mechanics_do_not_change_identity(self):
        seq = make_sequence("random", 96, seed=3)
        sequential = build_lis_index(seq, mode="sequential")
        mpc = build_lis_index(seq, mode="mpc", delta=0.4)
        assert sequential.fingerprint == mpc.fingerprint
        assert sequential.semilocal.matrix == mpc.semilocal.matrix
        assert mpc.provenance["mode"] == "mpc"
        assert mpc.provenance["delta"] == 0.4
        assert "stats_digest" in mpc.provenance

    def test_mpc_provenance_digest_is_reproducible(self):
        seq = make_sequence("random", 96, seed=4)
        digests = {
            build_lis_index(seq, mode="mpc").provenance["stats_digest"] for _ in range(2)
        }
        assert len(digests) == 1
        other = build_lis_index(seq, mode="mpc", delta=0.4).provenance["stats_digest"]
        assert other not in digests


# ------------------------------------------------------------- batch queries
class TestIndexQueries:
    @pytest.mark.parametrize("workload", ["random", "duplicate_heavy", "near_sorted"])
    def test_substring_batches_match_dp_in_both_modes(self, workload):
        n = 64
        seq = make_sequence(workload, n, seed=5)
        rng = np.random.default_rng(6)
        i, j = _random_windows(rng, n, 24)
        oracle = np.array([lis_length_dp(seq[a:b]) for a, b in zip(i, j)])

        for mode in MODES:
            answers = build_lis_index(seq, mode=mode).query_substrings(i, j)
            assert np.array_equal(answers, oracle), mode

    def test_rank_interval_batches_match_filtered_dp(self):
        n = 40
        seq = make_sequence("random", n, seed=7)
        index = build_lis_index(seq, kind="lis:value", mode="mpc")
        rng = np.random.default_rng(8)
        x, y = _random_windows(rng, n, 16)
        expected = [
            lis_length([v for v in seq if a <= v < b]) for a, b in zip(x, y)
        ]
        assert list(index.query_rank_intervals(x, y)) == expected

    def test_lcs_batches_match_dp_in_both_modes(self):
        s, t = make_string_pair("correlated_pair", 48, seed=9, alphabet=6)
        rng = np.random.default_rng(10)
        i, j = _random_windows(rng, len(t), 12)
        oracle = np.array([lcs_length_dp(s, t[a:b]) for a, b in zip(i, j)])
        for mode in MODES:
            index = build_lcs_index(s, t, mode=mode)
            assert np.array_equal(index.query_substrings(i, j), oracle), mode
            assert index.full_length() == lcs_length_dp(s, t)

    def test_window_sweep_equals_explicit_windows(self):
        seq = make_sequence("random", 80, seed=11)
        index = build_lis_index(seq)
        sweep = index.window_sweep(16, step=8)
        starts = np.arange(0, 80 - 16 + 1, 8)
        assert np.array_equal(sweep, index.query_substrings(starts, starts + 16))

    def test_out_of_range_windows_raise_instead_of_wrapping(self):
        seq = make_sequence("random", 32, seed=12)
        index = build_lis_index(seq)
        with pytest.raises(ValueError, match="0 <= i <= j <= 32"):
            index.query_substrings([-1], [10])
        with pytest.raises(ValueError, match="batch position 1"):
            index.query_substrings([0, 5], [10, 40])
        with pytest.raises(ValueError, match="0 <= i <= j"):
            index.query_substrings([20], [10])
        value_index = build_lis_index(seq, kind="lis:value")
        with pytest.raises(ValueError, match="rank interval"):
            value_index.query_rank_intervals([0], [33])

    def test_kind_mismatch_and_sweep_geometry_raise(self):
        seq = make_sequence("random", 32, seed=13)
        index = build_lis_index(seq)
        with pytest.raises(ValueError, match="lis:value"):
            index.query_rank_intervals([0], [4])
        with pytest.raises(ValueError, match="substring"):
            build_lis_index(seq, kind="lis:value").query_substrings([0], [4])
        with pytest.raises(ValueError, match="width"):
            index.window_sweep(0)
        with pytest.raises(ValueError, match="step"):
            index.window_sweep(4, step=0)

    def test_lcs_out_of_range_batch_raises(self):
        s, t = make_string_pair("random_pair", 24, seed=14, alphabet=4)
        index = build_lcs_index(s, t)
        with pytest.raises(ValueError, match="subsegment"):
            index.query_substrings([0], [len(t) + 1])


# -------------------------------------------------------------- npz round-trip
class TestNpzRoundTrip:
    def test_subpermutation_save_load(self, tmp_path):
        matrix = random_subpermutation(40, 50, 30, np.random.default_rng(15))
        path = tmp_path / "matrix.npz"
        matrix.save_npz(str(path))
        assert SubPermutation.load_npz(str(path)) == matrix

    def test_index_save_load_preserves_answers(self, tmp_path):
        seq = make_sequence("random", 64, seed=16)
        index = build_lis_index(seq, mode="mpc")
        path = tmp_path / "index.npz"
        index.save(str(path))
        restored = SemiLocalIndex.load(str(path))
        assert restored.fingerprint == index.fingerprint
        assert restored.provenance == index.provenance
        rng = np.random.default_rng(17)
        i, j = _random_windows(rng, 64, 10)
        assert np.array_equal(restored.query_substrings(i, j), index.query_substrings(i, j))

    def test_lcs_index_save_load(self, tmp_path):
        s, t = make_string_pair("random_pair", 32, seed=18, alphabet=4)
        index = build_lcs_index(s, t)
        index.save(str(tmp_path / "lcs.npz"))
        restored = SemiLocalIndex.load(str(tmp_path / "lcs.npz"))
        assert restored.full_length() == index.full_length()
        assert np.array_equal(restored.match_positions, index.match_positions)

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.arange(4))
        with pytest.raises(ValueError, match="not a serialized SemiLocalIndex"):
            SemiLocalIndex.load(str(path))


# --------------------------------------------------------------------- cache
class TestIndexCache:
    def _tiny_index(self, seed):
        return build_lis_index(make_sequence("random", 48, seed=seed))

    def test_nbytes_includes_query_acceleration_structures(self):
        # The LRU budget must reflect resident memory: the matrix alone is
        # n*8 bytes, but the ColoredPointSet behind the index (dense tables
        # or color-major arrays + rank tree) dominates and must be counted.
        index = self._tiny_index(9)
        matrix_bytes = index.semilocal.matrix.row_to_col.nbytes
        points_bytes = index.semilocal._points.nbytes
        assert points_bytes > 0
        assert index.nbytes >= matrix_bytes + points_bytes
        cache = IndexCache(max_bytes=index.nbytes + 1)
        cache.put(index)
        assert cache.counters()["current_bytes"] == index.nbytes

    def test_hit_miss_and_lru_eviction_counters(self):
        first, second, third = (self._tiny_index(seed) for seed in (1, 2, 3))
        budget = first.nbytes + second.nbytes + third.nbytes // 2
        cache = IndexCache(max_bytes=budget)
        cache.put(first)
        cache.put(second)
        assert cache.get(first.fingerprint) is first  # refreshes recency
        cache.put(third)  # over budget -> evicts LRU (= second)
        assert second.fingerprint not in cache
        assert first.fingerprint in cache and third.fingerprint in cache
        assert cache.get(second.fingerprint) is None
        counters = cache.counters()
        assert counters["evictions"] == 1
        assert counters["hits"] == 1 and counters["misses"] == 1
        assert counters["current_bytes"] == first.nbytes + third.nbytes

    def test_single_oversized_index_is_retained(self):
        index = self._tiny_index(4)
        cache = IndexCache(max_bytes=1)
        cache.put(index)
        assert cache.get(index.fingerprint) is index

    def _oversized_pair(self):
        small = self._tiny_index(11)
        big = build_lis_index(make_sequence("random", 2048, seed=12))
        return small, big

    def test_oversized_put_spills_straight_to_disk(self, tmp_path):
        # Regression: an index larger than the whole budget used to trigger a
        # degenerate evict-everything loop; it must spill directly instead.
        small, big = self._oversized_pair()
        cache = IndexCache(max_bytes=small.nbytes + 16, spill_dir=str(tmp_path))
        cache.put(small)
        cache.put(big)
        counters = cache.counters()
        assert counters["evictions"] == 0, "resident entries must not be flushed"
        assert counters["oversize_spills"] == 1 and counters["spill_saves"] == 1
        assert counters["entries"] == 1 and counters["current_bytes"] == small.nbytes
        assert cache.get(small.fingerprint) is small
        loaded = cache.get(big.fingerprint)
        assert loaded is not None and loaded.fingerprint == big.fingerprint
        # The oversized entry keeps serving from disk, never re-admitted.
        assert cache.counters()["entries"] == 1
        assert cache.counters()["spill_loads"] == 1

    def test_oversized_put_without_spill_dir_leaves_residents_alone(self):
        small, big = self._oversized_pair()
        cache = IndexCache(max_bytes=small.nbytes + 16)
        cache.put(small)
        cache.put(big)
        counters = cache.counters()
        assert counters["evictions"] == 0 and counters["entries"] == 1
        assert cache.get(small.fingerprint) is small
        assert cache.get(big.fingerprint) is None  # uncached: rebuild on demand

    def test_eviction_spills_and_reloads_from_disk(self, tmp_path):
        first, second = self._tiny_index(5), self._tiny_index(6)
        # Either index fits alone (so neither takes the oversized fast path),
        # but not both together: inserting `second` must evict `first`.
        cache = IndexCache(
            max_bytes=max(first.nbytes, second.nbytes) + 1, spill_dir=str(tmp_path)
        )
        cache.put(first)
        cache.put(second)  # evicts `first` to disk
        assert cache.counters()["spill_saves"] == 1
        reloaded = cache.get(first.fingerprint)
        assert reloaded is not None
        assert reloaded.fingerprint == first.fingerprint
        assert cache.counters()["spill_loads"] == 1
        index, was_cached = cache.get_or_build(
            first.fingerprint, lambda: pytest.fail("builder must not run on a spill hit")
        )
        assert was_cached and index.fingerprint == first.fingerprint

    def test_corrupt_spill_file_degrades_to_rebuild(self, tmp_path):
        index = self._tiny_index(8)
        cache = IndexCache(max_bytes=1 << 30, spill_dir=str(tmp_path))
        spill_path = tmp_path / f"{index.fingerprint}.npz"
        spill_path.write_bytes(b"definitely not a zip archive")
        # The truncated file must be dropped and reported as a miss, not
        # crash this (and every later) lookup with BadZipFile.
        assert cache.get(index.fingerprint) is None
        assert not spill_path.exists()
        rebuilt, was_cached = cache.get_or_build(index.fingerprint, lambda: index)
        assert rebuilt is index and not was_cached

    def test_get_or_build_counts_and_fingerprint_guard(self):
        cache = IndexCache()
        index = self._tiny_index(7)
        built, was_cached = cache.get_or_build(index.fingerprint, lambda: index)
        assert built is index and not was_cached
        again, was_cached = cache.get_or_build(index.fingerprint, lambda: pytest.fail("cached"))
        assert again is index and was_cached
        with pytest.raises(ValueError, match="different fingerprint"):
            cache.get_or_build("deadbeef", lambda: index)


# ------------------------------------------------------------------- service
class TestQueryService:
    def _target(self, n=128, seed=20):
        return TargetSpec(kind="sequence", workload="random", n=n, seed=seed)

    def test_mixed_batch_builds_each_index_once(self):
        target = self._target()
        requests = [
            QueryRequest(op="lis_length", target=target, request_id="len"),
            QueryRequest(
                op="substring_query", target=target, request_id="sub", i=[0, 32], j=[64, 128]
            ),
            QueryRequest(op="window_sweep", target=target, request_id="sweep", width=32, step=16),
            QueryRequest(op="rank_interval_query", target=target, request_id="rank", x=0, y=128),
        ]
        service = QueryService()
        first = service.submit(requests)
        # position + value matrices: exactly two builds for four requests.
        assert first.indexes_built == 2 and first.indexes_reused == 0
        second = service.submit(requests)
        assert second.indexes_built == 0 and second.indexes_reused == 2
        assert all(outcome.cache_hit for outcome in second.outcomes)
        assert [o.result for o in first.outcomes] == [o.result for o in second.outcomes]

        seq = target.realise()
        by_id = first.by_id()
        assert by_id["len"].result == lis_length(seq)
        assert by_id["sub"].result == [lis_length(seq[0:64]), lis_length(seq[32:128])]
        assert by_id["rank"].result == lis_length(seq)  # full rank range
        assert len(by_id["sweep"].result) == len(range(0, 128 - 32 + 1, 16))

    def test_answers_bit_identical_across_modes(self):
        target = self._target(n=160, seed=21)
        requests = [
            QueryRequest(
                op="substring_query",
                target=target,
                request_id="sub",
                i=[0, 10, 40],
                j=[160, 90, 160],
            ),
            QueryRequest(op="lis_length", target=target, request_id="len"),
        ]
        results = [
            [o.result for o in QueryService(mode=mode).submit(requests).outcomes]
            for mode in MODES
        ]
        assert results[0] == results[1]

    def test_malformed_requests_fail_fast_with_request_id(self):
        target = self._target()
        bad_window = QueryRequest(
            op="substring_query", target=target, request_id="oops", i=[0], j=[9999]
        )
        with pytest.raises(ServiceRequestError, match="oops"):
            QueryService().submit([bad_window])
        with pytest.raises(ServiceRequestError, match="unknown op"):
            QueryService().submit([QueryRequest(op="nope", target=target, request_id="x")])
        with pytest.raises(ValueError, match="mode"):
            QueryService(mode="quantum")

    def test_empty_window_batch_is_served_not_crashed(self):
        target = self._target(n=64, seed=23)
        empty = QueryRequest(
            op="substring_query", target=target, request_id="empty", i=[], j=[]
        )
        outcome = QueryService().submit([empty]).outcomes[0]
        assert outcome.result == []
        assert outcome.result_summary() == {"count": 0, "min": None, "max": None, "checksum": 0}

    def test_stats_accumulate(self):
        service = QueryService()
        target = self._target(n=64, seed=22)
        service.submit([QueryRequest(op="lis_length", target=target, request_id="a")])
        service.submit([QueryRequest(op="lis_length", target=target, request_id="a")])
        stats = service.stats()
        assert stats["batches_served"] == 2
        assert stats["requests_served"] == 2
        assert stats["indexes_built"] == 1
        assert stats["cache"]["hits"] == 1


# ------------------------------------------------------------ requests schema
class TestRequestsDocument:
    def test_example_file_parses(self):
        import pathlib

        example = pathlib.Path(__file__).resolve().parents[1] / "examples" / "service_requests.json"
        document = json.loads(example.read_text(encoding="utf-8"))
        defaults, requests = parse_requests_document(document)
        assert defaults["mode"] == "mpc"
        assert len(requests) == 7
        kinds = {request.index_kind() for request in requests}
        assert kinds == {"lis:position", "lis:value", "lcs"}

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (lambda d: d.__setitem__("requests", []), "non-empty"),
            (lambda d: d.__setitem__("schema", "wrong"), "unknown requests schema"),
            (lambda d: d.__setitem__("version", 99), "newer than supported"),
            (lambda d: d["requests"][0].__setitem__("op", "frobnicate"), "unknown op"),
            (lambda d: d["requests"][0].pop("workload"), "exactly one way"),
            (
                lambda d: d["requests"][0].__setitem__("workload", "nope"),
                "unknown sequence workload",
            ),
            (lambda d: d["requests"][1].pop("j"), "needs 'i' and 'j'"),
            (lambda d: d["requests"][2].pop("width"), "needs 'width'"),
            (
                lambda d: d["requests"].__setitem__(
                    0, {"op": "lis_length", "sequence": [1, float("nan"), 2, 3]}
                ),
                "'sequence' must not contain NaN",
            ),
        ],
    )
    def test_malformed_documents_rejected(self, mutation, message):
        document = {
            "schema": "repro.service.requests",
            "version": 1,
            "requests": [
                {"op": "lis_length", "workload": "random", "n": 64, "seed": 1},
                {"op": "substring_query", "workload": "random", "n": 64, "seed": 1, "i": 0, "j": 8},
                {"op": "window_sweep", "workload": "random", "n": 64, "seed": 1, "width": 8},
            ],
        }
        mutation(document)
        with pytest.raises(ServiceRequestError, match=message):
            parse_requests_document(document)

    def test_non_scalar_workload_args_rejected_at_parse_time(self):
        # Lists would make the (hashable) TargetSpec grouping key blow up
        # with an opaque TypeError deep inside submit; reject them up front.
        with pytest.raises(ServiceRequestError, match="must be scalars"):
            parse_requests_document(
                {
                    "requests": [
                        {
                            "op": "lis_length",
                            "workload": "random",
                            "n": 32,
                            "workload_args": {"weights": [1, 2]},
                        }
                    ]
                }
            )

    def test_op_target_compatibility_enforced(self):
        with pytest.raises(ServiceRequestError, match="sequence target"):
            parse_requests_document(
                {"requests": [{"op": "lis_length", "string_workload": "random_pair", "n": 16}]}
            )
        with pytest.raises(ServiceRequestError, match="string-pair target"):
            parse_requests_document(
                {"requests": [{"op": "lcs_length", "workload": "random", "n": 16}]}
            )

    def test_refresh_requests_parse(self):
        document = {
            "schema": "repro.service.requests",
            "version": 2,
            "requests": [
                {"op": "refresh", "workload": "random", "n": 32, "seed": 2, "append": [7, 1, 9]}
            ],
        }
        _, requests = parse_requests_document(document)
        assert requests[0].op == "refresh"
        assert requests[0].append == (7.0, 1.0, 9.0)
        assert requests[0].index_kind() == "lis:value"

    def test_refresh_requires_append_and_sequence_target(self):
        with pytest.raises(ServiceRequestError, match="needs 'append'"):
            parse_requests_document(
                {"requests": [{"op": "refresh", "workload": "random", "n": 16}]}
            )
        with pytest.raises(ServiceRequestError, match="sequence target"):
            parse_requests_document(
                {
                    "requests": [
                        {"op": "refresh", "string_workload": "random_pair", "n": 16, "append": [1]}
                    ]
                }
            )

    def test_version_1_documents_still_parse(self):
        document = {
            "schema": "repro.service.requests",
            "version": 1,
            "requests": [{"op": "lis_length", "workload": "random", "n": 16, "seed": 1}],
        }
        _, requests = parse_requests_document(document)
        assert requests[0].op == "lis_length"

    def test_cli_default_seed_applies_only_when_target_omits_seed(self):
        document = {
            "requests": [
                {"op": "lis_length", "workload": "random", "n": 16},
                {"op": "lis_length", "workload": "random", "n": 16, "seed": 3},
            ]
        }
        _, requests = parse_requests_document(document, default_seed=9)
        assert requests[0].target.seed == 9
        assert requests[1].target.seed == 3
        _, requests = parse_requests_document(document)
        assert requests[0].target.seed == 0


# -------------------------------------------------------------------- refresh
class TestRefresh:
    def test_refresh_patches_bit_identically_and_reinserts(self):
        service = QueryService()
        target = TargetSpec(kind="sequence", workload="random", n=96, seed=4)
        appended = (5.0, 1.0, 99.0)
        batch = service.submit(
            [QueryRequest(op="refresh", target=target, request_id="r", append=appended)]
        )
        outcome = batch.by_id()["r"]
        extended = np.concatenate(
            [np.asarray(target.realise(), dtype=np.float64), appended]
        )
        rebuilt = build_lis_index(extended, kind="lis:value")
        assert outcome.index_fingerprint == rebuilt.fingerprint
        assert outcome.result == rebuilt.full_length()
        patched = service.cache.get(rebuilt.fingerprint)
        assert patched is not None, "patched index must be re-inserted into the cache"
        assert patched.semilocal.matrix == rebuilt.semilocal.matrix
        assert patched.provenance["mode"] == "refresh"
        assert patched.provenance["appended"] == len(appended)
        assert service.stats()["indexes_refreshed"] == 1

    def test_refresh_reuses_a_cached_base_index(self):
        service = QueryService()
        target = TargetSpec(kind="sequence", workload="random", n=64, seed=5)
        service.submit(
            [QueryRequest(op="rank_interval_query", target=target, request_id="warm", x=0, y=64)]
        )
        batch = service.submit(
            [QueryRequest(op="refresh", target=target, request_id="r", append=(1.0,))]
        )
        assert batch.by_id()["r"].cache_hit, "the base index build must be amortised"
        assert batch.indexes_reused == 1

    def test_refreshed_index_serves_follow_up_inline_queries(self):
        service = QueryService()
        target = TargetSpec(kind="sequence", workload="random", n=48, seed=6)
        service.submit(
            [QueryRequest(op="refresh", target=target, request_id="r", append=(7.0, 2.0))]
        )
        extended = tuple(
            np.concatenate([np.asarray(target.realise(), dtype=np.float64), [7.0, 2.0]]).tolist()
        )
        inline = TargetSpec(kind="sequence", data=extended)
        batch = service.submit(
            [QueryRequest(op="rank_interval_query", target=inline, request_id="q", x=0, y=50)]
        )
        outcome = batch.by_id()["q"]
        assert outcome.cache_hit, "the refreshed index must serve the extended target"
        assert outcome.result == lis_length(np.asarray(extended))

    def test_refresh_strictness_is_respected(self):
        sequence = np.asarray([2.0, 2.0, 2.0, 2.0])
        target = TargetSpec(kind="sequence", data=tuple(sequence.tolist()))
        service = QueryService()
        batch = service.submit(
            [
                QueryRequest(
                    op="refresh", target=target, request_id="r", append=(2.0, 2.0), strict=False
                )
            ]
        )
        assert batch.by_id()["r"].result == 6  # non-decreasing chain of equal values

    def test_refresh_rejects_empty_append(self):
        service = QueryService()
        target = TargetSpec(kind="sequence", data=(1.0, 2.0))
        with pytest.raises(ServiceRequestError, match="at least one appended symbol"):
            service.refresh(target, np.empty(0))


# ----------------------------------------------------------------- serve CLI
class TestServeCLI:
    def _write_requests(self, tmp_path, n=96):
        document = {
            "schema": "repro.service.requests",
            "version": 1,
            "defaults": {"mode": "sequential"},
            "requests": [
                {"op": "lis_length", "workload": "random", "n": n, "seed": 2, "id": "len"},
                {
                    "op": "substring_query",
                    "workload": "random",
                    "n": n,
                    "seed": 2,
                    "i": [0, 16],
                    "j": [n, 64],
                    "id": "sub",
                },
            ],
        }
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(document))
        return path

    def test_serve_writes_validated_artifact_with_cache_hits(self, tmp_path, capsys):
        requests_path = self._write_requests(tmp_path)
        artifact_path = tmp_path / "serve.json"
        code = cli_main(
            [
                "serve",
                "--requests",
                str(requests_path),
                "--repeat",
                "2",
                "--artifact",
                str(artifact_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "submission 2/2" in out
        document = load_artifact(str(artifact_path))
        assert document["experiment"] == "serve"
        assert len(document["points"]) == 4  # 2 requests x 2 submissions
        assert document["service"]["cache"]["hits"] >= 1
        hits = [point["metrics"]["cache_hit"] for point in document["points"]]
        assert hits == [False, False, True, True]
        assert cli_main(["validate", str(artifact_path)]) == 0

    def test_serve_ignores_unknown_defaults(self, tmp_path, capsys):
        # Documents written for older builds may still carry "backend".
        path = self._write_requests(tmp_path)
        document = json.loads(path.read_text())
        document["defaults"]["backend"] = "process"
        path.write_text(json.dumps(document))
        artifact_path = tmp_path / "serve.json"
        assert cli_main(["serve", "--requests", str(path), "--artifact", str(artifact_path)]) == 0
        document = load_artifact(str(artifact_path))
        assert "backend" not in document["fixed"]
        assert "backend" not in document["service"]

    def test_serve_rejects_bad_inputs(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli_main(["serve", "--requests", str(missing)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"requests": []}')
        assert cli_main(["serve", "--requests", str(bad)]) == 1


# -------------------------------------------------- service_throughput spec
class TestServiceThroughputSpec:
    def test_point_answers_match_a_rebuild(self):
        row = run_service_throughput_point(workload="random", batch=16, n=256, seed=7)
        target = TargetSpec(kind="sequence", workload="random", n=256, seed=7)
        i, j = _service_query_windows(256, 16, 7)
        oracle = build_lis_index(target.realise()).query_substrings(i, j)
        assert row["answers_checksum"] == weighted_checksum(oracle)
        assert row["cache_hits"] >= 1 and row["cache_misses"] >= 1
        assert row["speedup"] > 1.0

    def test_checks_reject_an_unexercised_cache(self):
        from repro.experiments import PointResult

        good = run_service_throughput_point("random", 8, n=128, seed=7)
        cold = dict(good, cache_hits=0)
        params = {"workload": "random", "batch": 8}
        check_service_throughput([PointResult(params=params, metrics=good)])
        with pytest.raises(AssertionError, match="not exercised"):
            check_service_throughput([PointResult(params=params, metrics=cold)])


# ------------------------------------------------------- lenient parsing (v2)
class TestLenientParsing:
    """The per-request validation gap: one bad op must not abort the batch."""

    def _batch(self, bad_entry):
        return {
            "schema": "repro.service.requests",
            "version": 2,
            "requests": [
                {"op": "lis_length", "id": "good0", "workload": "random", "n": 64, "seed": 7},
                bad_entry,
                {"op": "substring_query", "id": "good2", "workload": "random", "n": 64,
                 "seed": 7, "i": 0, "j": 32},
            ],
        }

    def test_malformed_op_becomes_per_request_error(self):
        from repro.service import parse_requests_lenient

        document = self._batch({"op": "bogus", "id": "bad1", "workload": "random", "n": 64})
        defaults, parsed, errors = parse_requests_lenient(document)
        assert [idx for idx, _ in parsed] == [0, 2]
        assert [request.request_id for _, request in parsed] == ["good0", "good2"]
        assert len(errors) == 1
        assert errors[0]["index"] == 1 and errors[0]["id"] == "bad1"
        assert "unknown op" in errors[0]["error"]

    @pytest.mark.parametrize(
        "bad_entry",
        [
            {"op": "lis_length"},  # no target
            {"op": "substring_query", "workload": "random", "n": 64},  # missing i/j
            {"op": "lis_length", "string_workload": "correlated_pair", "n": 64},  # kind mismatch
            "not-an-object",
            {"op": "lis_length", "workload": "nope", "n": 64},  # unknown workload
            {"op": "lis_length", "sequence": [1, float("nan"), 2, 3]},  # unordered symbol
        ],
    )
    def test_every_malformation_is_isolated(self, bad_entry):
        from repro.service import parse_requests_lenient

        _, parsed, errors = parse_requests_lenient(self._batch(bad_entry))
        assert len(parsed) == 2 and len(errors) == 1
        assert errors[0]["index"] == 1

    def test_strict_parser_still_aborts_whole_batch(self):
        # Pins the historical strict behaviour the CLI depends on.
        document = self._batch({"op": "bogus", "workload": "random", "n": 64})
        with pytest.raises(ServiceRequestError, match="unknown op"):
            parse_requests_document(document)

    def test_malformed_envelope_still_raises(self):
        from repro.service import parse_requests_lenient

        for document in ({"schema": "wrong"}, {"requests": []}, [], {"requests": "x"}):
            with pytest.raises(ServiceRequestError):
                parse_requests_lenient(document)

    def test_anonymous_bad_entries_get_positional_ids(self):
        from repro.service import parse_requests_lenient

        _, _, errors = parse_requests_lenient(self._batch({"op": "bogus", "workload": "random", "n": 4}))
        assert errors[0]["id"] == "r1"


# ------------------------------------------------------------- ensure_index
class TestEnsureIndex:
    def test_defaults_kind_by_target_and_caches(self):
        service = QueryService(cache=IndexCache())
        target = TargetSpec(kind="sequence", workload="random", n=128, seed=7)
        index, was_cached = service.ensure_index(target)
        assert index.kind == "lis:position" and not was_cached
        again, was_cached = service.ensure_index(target)
        assert was_cached and again.fingerprint == index.fingerprint

        pair = TargetSpec(kind="string_pair", workload="correlated_pair", n=64, seed=3)
        index, _ = service.ensure_index(pair)
        assert index.kind == "lcs"

    def test_rejects_incompatible_kind(self):
        service = QueryService(cache=IndexCache())
        sequence = TargetSpec(kind="sequence", workload="random", n=64, seed=7)
        pair = TargetSpec(kind="string_pair", workload="correlated_pair", n=64, seed=3)
        with pytest.raises(ServiceRequestError, match="does not fit"):
            service.ensure_index(sequence, "lcs")
        with pytest.raises(ServiceRequestError, match="does not fit"):
            service.ensure_index(pair, "lis:position")
        with pytest.raises(ServiceRequestError, match="unknown index kind"):
            service.ensure_index(sequence, "bogus")

    def test_fingerprint_memo_keeps_no_inline_sequence(self):
        """Inline targets are fingerprinted from the content they carry, so a
        stream of fresh sequences leaves nothing behind once evicted."""
        service = QueryService(cache=IndexCache())
        rng = np.random.default_rng(4)
        for _ in range(5):
            inline = TargetSpec(kind="sequence", data=tuple(rng.permutation(40).tolist()))
            batch = service.submit([QueryRequest(op="lis_length", target=inline)])
            assert not batch.outcomes[0].cache_hit
        again = service.submit([QueryRequest(op="lis_length", target=inline)])
        assert again.outcomes[0].cache_hit and again.outcomes[0].result == batch.outcomes[0].result
        named = TargetSpec(kind="sequence", workload="random", n=64, seed=7)
        service.submit([QueryRequest(op="lis_length", target=named)])
        assert list(service._fingerprints) == [(named, "lis:position", True)]

    def test_shares_fingerprints_with_submit(self):
        service = QueryService(cache=IndexCache())
        target = TargetSpec(kind="sequence", workload="random", n=128, seed=7)
        service.ensure_index(target, "lis:position")
        batch = service.submit(
            [QueryRequest(op="lis_length", target=target, request_id="q")]
        )
        assert batch.outcomes[0].cache_hit
