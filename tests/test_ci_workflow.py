"""Sanity checks for the GitHub Actions workflow (.github/workflows/ci.yml).

CI cannot test itself before it is merged, so these run under tier-1: the
workflow must stay parseable, keep the documented job set, and — most
importantly — run the tier-1 command *exactly* as ROADMAP.md records it,
so local verification and CI can never drift apart.
"""

import pathlib
import re

import pytest

yaml = pytest.importorskip("yaml")
jsonschema = pytest.importorskip("jsonschema")

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: Light structural schema for the subset of the Actions grammar we use.
WORKFLOW_SCHEMA = {
    "type": "object",
    "required": ["name", "jobs"],
    "properties": {
        "name": {"type": "string"},
        "jobs": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {
                "type": "object",
                "required": ["runs-on", "steps"],
                "properties": {
                    "runs-on": {"type": "string"},
                    "steps": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "anyOf": [
                                {"required": ["uses"]},
                                {"required": ["run"]},
                            ],
                        },
                    },
                },
            },
        },
    },
}


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def test_workflow_parses_and_validates(workflow):
    jsonschema.validate(workflow, WORKFLOW_SCHEMA)
    # YAML 1.1 parses the `on:` trigger key as boolean True.
    triggers = workflow.get("on", workflow.get(True))
    assert triggers is not None
    assert "pull_request" in triggers and "push" in triggers


def test_expected_jobs_present(workflow):
    assert set(workflow["jobs"]) == {
        "lint", "test", "bench-smoke", "e2e-smoke", "bench-hotpath",
        "bench-shards", "fault-matrix", "profile-smoke",
    }


def test_concurrency_cancels_superseded_pr_runs(workflow):
    """Follow-up pushes to a PR cancel the superseded run; main never
    cancels, so every merge keeps its full CI record."""
    concurrency = workflow["concurrency"]
    assert "github.ref" in concurrency["group"]
    cancel = str(concurrency["cancel-in-progress"])
    assert "refs/heads/main" in cancel and "!=" in cancel


def test_every_job_caches_pip(workflow):
    """All jobs install from pip, so all jobs must restore the pip cache
    keyed on pyproject.toml."""
    for name, job in workflow["jobs"].items():
        setups = [
            step for step in job["steps"]
            if "setup-python" in step.get("uses", "")
        ]
        assert setups, name
        for step in setups:
            assert step["with"].get("cache") == "pip", name
            assert step["with"].get("cache-dependency-path") == (
                "pyproject.toml"
            ), name


def _runs(job):
    return [step["run"] for step in job["steps"] if "run" in step]


def _uploads(job):
    return [
        step for step in job["steps"]
        if "upload-artifact" in step.get("uses", "")
    ]


def _primary_uploads(job):
    """Unconditional artifact uploads (no ``if:`` guard)."""
    return [step for step in _uploads(job) if "if" not in step]


def test_tier1_command_matches_roadmap(workflow):
    roadmap = (ROOT / "ROADMAP.md").read_text()
    match = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap)
    assert match, "ROADMAP.md lost its tier-1 verify line"
    tier1 = match.group(1)
    assert tier1 in _runs(workflow["jobs"]["test"])


def test_test_job_covers_both_python_versions(workflow):
    matrix = workflow["jobs"]["test"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.11", "3.12"]


def test_lint_job_runs_ruff(workflow):
    runs = _runs(workflow["jobs"]["lint"])
    assert any("ruff check" in run for run in runs)


def test_bench_smoke_uploads_metrics_artifact(workflow):
    job = workflow["jobs"]["bench-smoke"]
    runs = _runs(job)
    assert any("benchmarks/test_scale_smoke.py" in run for run in runs)
    # Figures 7.2 and 7.3 are the only checks on the PRD baseline's CPU
    # and cost shapes; no other job runs them.
    assert any(
        "benchmarks/test_fig7_2_queries.py" in run
        and "benchmarks/test_fig7_3_objects.py" in run
        for run in runs
    )
    uploads = _primary_uploads(job)
    assert len(uploads) == 1
    # The metrics land in the gitignored scratch dir — bench runs never
    # churn the tracked results/ tree with regenerated side artifacts.
    assert uploads[0]["with"]["path"] == (
        "benchmarks/results/scratch/bench_metrics.json"
    )
    assert uploads[0]["with"]["if-no-files-found"] == "error"


def test_e2e_smoke_runs_the_ladder_then_its_tests(workflow):
    """The benchmark harness the pipeline judges PRs with (BENCHMARK.json)
    smokes in CI, by the documented commands and from the repository
    root: the ladder first, then the harness's own tests."""
    runs = _runs(workflow["jobs"]["e2e-smoke"])
    ladder = [
        i for i, run in enumerate(runs)
        if "python3 benchmarks/e2e/run.py --smoke" in run
    ]
    tests = [
        i for i, run in enumerate(runs)
        if "pytest benchmarks/e2e/test_e2e_smoke.py" in run
    ]
    assert ladder and tests
    assert ladder[0] < tests[0]
    # The same step gates start-up: bootstrap sends zero probes, single
    # and sharded (the ladder's comm_cost measures the monitoring loop).
    assert (
        "tests/test_bootstrap.py::test_engine_bootstrap_sends_no_probe"
        in runs[tests[0]]
    )
    # ... and the seam itself: first exits from the columnar pass equal
    # the per-client walk, and start-up leaves the collector as found.
    assert "tests/test_mobility.py::TestColumnarExitTimes" in runs[tests[0]]
    assert (
        "tests/test_bootstrap.py::test_start_up_restores_the_collector_state"
        in runs[tests[0]]
    )
    # ... and the leg columns under every loop: legs and reads equal the
    # scalar reference generator's, and no generator outlives a build.
    assert "tests/test_mobility.py::TestColumnarLegs" in runs[tests[0]]
    assert "tests/test_mobility.py::TestLegMemory" in runs[tests[0]]
    # ... and the movers as rows: no per-mover object after construction,
    # and the closed loop's exact counts pinned, whole file.
    assert "tests/test_mobility.py::TestMoverMemory" in runs[tests[0]]
    assert "tests/test_loop_fingerprint.py" in runs[tests[0]]
    # ... and the blockwise fleet reads: positions equal the per-row
    # reads, and the distance pass stays within its memory bound.
    assert "tests/test_mobility.py::TestBlockReads" in runs[tests[0]]
    assert "tests/test_loop_fingerprint.py::" not in runs[tests[0]]
    # ... and the streams those legs are drawn from: equal to NumPy's
    # generators, and the built worlds pinned by digest.
    assert "tests/test_streams.py" in runs[tests[0]]
    streams = (ROOT / "tests" / "test_streams.py").read_text()
    assert "def test_streams_follow_the_generators(" in streams
    assert "def test_built_worlds_do_not_move(" in streams
    mobility = (ROOT / "tests" / "test_mobility.py").read_text()
    assert "class TestColumnarExitTimes:" in mobility
    for name in (
        "class TestColumnarLegs:",
        "def test_legs_pin_the_scalar_reference(",
        "def test_reads_are_hex_equal_to_the_reference(",
        "class TestLegMemory:",
        "def test_built_trajectories_keep_no_generator(",
        "def test_a_leg_takes_at_most_64_bytes(",
        "class TestMoverMemory:",
        "def test_construction_keeps_no_per_mover_object(",
        "class TestBlockReads:",
        "def test_leg_boundaries_after_the_truth_moved_the_cursor(",
        "def test_the_distance_pass_reads_a_block_at_a_time(",
    ):
        assert name in mobility
    fingerprint = (ROOT / "tests" / "test_loop_fingerprint.py").read_text()
    assert "def test_loop_counts_do_not_move(" in fingerprint
    assert "def test_engine_and_truth_share_each_cursor(" in fingerprint
    assert "def test_heap_path_counts_do_not_move(" in fingerprint
    assert "def test_immediate_messages_are_counted_events(" in fingerprint
    start_up = (ROOT / "tests" / "test_bootstrap.py").read_text()
    assert "def test_start_up_restores_the_collector_state(" in start_up
    # ... and the monitoring loop's probes: a dense kNN world probes
    # only adjacent outsiders and records no probe_cascade.
    assert "tests/test_outsider_standoff.py" in runs[tests[0]]
    # ... and its reports: the file runs whole — no ``::`` selection —
    # so the storm regression (regions outlast a position poll) and the
    # quarantine-invariant sweep gate here too.
    assert "tests/test_outsider_standoff.py::" not in runs[tests[0]]
    dense_world = (ROOT / "tests" / "test_outsider_standoff.py").read_text()
    assert "def test_dense_world_regions_outlast_a_position_poll(" in dense_world
    assert "def test_dense_world_keeps_every_quarantine_invariant(" in dense_world
    # ... and the sharded report path shard_loop_20k runs, whole file:
    # partial lookup == membership scan, flat frames, merged deltas only,
    # and a multi-op shard batch equal to its ops run singly.
    assert "tests/test_sharded_reports.py" in runs[tests[0]]
    assert "tests/test_sharded_reports.py::" not in runs[tests[0]]
    # ... and the batch entry point equal to one-by-one reports through
    # the bulk loop and each of its gates.
    assert (
        "tests/test_server.py::TestBatchEqualsSequential" in runs[tests[0]]
    )
    # ... and the server's object table: no per-object ObjectState after
    # bootstrap, and the bytes per object and bootstrap peak pinned.
    assert "tests/test_server.py::TestObjectMemory" in runs[tests[0]]
    server_tests = (ROOT / "tests" / "test_server.py").read_text()
    assert "class TestObjectMemory:" in server_tests
    assert "def test_bootstrap_keeps_rows_not_objects(" in server_tests
    sharded = (ROOT / "tests" / "test_sharded_reports.py").read_text()
    for name in (
        "test_partial_lookup_equals_the_membership_scan",
        "test_wire_frames_decode_to_the_backend_outcome",
        "test_batch_reports_merged_deltas_only",
        "test_multi_op_batch_equals_the_ops_run_singly",
    ):
        assert f"def {name}(" in sharded
    # ... and the object index under every workload, whole file: the
    # cell index equals brute force, and degraded (wide) regions are
    # found by a case-1 browse and a range registration.
    assert "tests/test_cell_object_index.py" in runs[tests[0]]
    assert "tests/test_cell_object_index.py::" not in runs[tests[0]]
    cells = (ROOT / "tests" / "test_cell_object_index.py").read_text()
    for name in (
        "class CellIndexMachine(",
        "def test_range_registration_finds_a_wide_region(",
        "def test_knn_case_one_browse_finds_a_wide_region(",
    ):
        assert name in cells
    # ... and the one cell table, whole file: held cells stay the cells
    # of held positions through evictions and shard migrations, and the
    # migration export equals a brute-force scan.
    assert "tests/test_store_eviction_properties.py" in runs[tests[0]]
    assert "tests/test_store_eviction_properties.py::" not in runs[tests[0]]
    table = (ROOT / "tests" / "test_store_eviction_properties.py").read_text()
    for name in (
        "test_store_mirrors_object_table_through_evictions",
        "test_migration_preserves_cell_columns_and_generations",
        "test_sharded_migrations_keep_cell_residency_exact",
    ):
        assert f"def {name}(" in table
    # ... and the one tie rule, whole files: an exact tie at every site
    # falls to the id under closed boundaries, and random worlds (with
    # the tie world as an explicit example) stay exact.
    for path in ("tests/test_ties.py", "tests/test_end_to_end.py"):
        assert path in runs[tests[0]]
        assert f"{path}::" not in runs[tests[0]]
    ties = (ROOT / "tests" / "test_ties.py").read_text()
    for name in (
        "test_nearest_iter_ignores_insertion_order",
        "test_ids_registered_out_of_order",
        "test_tied_rows_on_two_shards_rank_by_id",
        "test_radius_onto_the_region_ends_the_certificate",
    ):
        assert f"def {name}(" in ties
    end_to_end = (ROOT / "tests" / "test_end_to_end.py").read_text()
    assert "@example(" in end_to_end
    assert "def test_monitoring_never_misses_a_change(" in end_to_end


def test_bench_hotpath_runs_smoke_and_uploads_baseline(workflow):
    job = workflow["jobs"]["bench-hotpath"]
    runs = _runs(job)
    assert any(
        "HOTPATH_SMOKE=1" in run
        and "benchmarks/test_hotpath_bench.py" in run
        for run in runs
    )
    uploads = _primary_uploads(job)
    assert len(uploads) == 1
    assert uploads[0]["with"]["path"] == (
        "benchmarks/results/BENCH_hotpath.json"
    )
    assert uploads[0]["with"]["if-no-files-found"] == "error"
    # The committed trajectory log is gated here too.
    assert any(
        "--trajectory benchmarks/results/BENCH_trajectory.json" in run
        for run in runs
    )


def test_bench_shards_pins_equivalence_and_uploads_baseline(workflow):
    job = workflow["jobs"]["bench-shards"]
    runs = _runs(job)
    assert any(
        "SHARDS_SMOKE=1" in run
        and "benchmarks/test_shards_bench.py" in run
        for run in runs
    )
    # A dedicated step re-reads the emitted JSON and exits non-zero when
    # the in-process sharded replay diverged from the single server.
    assert any("d['equivalent']" in run for run in runs)
    uploads = _primary_uploads(job)
    assert len(uploads) == 1
    assert uploads[0]["with"]["path"] == (
        "benchmarks/results/BENCH_shards.json"
    )
    assert uploads[0]["with"]["if-no-files-found"] == "error"


def test_bench_jobs_upload_flight_recorder_on_failure(workflow):
    """Every bench job archives flight-recorder spills when it fails.

    The upload is guarded by ``if: failure()`` (green runs stay light)
    and tolerates absent files — a job can fail before any recorder
    spill exists.
    """
    for name in ("bench-smoke", "bench-hotpath", "bench-shards"):
        job = workflow["jobs"][name]
        failure_uploads = [
            step for step in _uploads(job) if step.get("if") == "failure()"
        ]
        assert len(failure_uploads) == 1, name
        upload = failure_uploads[0]["with"]
        assert "flight" in upload["path"], name
        assert upload["if-no-files-found"] == "ignore", name


def test_profile_smoke_covers_both_deployments_and_gates(workflow):
    """The profile-smoke job runs ``repro profile`` single-server *and*
    sharded (exercising cross-process aggregation), verifies both phase
    budgets close via ``benchmarks/profile_gate.py``, gates bit-identity
    plus enabled-mode overhead, runs the timing seam's tests, and
    archives the folded-stack artifacts unconditionally
    (docs/OBSERVABILITY.md)."""
    job = workflow["jobs"]["profile-smoke"]
    runs = _runs(job)
    profile_runs = [run for run in runs if "repro profile" in run]
    assert len(profile_runs) == 2
    assert any("--shards 2" in run for run in profile_runs)
    assert all("--folded-out" in run for run in profile_runs)
    assert all("--profile-out" in run for run in profile_runs)
    # Structural verification covers both reports, with the sharded one
    # required to carry a per-shard sub-report for each of the 2 shards.
    verify = [run for run in runs if "profile_gate.py verify" in run]
    assert verify and any("--shards 2" in run for run in verify)
    # The contract gate: bit-identical disabled-mode output and < 5%
    # enabled-mode CPU overhead on the same scenario.
    assert any(
        "profile_gate.py gate" in run and "--threshold 0.05" in run
        for run in runs
    )
    # The seam's own tests: site table, tracer, server spans.
    assert any(
        "pytest" in run
        and all(
            test in run for test in (
                "tests/test_obs_profile.py",
                "tests/test_obs_trace.py",
                "tests/test_obs_server_integration.py",
            )
        )
        for run in runs
    )
    uploads = _primary_uploads(job)
    assert len(uploads) == 1
    assert "folded" in uploads[0]["with"]["path"]
    assert uploads[0]["with"]["if-no-files-found"] == "error"


def test_fault_matrix_runs_canned_profiles_through_diagnose(workflow):
    """The fault-matrix job drives the simulator under the three canned
    fault profiles and replays each recorder through ``repro diagnose``
    (which exits 1 on invariant violations), archiving the recorder when
    the job fails (docs/ROBUSTNESS.md)."""
    job = workflow["jobs"]["fault-matrix"]
    profiles = job["strategy"]["matrix"]["profile"]
    assert {p["name"] for p in profiles} == {
        "lossy", "dup-reorder", "probe-timeout", "shard-kill",
        "elastic-drill",
    }
    specs = {p["name"]: p["spec"] for p in profiles}
    assert "drop=" in specs["lossy"] and "dup=" in specs["lossy"]
    assert "dup=" in specs["dup-reorder"] and "delay=" in specs["dup-reorder"]
    assert "probe_timeout=" in specs["probe-timeout"]
    # The shard-failure drill runs the same faulted replay sharded and
    # hard-kills one shard mid-run; containment is checked by the same
    # diagnose step (degraded flags exempt the frozen members).
    extras = {p["name"]: p.get("extra", "") for p in profiles}
    assert "--shards" in extras["shard-kill"]
    assert "--kill-shard" in extras["shard-kill"]
    # The elasticity drill grows and shrinks the cluster mid-run with
    # refresh probes on; the reshard_consistency check in the same
    # diagnose step fails the job on any split home table.
    assert "--shards" in extras["elastic-drill"]
    assert "--reshard" in extras["elastic-drill"]
    assert "--refresh-probes" in extras["elastic-drill"]
    runs = _runs(job)
    compare = [i for i, run in enumerate(runs)
               if "repro compare" in run and "--faults" in run
               and "--fault-seed" in run and "--flight-recorder" in run
               and "matrix.profile.extra" in run]
    diagnose = [i for i, run in enumerate(runs)
                if "repro diagnose" in run]
    assert compare and diagnose
    assert compare[0] < diagnose[0], "must record before diagnosing"
    failure_uploads = [
        step for step in _uploads(job) if step.get("if") == "failure()"
    ]
    assert len(failure_uploads) == 1
    assert failure_uploads[0]["with"]["if-no-files-found"] == "ignore"


def test_bench_jobs_gate_throughput_against_stashed_baseline(workflow):
    """Baseline-producing bench jobs stash the committed JSON and gate.

    The benchmark overwrites its committed baseline in place, so the
    job must copy it aside *before* the run and hand both files to
    ``benchmarks/check_regression.py`` afterwards.
    """
    for name, artifact in (
        ("bench-hotpath", "BENCH_hotpath.json"),
        ("bench-shards", "BENCH_shards.json"),
    ):
        runs = _runs(workflow["jobs"][name])
        stash = [
            i for i, run in enumerate(runs)
            if f"cp benchmarks/results/{artifact}" in run
        ]
        gate = [
            i for i, run in enumerate(runs)
            if "check_regression.py" in run and artifact in run
        ]
        assert stash and gate, f"{name} missing stash or gate step"
        assert stash[0] < gate[0], f"{name} must stash before gating"
