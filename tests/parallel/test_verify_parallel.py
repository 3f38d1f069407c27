"""The parallel verification sweep: the bit-identity contract and the
merged observability products.

Everything here sticks to the cheap experiments (sub-100ms each in
quick mode) so the whole module stays test-suite friendly while still
exercising real multi-process runs.
"""

import json

import pytest

from repro.experiments.runner import RunRequest, Verdict, verify_all
from repro.obs.jsonl import validate_jsonl
from repro.parallel import TaskFailure, verify_parallel

FAST = ["E4", "E5", "E14", "E15", "E17"]


def _tuples(verdicts):
    return [(v.experiment, v.passed, v.detail) for v in verdicts]


class TestBitIdentity:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_parallel_matches_serial(self, jobs):
        request = RunRequest(experiments=tuple(FAST))
        serial = verify_all(request)
        parallel = verify_all(request.replace(jobs=jobs))
        assert _tuples(parallel) == _tuples(serial)
        assert all(isinstance(v, Verdict) for v in parallel)

    def test_nonzero_seed_matches_too(self):
        only = ["E15", "E17"]
        request = RunRequest(experiments=tuple(only), seed=3)
        serial = verify_all(request)
        parallel = verify_all(request.replace(jobs=2))
        assert _tuples(parallel) == _tuples(serial)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="E99"):
            verify_parallel(only=["E99"], jobs=2)


class TestFailureContainment:
    def test_timeout_yields_taskfailure_in_slot(self):
        sweep = verify_parallel(
            only=["E15", "E13"], jobs=2, timeout=0.05, retries=0
        )
        # E13 cannot finish in 50ms; E15 may or may not — every slot
        # must still be filled, and no exception may escape.
        assert len(sweep.verdicts) == 2
        assert any(isinstance(v, TaskFailure) for v in sweep.verdicts)
        for verdict in sweep.verdicts:
            if isinstance(verdict, TaskFailure):
                assert verdict.timed_out
                assert verdict in sweep.failures


class TestObservabilityMerge:
    def test_merged_products_equal_single_process_run(self, tmp_path):
        from repro.experiments import ALL_EXPERIMENTS
        from repro.obs import MetricsSink, Recorder, install

        only = ["E15", "E17"]
        merged_path = str(tmp_path / "merged.jsonl")
        sweep = verify_parallel(only=only, jobs=2, jsonl_path=merged_path)

        # One process, one sink, both experiments in sequence.
        single = MetricsSink()
        recorder = Recorder([single])
        with install(recorder):
            for name in only:
                ALL_EXPERIMENTS[name].run(quick=True, seed=0)
        recorder.close()

        assert sweep.metrics is not None
        assert sweep.metrics.summary() == single.summary()

    def test_merged_stream_is_valid_and_complete(self, tmp_path):
        merged_path = str(tmp_path / "merged.jsonl")
        sweep = verify_parallel(
            only=["E15", "E17"], jobs=2, jsonl_path=merged_path
        )
        assert sweep.jsonl_path == merged_path
        counts = validate_jsonl(merged_path)
        assert counts["meta"] == 1
        shard_total = 0
        for name in ["E15", "E17"]:
            shard_counts = validate_jsonl(
                str(tmp_path / "merged.jsonl.d" / f"{name}.jsonl")
            )
            shard_total += sum(shard_counts.values()) - 1  # minus meta
        assert sum(counts.values()) - 1 == shard_total


class TestCheckpointResume:
    def test_completed_experiments_replay_from_the_file(self, tmp_path):
        ckpt = str(tmp_path / "verify.ckpt.jsonl")
        first = verify_parallel(only=["E15", "E17"], jobs=2, checkpoint=ckpt)
        assert _tuples(first.verdicts) == _tuples(
            verify_all(RunRequest(experiments=("E15", "E17")))
        )

        # Tamper with the recorded E15 detail: if the resumed sweep
        # *replays* (rather than re-runs) it, the sentinel surfaces.
        lines = open(ckpt).read().splitlines()
        tampered = []
        for line in lines:
            record = json.loads(line)
            if record.get("key") == "E15":
                record["result"]["verdict"]["detail"] = "replayed-from-ckpt"
            tampered.append(json.dumps(record))
        with open(ckpt, "w") as fh:
            fh.write("\n".join(tampered) + "\n")

        second = verify_parallel(
            only=["E14", "E15", "E17"], jobs=2, checkpoint=ckpt
        )
        by_name = {v.experiment: v for v in second.verdicts}
        assert by_name["E15"].detail == "replayed-from-ckpt"
        # The experiment absent from the checkpoint really ran.
        assert by_name["E14"].detail == verify_all(
            RunRequest(experiments=("E14",))
        )[0].detail

    def test_resume_under_different_parameters_rejected(self, tmp_path):
        ckpt = str(tmp_path / "verify.ckpt.jsonl")
        verify_parallel(only=["E15"], jobs=1, seed=0, checkpoint=ckpt)
        with pytest.raises(ValueError, match="context"):
            verify_parallel(only=["E15"], jobs=1, seed=1, checkpoint=ckpt)


class TestRunnerValidation:
    def test_missing_criterion_reported_before_running(self, monkeypatch):
        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.runner import verify_experiment

        # An "E98" registered without a criterion: the drift this guards
        # against.  The stub has no .run, so reaching it would raise
        # AttributeError — the KeyError proves validation is up front.
        monkeypatch.setitem(ALL_EXPERIMENTS, "E98", object())
        with pytest.raises(KeyError, match="no reproduction criterion"):
            verify_experiment(RunRequest(experiments=("E98",)))

    def test_unknown_experiment_names_the_registry(self):
        from repro.experiments.runner import verify_experiment

        with pytest.raises(KeyError, match="available"):
            verify_experiment(RunRequest(experiments=("E99",)))
