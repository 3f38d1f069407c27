"""FrameworkConfig.engine_schedule: validation, threading, equivalence.

PR 7 lets a framework run ask its engine-mode protocols (BFS setup,
upcast convergecast, downcast broadcast) to execute column-major.  The
knob must validate, reach the oracle, and — being an oracle-checked
optimization — leave every measured quantity bit-identical.
"""

import pytest

from repro.congest import topologies
from repro.core.framework import (
    DistributedInput,
    FrameworkConfig,
    invalidate_prepared,
    run_framework,
)
from repro.core.semigroup import sum_semigroup

K = 12


@pytest.fixture
def network():
    return topologies.grid(3, 4)


@pytest.fixture
def di(network):
    vectors = {
        v: [(v + 2 * j) % 4 for j in range(K)] for v in network.nodes()
    }
    return DistributedInput(vectors, sum_semigroup(4 * network.n))


def algorithm(oracle, _rng):
    first = oracle.query_batch([0, 1], label="a")
    second = oracle.query_batch([2, 3], label="b")
    return first + second


class TestValidation:
    def test_config_rejects_unknown_schedule(self):
        with pytest.raises(ValueError, match="engine_schedule"):
            FrameworkConfig(parallelism=1, engine_schedule="eager")

    def test_default_is_active(self):
        assert FrameworkConfig(parallelism=1).engine_schedule == "active"


class TestEquivalence:
    @pytest.mark.parametrize("mode", ["formula", "engine"])
    def test_vectorized_run_is_bit_identical(self, network, di, mode):
        invalidate_prepared()
        runs = {}
        for schedule in ("active", "vectorized"):
            config = FrameworkConfig(
                parallelism=3, dist_input=di, seed=1, mode=mode,
                engine_schedule=schedule,
            )
            runs[schedule] = run_framework(network, algorithm, config=config)
        a, v = runs["active"], runs["vectorized"]
        assert a.result == v.result
        assert a.total_rounds == v.total_rounds
        assert a.rounds.by_phase() == v.rounds.by_phase()
        assert a.batches == v.batches
        invalidate_prepared()

    def test_replace_builds_vectorized_variant(self, di):
        base = FrameworkConfig(parallelism=2, dist_input=di)
        variant = base.replace(engine_schedule="vectorized")
        assert variant.engine_schedule == "vectorized"
        assert base.engine_schedule == "active"
