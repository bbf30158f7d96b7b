"""Tests for the Q-index baseline (related-work scheme)."""

import pytest

from repro.baselines import PRDSimulation, QIndexSimulation
from repro.simulation import Scenario

TINY = Scenario(
    num_objects=100,
    num_queries=8,
    mean_speed=0.02,
    mean_period=0.1,
    q_len=0.08,
    k_max=3,
    grid_m=6,
    duration=1.2,
    sample_interval=0.1,
    seed=4,
)


class TestQIndexSimulation:
    def test_validation(self):
        with pytest.raises(ValueError):
            QIndexSimulation(TINY, t_prd=0)

    def test_report_fields(self):
        report = QIndexSimulation(TINY, t_prd=0.3).run()
        assert report.scheme == "QIDX(0.3)"
        assert report.costs.probes == 0
        assert report.num_objects == TINY.num_objects

    def test_same_communication_as_prd(self):
        """Q-index changes the server, not the client protocol."""
        qidx = QIndexSimulation(TINY, t_prd=0.2).run()
        prd = PRDSimulation(TINY, t_prd=0.2).run()
        assert qidx.costs.updates == prd.costs.updates

    def test_same_accuracy_as_prd(self):
        """Both schemes see identical snapshots at identical instants."""
        qidx = QIndexSimulation(TINY, t_prd=0.2).run()
        prd = PRDSimulation(TINY, t_prd=0.2).run()
        assert qidx.accuracy == pytest.approx(prd.accuracy, abs=1e-9)

    def test_results_match_prd_with_delay(self):
        scenario = TINY.with_overrides(delay=0.05)
        qidx = QIndexSimulation(scenario, t_prd=0.2).run()
        prd = PRDSimulation(scenario, t_prd=0.2).run()
        assert qidx.accuracy == pytest.approx(prd.accuracy, abs=1e-9)

    def test_incremental_membership_is_correct(self):
        """Every batch answer equals PRD's and the truth at that instant.

        Accuracy alone cannot tell two different wrong answers apart, so
        each ``_evaluate_batch`` snapshot of both schemes is recorded and
        compared query by query, with and without communication delay.
        At ``TINY``'s speed no object enters or leaves a range query, so
        the objects move ten times faster here.
        """
        for delay in (0.0, 0.05):
            scenario = TINY.with_overrides(delay=delay, mean_speed=0.2)
            qidx = QIndexSimulation(scenario, t_prd=0.1)
            prd = PRDSimulation(scenario, t_prd=0.1, truth=qidx.truth)
            qidx_log = _record_batches(qidx)
            prd_log = _record_batches(prd)
            qidx.run()
            prd.run()
            assert len(qidx_log) == 13
            assert [t for t, _ in qidx_log] == [t for t, _ in prd_log]
            for (t, got), (_, prd_got) in zip(qidx_log, prd_log):
                assert got == prd_got == qidx.truth.evaluate_at(t), (delay, t)
            left = sum(
                len(before[q.query_id] - after[q.query_id])
                for (_, before), (_, after) in zip(qidx_log, qidx_log[1:])
                for q in qidx.range_queries
            )
            assert left > 0  # memberships were dropped, not only added

    def test_runner_integration(self):
        from repro.experiments.runner import run_schemes

        reports = run_schemes(TINY, schemes=("QIDX(0.2)",))
        assert "QIDX(0.2)" in reports


def _record_batches(sim):
    """Wrap ``sim._evaluate_batch`` to log each ``(t, snapshot)`` it returns."""
    log = []
    evaluate = sim._evaluate_batch

    def recorded(t, *args):
        results = evaluate(t, *args)
        log.append((t, results))
        return results

    sim._evaluate_batch = recorded
    return log
