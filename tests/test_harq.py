"""Tests for MAC-layer HARQ retransmission."""

import numpy as np
import pytest

from repro import CellSimulation, SimConfig
from repro.mac.harq import HarqEntity, HarqProcess
from repro.net.packet import FiveTuple, Packet


def make_entity(seed=0, rtt_us=8_000, max_retx=3, gain=0.3):
    return HarqEntity(
        seed, rtt_us=rtt_us, max_retx=max_retx,
        combining_gain=gain,
    )


class TestHarqEntity:
    def test_initial_failure_registers_pending(self):
        entity = make_entity()
        process = entity.on_initial_failure(["tb"], 1000, 0.1, now_us=0)
        assert process is not None
        assert entity.has_pending
        assert entity.pending_bytes == 1000

    def test_not_due_before_rtt(self):
        entity = make_entity(rtt_us=8_000)
        entity.on_initial_failure(["tb"], 1000, 0.1, now_us=0)
        assert entity.due_processes(7_999) == []
        assert len(entity.due_processes(8_000)) == 1

    def test_successful_attempt_clears_pending(self):
        entity = make_entity(seed=1, gain=1e-9)  # near-certain success
        process = entity.on_initial_failure(["tb"], 1000, 0.5, 0)
        assert entity.attempt(process, 8_000) is True
        assert not entity.has_pending
        assert entity.retransmissions == 1

    def test_failed_attempt_rearms(self):
        entity = make_entity(seed=2, gain=1.0)
        process = entity.on_initial_failure(["tb"], 1000, 1.0, 0)
        assert entity.attempt(process, 8_000) is False
        assert entity.has_pending
        assert process.due_us == 16_000

    def test_abandon_after_max_retx(self):
        entity = make_entity(seed=3, max_retx=2, gain=1.0)
        process = entity.on_initial_failure(["tb"], 1000, 1.0, 0)
        entity.attempt(process, 8_000)   # attempt 2
        entity.attempt(process, 16_000)  # attempt 3 > max 2 -> abandon
        assert not entity.has_pending
        assert entity.abandoned == 1

    def test_max_retx_zero_abandons_immediately(self):
        entity = make_entity(max_retx=0)
        assert entity.on_initial_failure(["tb"], 1000, 0.1, 0) is None
        assert entity.abandoned == 1

    def test_combining_reduces_error_prob(self):
        process = HarqProcess(["tb"], 1000, 0.3, 8_000)
        process.next_attempt(0.3)
        assert process.error_prob == pytest.approx(0.09)

    def test_attempt_on_unknown_process_rejected(self):
        entity = make_entity()
        stray = HarqProcess(["tb"], 1000, 0.1, 0)
        with pytest.raises(ValueError):
            entity.attempt(stray, 0)

    def test_generator_is_built_at_the_first_draw(self):
        """The seed stands in for the generator until a retransmission
        draws; the draws are then ``default_rng(seed)``'s."""
        entity = make_entity(seed=5, gain=1.0)
        assert entity._rng is None
        process = entity.on_initial_failure(["tb"], 1000, 0.5, 0)
        assert entity._rng is None
        entity.attempt(process, 8_000)
        expected = np.random.default_rng(5)
        expected.random()
        assert entity._rng.random() == expected.random()

    def test_validation(self):
        with pytest.raises(ValueError):
            HarqEntity(0, rtt_us=0)
        with pytest.raises(ValueError):
            HarqEntity(0, rtt_us=1, max_retx=-1)
        with pytest.raises(ValueError):
            HarqEntity(0, rtt_us=1, combining_gain=0.0)


class TestHarqInSimulation:
    def test_harq_recovers_losses_in_um_mode(self):
        """With HARQ on, a lossy UM cell delivers without TCP timeouts
        dominating: far fewer residual losses than raw BLER."""
        cfg = SimConfig.lte_default(
            num_ues=4, load=0.4, seed=11, radio_bler=0.1, harq_enabled=True
        )
        sim = CellSimulation(cfg, scheduler="pf")
        res = sim.run(duration_s=2.0)
        retx = sum(h.retransmissions for h in sim.enb._harq)
        abandoned = sum(h.abandoned for h in sim.enb._harq)
        assert res.completed_flows > 0
        assert retx > 0
        assert abandoned < retx / 2  # most blocks recover

    def test_harq_improves_fct_under_loss(self):
        def run(harq):
            cfg = SimConfig.lte_default(
                num_ues=4, load=0.4, seed=11, radio_bler=0.08,
                harq_enabled=harq,
            )
            return CellSimulation(cfg, scheduler="pf").run(duration_s=2.5)

        with_harq = run(True)
        without = run(False)
        assert with_harq.avg_fct_ms() < without.avg_fct_ms()

    def test_harq_inert_without_bler(self):
        cfg = SimConfig.lte_default(num_ues=3, load=0.4, seed=1, radio_bler=0.0)
        sim = CellSimulation(cfg, scheduler="outran")
        sim.run(duration_s=1.0)
        assert sum(h.retransmissions for h in sim.enb._harq) == 0
