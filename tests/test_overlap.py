"""Algorithm OVERLAP end to end (Theorems 2, 3, 6)."""

import math

import numpy as np
import pytest

from repro.core.overlap import (
    simulate_overlap,
    simulate_overlap_on_graph,
    work_efficient_block,
)
from repro.machine.host import HostArray
from repro.machine.programs import KeyedStoreProgram, TokenProgram
from repro.topology.delays import bimodal_delays, pareto_delays
from repro.topology.generators import now_cluster_host


def now_host(n=128, seed=0, far=64):
    rng = np.random.default_rng(seed)
    return HostArray(bimodal_delays(n - 1, rng, near=1, far=far, p_far=0.05))


class TestEndToEnd:
    def test_verified_run_uniform(self):
        res = simulate_overlap(HostArray.uniform(64, 2), steps=8)
        assert res.verified
        assert res.slowdown > 0
        assert res.load <= 2

    def test_verified_run_skewed(self):
        res = simulate_overlap(now_host(), steps=12)
        assert res.verified
        # m is a constant fraction of n (Lemma 4).
        assert res.m >= 64 // 2

    def test_beats_lockstep_on_skewed_host(self):
        host = now_host(128, seed=1, far=256)
        res = simulate_overlap(host, steps=16)
        assert res.slowdown < host.d_max + 1

    def test_alternate_programs(self):
        res = simulate_overlap(now_host(64, 2), program=TokenProgram(), steps=8)
        assert res.verified
        res2 = simulate_overlap(
            HostArray.uniform(32, 2), program=KeyedStoreProgram(), steps=6
        )
        assert res2.verified

    def test_summary_keys(self):
        res = simulate_overlap(HostArray.uniform(32), steps=4)
        s = res.summary()
        for key in ("n", "m", "slowdown", "load", "verified", "redundancy"):
            assert key in s

    def test_default_steps_one_round(self):
        res = simulate_overlap(HostArray.uniform(64, 2))
        assert res.steps == max(4, res.killing.params.m_int(0))

    def test_no_verify_skips_reference(self):
        res = simulate_overlap(HostArray.uniform(32), steps=4, verify=False)
        assert not res.verified

    def test_efficiency_bounded(self):
        res = simulate_overlap(HostArray.uniform(64, 1), steps=16)
        assert 0 < res.efficiency() <= 1.0


class TestWorkEfficient:
    def test_block_factor_grows_guest(self):
        host = HostArray.uniform(32, 2)
        base = simulate_overlap(host, steps=6)
        blocked = simulate_overlap(host, steps=6, block=4)
        assert blocked.m == 4 * base.m
        assert blocked.verified
        assert blocked.load <= 4 * base.load

    def test_blocking_improves_efficiency(self):
        host = HostArray.uniform(32, 8)
        base = simulate_overlap(host, steps=6)
        blocked = simulate_overlap(host, steps=6, block=8)
        assert blocked.efficiency() > base.efficiency()

    def test_work_efficient_block_formula(self):
        host = HostArray.uniform(64, 4)
        beta = work_efficient_block(host, polylog_exponent=1)
        assert beta == round(4 * 6)
        assert work_efficient_block(host, 0) == 4


class TestOnGraph:
    def test_now_cluster(self):
        hg = now_cluster_host(6, 6, intra_delay=1, inter_delay=24)
        res = simulate_overlap_on_graph(hg, steps=8)
        assert res.verified
        assert res.embedding is not None
        assert res.embedding.dilation <= 3

    def test_schedule_bound_reported(self):
        res = simulate_overlap(HostArray.uniform(64, 2), steps=8)
        assert res.schedule_slowdown_bound() > 0

    def test_forced_dead_graph_nodes_are_translated(self):
        hg = now_cluster_host(4, 6, intra_delay=1, inter_delay=12)
        dead = {next(iter(hg.graph.nodes))}
        res = simulate_overlap_on_graph(hg, steps=6, forced_dead=dead)
        assert res.verified
        # The failed workstation must not survive as a working position.
        position_of = res.embedding.position_of()
        for v in dead:
            assert not res.killing.live[position_of[v]]

    def test_forced_dead_unknown_node_rejected(self):
        hg = now_cluster_host(3, 4)
        with pytest.raises(ValueError, match="not in the host graph"):
            simulate_overlap_on_graph(hg, steps=6, forced_dead={"nope"})

    def test_faults_and_recovery_reach_the_embedded_run(self):
        from repro.netsim.faults import FaultPlan, RecoveryPolicy

        hg = now_cluster_host(4, 6, intra_delay=1, inter_delay=12)
        n = hg.graph.number_of_nodes()
        plan = FaultPlan().crash(n // 2, time=2)
        res = simulate_overlap_on_graph(
            hg,
            steps=6,
            faults=plan,
            recovery=RecoveryPolicy(),
            min_copies=2,
            verify=True,
        )
        assert res.verified
        assert res.exec_result.stats.crashed_nodes >= 1


class TestScaling:
    def test_blocking_hides_dmax(self):
        """The headline mechanism: the latency-amortisation window is
        the column-overlap width, so the work-efficient (blocked)
        variant's slowdown is nearly d_max-independent while the
        load-1 variant tracks d_max (Section 3.3's reason to exist)."""

        def sweep(block):
            out = []
            for F in (64, 1024):
                delays = [1] * 127
                delays[63] = F  # long link at the top-level split
                res = simulate_overlap(
                    HostArray(delays), steps=24, block=block, verify=False
                )
                out.append(res.slowdown)
            return out

        thin = sweep(1)
        fat = sweep(16)
        # 16x more d_max: load-1 grows nearly linearly, blocked barely.
        assert thin[1] / thin[0] > 8
        assert fat[1] / fat[0] < 4

    def test_assignment_requires_usable_processors(self):
        from repro.core.assignment import assign_databases
        from repro.core.killing import kill_and_label

        host = HostArray.uniform(16, 2)
        res = kill_and_label(host)
        # Artificially remove the root to exercise the guard.
        res.tree.root.removed = True
        with pytest.raises(ValueError):
            assign_databases(res)
