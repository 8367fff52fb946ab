"""The multi_isp sweep: one unit per coordination, checkpoint/resume, CLI."""

from __future__ import annotations

import pickle
import re

import pytest

from repro.core.multi_session import (
    CoordinationRound,
    EdgeSessionRecord,
    MultiNegotiationResult,
)
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.internetwork import (
    MULTI_ISP_SCENARIO,
    run_multi_isp,
    run_multi_isp_experiment,
)
from repro.experiments.runner import CheckpointStore, sweep_fingerprint


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig.quick()


@pytest.fixture(scope="module")
def serial_result(config):
    return run_multi_isp_experiment(config, n_isps=3, rounds=3)


@pytest.fixture(scope="module")
def direct_signature(config, trajectory_signature):
    return trajectory_signature(run_multi_isp(config, n_isps=3, max_rounds=3))


_PARAMS = dict(MULTI_ISP_SCENARIO.default_params)
_PARAMS.update(n_isps=3, rounds=3)


def _store(path, config):
    return CheckpointStore(
        path, "multi_isp", sweep_fingerprint("multi_isp", config, _PARAMS)
    )


class TestAggregate:
    def test_trajectory_reports_relief(self, serial_result):
        result = serial_result
        assert result.initial_mel > 0
        assert result.final_mel <= result.initial_mel
        sessions = sum(round_.n_sessions for round_ in result.rounds)
        assert sessions >= len(result.edge_names)

    def test_summary_claims(self, serial_result):
        claims = dict(MULTI_ISP_SCENARIO.summarize(serial_result))
        # Executed rounds only: the run converged in round 1 of 3.
        assert claims["global MEL trajectory"] == "1.613 -> 1.375 -> 1.375"
        assert claims["converged"] == "after round 1"

    def test_records_carry_stop_reason(self, serial_result):
        assert serial_result.stop_reason == "converged"
        assert serial_result.converged


def _stopped_early(stop_reason):
    """A synthesized 2-edge coordination that stopped after round 1.

    Both executed rounds moved flows, so the run never converged; the
    stop reason alone says why it ended.
    """
    rounds = [
        CoordinationRound(
            round_index=round_index,
            order=(0, 1),
            records=[
                EdgeSessionRecord(
                    round_index=round_index, slot=edge, edge_index=edge,
                    pair_name=f"p{edge}", scope_size=1, ran_session=True,
                    adopted=True, n_changed=1,
                    mel_per_isp=(0.5, 0.5, 0.5), global_mel=0.5,
                )
                for edge in range(2)
            ],
        )
        for round_index in range(2)
    ]
    return MultiNegotiationResult(
        isp_names=("x", "y", "z"), edge_names=("p0", "p1"), rounds=rounds,
        converged=False, initial_mel_per_isp=(0.7, 0.6, 0.5),
        choices=[], defaults=[], stop_reason=stop_reason,
    )


class TestStopReason:
    """Non-converged runs report why they stopped, not a blanket limit."""

    def test_summary_reports_oscillating(self):
        result = _stopped_early("oscillating")
        claims = dict(MULTI_ISP_SCENARIO.summarize(result))
        assert claims["converged"] == "no (oscillating)"
        assert claims["global MEL trajectory"] == "0.700 -> 0.500 -> 0.500"

    def test_cli_reports_oscillating(self, capsys, monkeypatch):
        import repro.experiments.internetwork as internetwork
        from repro.cli import main

        monkeypatch.setattr(
            internetwork, "run_multi_isp_experiment",
            lambda *args, **kwargs: _stopped_early("oscillating"),
        )
        assert main([
            "multi-isp", "--preset", "quick", "--isps", "3",
            "--rounds", "3", "--damping", "off",
        ]) == 0
        out = capsys.readouterr().out
        assert "measured: no (oscillating)" in out
        assert "round limit" not in out


class TestRoundsValidation:
    @pytest.mark.parametrize("rounds", [0, -2])
    def test_non_positive_rounds_rejected(self, config, rounds):
        # Zero rounds would run nothing and report the initial state.
        with pytest.raises(ConfigurationError, match="rounds"):
            run_multi_isp_experiment(config, n_isps=3, rounds=rounds)

    def test_cli_rejects_zero_rounds(self):
        from repro.cli import main

        with pytest.raises(ConfigurationError, match="rounds"):
            main(["multi-isp", "--preset", "quick", "--rounds", "0"])

    @pytest.mark.parametrize("overrides", [
        {},
        {"n_isps": 3, "rounds": 1},
        {"n_isps": 6, "shape": "random", "rounds": 12},
        {"n_isps": 4, "shape": "ring", "order": "random"},
    ])
    def test_one_unit_per_coordination(self, config, overrides):
        params = {**MULTI_ISP_SCENARIO.default_params, **overrides}
        units = MULTI_ISP_SCENARIO.enumerate_units(config, params)
        assert len(units) == 1


class TestWorkerInvariance:
    """Serial, checkpointed and resumed runs return the same coordination."""

    def test_checkpoint_then_resume_bit_identical(
        self, config, direct_signature, trajectory_signature, tmp_path
    ):
        checkpointed = run_multi_isp_experiment(
            config, n_isps=3, rounds=3, checkpoint_dir=tmp_path / "ck"
        )
        assert trajectory_signature(checkpointed) == direct_signature
        assert _store(tmp_path / "ck", config).completed(1) == {0}
        resumed = run_multi_isp_experiment(
            config, n_isps=3, rounds=3,
            checkpoint_dir=tmp_path / "ck", resume=True,
        )
        assert trajectory_signature(resumed) == direct_signature

    def test_interrupt_then_resume_bit_identical(
        self, config, direct_signature, trajectory_signature, tmp_path
    ):
        """Losing the shard must recompute it bit-identically."""
        run_multi_isp_experiment(
            config, n_isps=3, rounds=3, checkpoint_dir=tmp_path / "ck"
        )
        # Simulate an interrupt before the one shard landed.
        _store(tmp_path / "ck", config).shard_path(0).unlink()
        resumed = run_multi_isp_experiment(
            config, n_isps=3, rounds=3,
            checkpoint_dir=tmp_path / "ck", resume=True,
        )
        assert trajectory_signature(resumed) == direct_signature

    def test_stale_fingerprint_refuses_resume(self, config, tmp_path):
        run_multi_isp_experiment(
            config, n_isps=3, rounds=3, checkpoint_dir=tmp_path / "ck"
        )
        with pytest.raises(ConfigurationError, match="refusing to resume"):
            run_multi_isp_experiment(
                config, n_isps=3, rounds=2,
                checkpoint_dir=tmp_path / "ck", resume=True,
            )

    def test_grid_checkpoint_refuses_resume_by_unit_count(
        self, config, tmp_path
    ):
        # A checkpoint of the same params laid out as one unit per
        # (edge, round) cell: 2 edges x 3 rounds.
        _store(tmp_path / "ck", config).prepare(6, resume=False)
        with pytest.raises(
            ConfigurationError, match="stored unit count 6 != current 1"
        ):
            run_multi_isp_experiment(
                config, n_isps=3, rounds=3,
                checkpoint_dir=tmp_path / "ck", resume=True,
            )

    def test_foreign_shard_refuses_resume(self, config, tmp_path):
        store = _store(tmp_path / "ck", config)
        store.prepare(1, resume=False)
        # A readable shard that is not a coordination result, e.g. one
        # record of an older single-unit layout.
        with store.shard_path(0).open("wb") as fh:
            pickle.dump({"round_index": 0, "edge_index": 0}, fh)
        with pytest.raises(
            ConfigurationError, match="holds a dict.*without --resume"
        ):
            run_multi_isp_experiment(
                config, n_isps=3, rounds=3,
                checkpoint_dir=tmp_path / "ck", resume=True,
            )


class TestRunMultiIsp:
    def test_direct_runner_matches_coordinator_defaults(self, config):
        result = run_multi_isp(config, n_isps=3, max_rounds=3)
        assert result.isp_names
        assert result.n_rounds() >= 1

    def test_direct_and_sweep_defaults_are_the_same_scenario(
        self, serial_result, direct_signature, trajectory_signature
    ):
        # Both entry points must use the registered scenario defaults
        # (notably transit_scale), not the coordinator's bare defaults,
        # and the sweep returns the coordination's own result type.
        assert isinstance(serial_result, MultiNegotiationResult)
        assert trajectory_signature(serial_result) == direct_signature

    def test_peering_probability_forwarded(self, config):
        """Regression: density knobs must reach the internetwork build."""
        sparse = run_multi_isp(
            config, n_isps=5, shape="random", peering_probability=0.0,
            max_rounds=1, include_transit=False,
        )
        dense = run_multi_isp(
            config, n_isps=5, shape="random", peering_probability=1.0,
            max_rounds=1, include_transit=False,
        )
        assert len(sparse.edge_names) == 4  # exactly the spanning tree
        assert len(dense.edge_names) > len(sparse.edge_names)

    def test_explicit_internetwork_rejects_shape_kwargs(self, config):
        from repro.topology.generator import GeneratorConfig
        from repro.topology.internetwork import (
            InternetworkConfig,
            build_internetwork,
        )

        net = build_internetwork(InternetworkConfig(
            n_isps=2, shape="chain", seed=2005,
            generator=GeneratorConfig(min_pops=6, max_pops=14),
        ))
        with pytest.raises(ConfigurationError, match="fixes the topology"):
            run_multi_isp(config, internetwork=net, n_isps=3)
        result = run_multi_isp(config, internetwork=net, max_rounds=2)
        assert len(result.edge_names) == 1

    def test_n2_sweep_matches_single_session_grid(self, config):
        """The sweep's N=2 chain is one session then a convergence skip."""
        result = run_multi_isp_experiment(config, n_isps=2, rounds=2)
        assert len(result.edge_names) == 1
        (first,), (second,) = (round_.records for round_ in result.rounds)
        assert first.ran_session and first.adopted
        assert not second.ran_session
        assert result.converged


class TestConvergenceSweeps:
    """Five-ISP random and four-ISP ring internetworks, run to a fixed point."""

    def test_random_graph_convergence(self, config):
        result = run_multi_isp_experiment(
            config, n_isps=5, shape="random", rounds=8,
        )
        assert result.converged
        assert result.final_mel <= result.initial_mel

    def test_ring_randomized_order(self, config):
        result = run_multi_isp_experiment(
            config, n_isps=4, shape="ring", rounds=8, order="random",
        )
        assert result.converged


class TestCli:
    def test_multi_isp_command(self, capsys):
        from repro.cli import main

        assert main([
            "multi-isp", "--preset", "quick", "--isps", "3",
            "--rounds", "2", "--transit-scale", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "peering edges" in out
        assert "global MEL initial -> final" in out
        assert "initial global MEL (with transit)" in out

    def test_multi_isp_command_no_transit_label(self, capsys):
        from repro.cli import main

        assert main([
            "multi-isp", "--preset", "quick", "--isps", "3",
            "--rounds", "2", "--no-transit",
        ]) == 0
        out = capsys.readouterr().out
        assert "initial global MEL (no transit)" in out

    def test_round_lines_match_the_coordination(self, capsys, config):
        from repro.cli import main

        assert main([
            "multi-isp", "--preset", "quick", "--isps", "5",
            "--shape", "random", "--rounds", "8",
        ]) == 0
        lines = re.findall(
            r"^  round (\d+): (\d+) sessions, (\d+) flows moved, "
            r"global MEL (\S+)$",
            capsys.readouterr().out, flags=re.MULTILINE,
        )
        direct = run_multi_isp(
            config, n_isps=5, shape="random", max_rounds=8
        )
        assert len(direct.rounds) > 1
        assert lines == [
            (
                str(round_.round_index), str(round_.n_sessions),
                str(round_.n_changed), f"{round_.global_mel:.4f}",
            )
            for round_ in direct.rounds
        ]

    def test_sweep_multi_isp_command(self, capsys, tmp_path):
        from repro.cli import main

        args = [
            "sweep", "multi_isp", "--preset", "quick",
            "--checkpoint-dir", str(tmp_path / "ck"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "sweep: multi_isp" in first
        assert "global MEL trajectory" in first
        # Resumes from the shards it just wrote, bit-identically.
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert second == first


class TestScaleKnobThreading:
    def test_coord_workers_sweep_bit_identical(
        self, config, direct_signature, trajectory_signature
    ):
        parallel = run_multi_isp_experiment(
            config, n_isps=3, rounds=3, coord_workers=2
        )
        assert trajectory_signature(parallel) == direct_signature


@pytest.mark.slow
class TestHundredIspScale:
    """N=100 random-peering coordination; nightly scale coverage.

    The colored schedule is what makes these runs tractable: ~180 peering
    edges collapse into single-digit color classes per round, and the
    convergence instrumentation classifies every stop (including a
    genuine two-cycle the detector catches in the wild at this scale —
    and that the damping ladder re-drives to an actual fixed point).
    """

    def _hundred(self, seed):
        from repro.topology.generator import GeneratorConfig
        from repro.topology.internetwork import (
            InternetworkConfig,
            build_internetwork,
        )

        return build_internetwork(InternetworkConfig(
            n_isps=100, shape="random", seed=seed, pool_size=120,
            peering_probability=0.1,
            generator=GeneratorConfig(min_pops=6, max_pops=10),
        ))

    def test_hundred_isps_converge_with_narrow_schedule(self, config):
        net = self._hundred(seed=11)
        result = run_multi_isp(
            config, internetwork=net, include_transit=False, max_rounds=12,
        )
        assert result.stop_reason == "converged"
        assert result.converged
        # The whole point of coloring: rounds cost O(colors), not
        # O(edges) — greedy stays in the single digits here.
        assert net.n_edges() > 100
        assert result.n_colors <= 10
        for round_ in result.rounds:
            assert len(round_.color_schedule) == result.n_colors

    def test_hundred_isps_oscillation_detected_early(self, config):
        import warnings

        from repro.errors import CoordinationOscillationWarning

        net = self._hundred(seed=2005)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_multi_isp(
                config, internetwork=net, include_transit=False,
                max_rounds=12,
            )
        assert result.stop_reason == "oscillating"
        assert len(result.rounds) < 12, "detection must save the budget"
        oscillations = [
            w.message for w in caught
            if issubclass(w.category, CoordinationOscillationWarning)
        ]
        assert oscillations
        # The wild N=100 cycle is a canonical two-cycle over a handful
        # of contested edges — the attribution must name them.
        assert oscillations[0].cycle_length == 2
        assert oscillations[0].edges

    def test_hundred_isps_redriven_to_convergence_under_damping(
        self, config
    ):
        """The seed-2005 two-cycle, damped: pinned acceptance regression.

        One hysteresis escalation on the contested edges must carry the
        run to a genuine fixed point, at a final global MEL no worse
        than where the undamped run aborted.
        """
        import warnings

        net = self._hundred(seed=2005)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            undamped = run_multi_isp(
                config, internetwork=net, include_transit=False,
                max_rounds=24,
            )
        assert undamped.stop_reason == "oscillating"
        # The damped run absorbs every revisit: no warning escapes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            damped = run_multi_isp(
                config, internetwork=net, include_transit=False,
                max_rounds=24, damping="ladder",
            )
        assert damped.stop_reason == "converged"
        assert damped.converged
        assert damped.final_mel <= undamped.final_mel + 1e-9
        assert len(caught) >= 1
