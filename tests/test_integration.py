"""End-to-end integration tests spanning all layers."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    build_default_dataset,
    build_figure1_pair,
    negotiate_distance_pair,
)
from repro.experiments.distance import build_distance_problem
from repro.routing.exits import optimal_exit_choices

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestFigure1EndToEnd:
    """The paper's Figure 1 walkthrough through the public API."""

    def test_negotiation_finds_center(self):
        scenario = build_figure1_pair()
        outcome = negotiate_distance_pair(scenario.pair)
        ics = scenario.pair.interconnections
        src, dst = scenario.flow_a_to_b
        flow_index = src * scenario.pair.isp_b.n_pops() + dst
        assert ics[int(outcome.choices[flow_index])].city == "Center"
        assert outcome.gain_a > 0 and outcome.gain_b > 0

    def test_win_win_on_true_metric(self):
        scenario = build_figure1_pair()
        outcome = negotiate_distance_pair(scenario.pair)
        assert outcome.true_gain_a > 0
        assert outcome.true_gain_b > 0


class TestDatasetEndToEnd:
    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.experiments.config import ExperimentConfig

        return build_default_dataset(ExperimentConfig.quick().dataset)

    def test_negotiation_on_generated_pair(self, dataset):
        pair = dataset.pairs(min_interconnections=2, max_pairs=1)[0]
        outcome = negotiate_distance_pair(pair)
        assert outcome.gain_a >= 0
        assert outcome.gain_b >= 0
        assert outcome.true_gain_a >= -1e-9
        assert outcome.true_gain_b >= -1e-9

    def test_negotiated_between_default_and_optimal(self, dataset):
        pair = dataset.pairs(min_interconnections=2, max_pairs=1)[0]
        problem = build_distance_problem(pair)
        outcome = negotiate_distance_pair(pair)
        tot_def, _, _ = problem.totals(problem.defaults)
        opt = np.concatenate(
            [
                optimal_exit_choices(problem.table_ab),
                optimal_exit_choices(problem.table_ba),
            ]
        )
        tot_opt, _, _ = problem.totals(opt)
        tot_neg, _, _ = problem.totals(outcome.choices)
        assert tot_opt - 1e-9 <= tot_neg <= tot_def + 1e-9


@pytest.mark.parametrize(
    "script", sorted(path.name for path in EXAMPLES.glob("*.py"))
)
def test_example_scripts_run(script):
    """Every script under examples/ must execute cleanly."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
