"""End-to-end acceptance suite for the shipped behavior guarantees.

Run with `pytest tests/test_acceptance.py -s` to see one printed
[PASS]/[FAIL] line per criterion.  The two convergence checks execute the
full 50-run protocols and take a couple of minutes combined.
"""

from pathlib import Path

import numpy as np

from swarmwalk.cli import cli_main
from swarmwalk.graph import build_distance_matrix, compute_ranks, hop_probabilities
from swarmwalk.harness import ExperimentSpec, run_experiment
from swarmwalk.objectives import SearchDomain, make_objective
from swarmwalk.pso import pso_run
from swarmwalk.results import RunConfig, mean_best_fitness
from swarmwalk.rwpso import (
    WALK_HORIZON,
    RwpsoConfig,
    compute_delta,
    displacement_vector,
    gaussian_term,
    rwpso_run,
    update_position,
)
from swarmwalk.walk import biased_walk, constrained_biased_walk, simple_walk, walk_expectation

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_five_particle_graph_oracle():
    positions = np.array([
        [-2.0, 4.0], [5.0, 5.0], [8.0, -1.0], [4.0, -6.0], [-4.0, -3.0],
    ])
    fitnesses = np.linalg.norm(positions, axis=1)  # distance to the origin
    alpha = compute_ranks(fitnesses)
    distances = build_distance_matrix(positions)
    prob_rows = hop_probabilities(distances, fitnesses).T

    ranks = [int(r) for r in alpha]
    ranks_ok = ranks == [5, 3, 1, 2, 4]
    denominator = float((alpha * distances[:, 0]).sum())
    denominator_ok = abs(denominator - 89.83) <= 0.05
    expected = (0.05, 0.23, 0.12, 0.25, 0.32)
    probs_ok = all(
        abs(got - want) <= 0.02 for got, want in zip(prob_rows[0], expected)
    )
    _report(
        "criterion 1 (five-particle graph oracle)",
        ranks_ok and denominator_ok and probs_ok,
        f"ranks={ranks}, denominator={denominator:.4f}, "
        f"probs={np.round(prob_rows[0], 3).tolist()}",
    )


def test_criterion_2_row_stochasticity_and_rank_permutations():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        dim = int(rng.integers(1, 31))
        positions = rng.uniform(-100.0, 100.0, size=(n, dim))
        fitnesses = rng.normal(size=n)
        ranks = compute_ranks(fitnesses)
        # contiguous rows, so each row sum is numpy's pairwise sum of that row
        prob_rows = hop_probabilities(build_distance_matrix(positions), fitnesses).T.copy()
        worst_gap = max(worst_gap, float(np.abs(prob_rows.sum(axis=1) - 1.0).max()))
        if sorted(ranks) != list(range(1, n + 1)):
            _report("criterion 2 (row stochasticity)", False,
                    f"rank vector not a permutation for swarm size {n}")
    _report(
        "criterion 2 (row stochasticity)",
        worst_gap <= 1e-12,
        f"1000 random swarms, worst |row sum - 1| = {worst_gap:.3e}",
    )


def test_criterion_3_walk_statistics():
    trials = 10_000
    rng = np.random.default_rng(3)

    fair = np.array([simple_walk(100, rng) for _ in range(trials)], dtype=float)
    rms = float(np.sqrt(np.mean(fair**2)))
    rms_ok = abs(rms - 10.0) <= 0.5

    biased = np.array([biased_walk(100, 0.7, rng) for _ in range(trials)], dtype=float)
    biased_ok = abs(biased.mean() - 40.0) <= 1.0

    n, p, plus, minus = 150, 0.4, 2.5, 0.5
    constrained = np.array(
        [constrained_biased_walk(n, p, plus, minus, rng) for _ in range(trials)]
    )
    expected = walk_expectation(n, p, plus, minus)
    se = constrained.std(ddof=1) / np.sqrt(trials)
    constrained_ok = abs(constrained.mean() - expected) <= 4.0 * se

    _report(
        "criterion 3 (walk statistics)",
        rms_ok and biased_ok and constrained_ok,
        f"fair RMS={rms:.3f} (want 10±0.5), biased mean={biased.mean():.3f} "
        f"(want 40±1), constrained |mean-{expected:.1f}|={abs(constrained.mean()-expected):.3f} "
        f"(4se={4*se:.3f})",
    )


def test_criterion_4_step_split_identities():
    rng = np.random.default_rng(4)
    edge_ok = all(
        compute_delta(0.0, n) == 0.5
        and compute_delta(float(n), n) == 0.0
        and compute_delta(float(-n), n) == 1.0
        for n in (1, 7, 100, 12345)
    )
    worst = 0.0
    for _ in range(10_000):
        d = float(rng.uniform(-1e6, 1e6))
        n = int(rng.integers(1, 10_000))
        worst = max(worst, abs(compute_delta(d, n) + compute_delta(-d, n) - 1.0))
    _report(
        "criterion 4 (step-split identities)",
        edge_ok and worst <= 1e-12,
        f"edge cases exact, worst mirror-identity error = {worst:.3e} over 10000 draws",
    )


def test_criterion_5_drift_telescoping():
    n = WALK_HORIZON
    start = np.array([[-40.0, 12.5, 7.0]])
    target = np.array([[18.0, -3.25, 0.0]])
    domain = SearchDomain.uniform(3, -1000.0, 1000.0, -1.0, 1.0)
    cfg = RwpsoConfig(
        swarm_size=2, dim=3, max_iterations=n, gaussian_sigma=1e-12,
    )
    rng = np.random.default_rng(5)
    drift = displacement_vector(start, target)
    position = start
    for _ in range(n):
        position = update_position(position, drift, gaussian_term(cfg, rng, drift), domain)
    gap = float(np.abs(position - target).max())
    _report(
        "criterion 5 (drift telescoping)",
        gap <= 1e-6,
        f"after {n} constant-drift steps, max |position - target| = {gap:.2e}",
    )


def test_criterion_6_sphere_convergence():
    objective = make_objective("sphere", 10)

    rw_wins = 0
    for seed in range(50):
        cfg = RwpsoConfig(swarm_size=20, dim=10, max_iterations=500,
                          seed=seed, fitness_threshold=1e-2)
        result = rwpso_run(objective, cfg)
        rw_wins += result.best_fitness <= 1e-2

    pso_wins = 0
    for seed in range(50):
        cfg = RunConfig(swarm_size=20, dim=10, max_iterations=1000,
                        seed=seed, fitness_threshold=1e-2)
        result = pso_run(objective, cfg)
        pso_wins += result.best_fitness <= 1e-2

    _report(
        "criterion 6 (sphere convergence)",
        rw_wins >= 45 and pso_wins >= 45,
        f"rwpso {rw_wins}/50 within 500 iterations, "
        f"pso {pso_wins}/50 within 1000 iterations (need >= 45 each)",
    )


def test_criterion_7_rastrigin_comparison():
    spec = ExperimentSpec(
        functions=("rastrigin",),
        algorithms=("rwpso", "pso"),
        population_sizes=(80,),
        dimensions=(10,),
        runs_per_cell=50,
        max_iterations=300,
        base_seed=0,
        fitness_thresholds={"rastrigin": None},  # fixed-budget comparison
    )
    outcome = run_experiment(spec)
    rwpso_stats = next(s for s in outcome.aggregates if s.algorithm == "rwpso")
    pso_stats = next(s for s in outcome.aggregates if s.algorithm == "pso")
    detail = (
        f"rwpso mean best {rwpso_stats.mean_best_fitness:.3f} vs "
        f"pso {pso_stats.mean_best_fitness:.3f} over 50 runs at 300 iterations"
    )
    if rwpso_stats.mean_best_fitness <= pso_stats.mean_best_fitness:
        _report("criterion 7 (rastrigin comparison)", True, detail)
        return
    # The walker is not guaranteed to win this cell; the shipped benchmark
    # report must then document the measured gap.
    report = REPO_ROOT / "REPORT.md"
    documented = report.exists() and "rastrigin" in report.read_text(encoding="utf-8").lower()
    _report(
        "criterion 7 (rastrigin comparison)",
        documented,
        detail + f"; gap documented in REPORT.md: {documented}",
    )


def test_criterion_8_deterministic_csv(tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(
        """
        {
          "functions": ["sphere", "rastrigin"],
          "algorithms": ["rwpso", "pso"],
          "population_sizes": [8],
          "dimensions": [2],
          "runs_per_cell": 2,
          "max_iterations": 20,
          "base_seed": 42
        }
        """,
        encoding="utf-8",
    )
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code1 = cli_main(["run", "--config", str(config), "--out", str(first)])
    code2 = cli_main(["run", "--config", str(config), "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    _report(
        "criterion 8 (deterministic csv)",
        code1 == 0 and code2 == 0 and identical,
        f"exit codes ({code1}, {code2}), byte-identical: {identical}",
    )


def test_criterion_9_mean_best_statistic():
    value = mean_best_fitness([1.0, 2.0, 3.0, 4.0, 5.0], 0.8)
    rng = np.random.default_rng(9)
    sample = rng.normal(size=101)
    full = mean_best_fitness(sample, 1.0)
    gap = abs(full - float(np.mean(sample)))
    _report(
        "criterion 9 (mean-best statistic)",
        value == 2.5 and gap <= 1e-12,
        f"best-80% of (1..5) = {value} (want 2.5), "
        f"fraction 1.0 vs plain mean gap = {gap:.2e}",
    )
