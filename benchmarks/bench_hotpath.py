"""Hot-path micro-benchmarks: evaluator check, solver bound updates, GNN, mask.

Measures the four paths PR 5 vectorized, each against its legacy
formulation, and writes machine-readable rows to
``benchmarks/results/hotpath.json`` (keyed by profile, merged across
runs so the committed file can carry both the CI ``quick`` section and
the headline ``full`` section):

- **evaluator**: ``FeasibilityChecker.check`` latency over a growing
  capacity trajectory, persistent-HiGHS backend vs the stateless
  ``linprog`` backend (the pre-PR hot path).  Also records the exact LP
  solve count and a verdict fingerprint — both backends must agree.
- **solver**: row/variable bound-update throughput, one ``set_rhs`` /
  ``set_bounds`` call per cell vs the bulk ``set_row_ubs`` /
  ``set_var_ubs`` APIs.
- **gnn**: GCN encoder forward+backward at n in {64, 256, 1024}, dense
  adjacency vs cached CSR propagation.
- **mask**: ``PlanningEnv.action_mask`` vs the per-link Python loop it
  replaced.

Usage::

    python benchmarks/bench_hotpath.py [--profile quick|standard|full]
        [--quick] [--no-save]

``check_regression.py --hotpath`` gates CI on the committed rows: exact
``lp_solves`` / fingerprints, and speedups within tolerance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "hotpath.json"

# (band, scale) pairs per profile; the last entry is the largest
# topology (the headline evaluator speedup and the mask benchmark).
EVAL_MATRIX = {
    "quick": [("A", 0.7), ("C", 0.5)],
    "standard": [("A", 0.7), ("C", 0.7), ("D", 0.7)],
    "full": [("C", 1.0), ("E", 1.0)],
}
EVAL_CHECKS = {"quick": 30, "standard": 30, "full": 24}
SOLVER_ROWS = {"quick": 2000, "standard": 5000, "full": 20000}
SOLVER_ROUNDS = {"quick": 30, "standard": 30, "full": 20}
GNN_REPS = {"quick": 5, "standard": 10, "full": 20}
MASK_REPS = {"quick": 50, "standard": 100, "full": 100}


def _median_ms(samples: "list[float]") -> float:
    return statistics.median(samples) * 1000.0


# ----------------------------------------------------------------------
# Evaluator check() latency: persistent backend vs linprog backend
# ----------------------------------------------------------------------
# During training the evaluator re-checks the currently *binding*
# failure on every env step (neuroplan mode fronts the last violation),
# and the binding failure only shifts occasionally as capacity grows.
# The trajectory below replays that: blocks of BINDING_BLOCK checks per
# failure with two links grown between checks.  Warm-basis reuse is
# what the persistent backend buys on exactly this pattern; alternating
# a fresh failure every check is the (unrepresentative) worst case.
BINDING_BLOCK = 8


def bench_evaluator(profile: str) -> "list[dict]":
    from repro.evaluator.feasibility import FeasibilityChecker
    from repro.topology import generators

    rows = []
    for band, scale in EVAL_MATRIX[profile]:
        instance = generators.make_instance(band, seed=0, scale=scale)
        num_checks = EVAL_CHECKS[profile]

        def run(backend: str):
            os.environ["NEUROPLAN_LP_BACKEND"] = backend
            try:
                checker = FeasibilityChecker(instance)
            finally:
                os.environ.pop("NEUROPLAN_LP_BACKEND", None)
            capacities = instance.network.capacities()
            failures = list(instance.failures)
            link_ids = instance.network.link_ids()
            rng = np.random.default_rng(0)
            latencies, verdicts = [], []
            for index in range(num_checks):
                failure = failures[(index // BINDING_BLOCK) % len(failures)]
                start = time.perf_counter()
                result = checker.check(capacities, failure)
                latencies.append(time.perf_counter() - start)
                verdicts.append(bool(result.satisfied))
                # Grow a couple of links between checks, as the RL env does.
                for position in rng.choice(len(link_ids), size=2, replace=False):
                    capacities[link_ids[position]] += instance.capacity_unit
            return latencies, verdicts, checker.lp_solves

        legacy_lat, legacy_verdicts, legacy_solves = run("linprog")
        new_lat, new_verdicts, new_solves = run("persistent")
        if new_verdicts != legacy_verdicts or new_solves != legacy_solves:
            raise AssertionError(
                f"backend divergence on {band}@{scale}: "
                f"verdicts {new_verdicts == legacy_verdicts}, "
                f"solves {legacy_solves} vs {new_solves}"
            )
        fingerprint = hashlib.sha256(
            json.dumps(legacy_verdicts).encode()
        ).hexdigest()[:16]
        # Skip the first check in each run: it pays one-time compilation.
        legacy_ms = _median_ms(legacy_lat[1:])
        new_ms = _median_ms(new_lat[1:])
        rows.append(
            {
                "section": "evaluator",
                "key": f"{band}@{scale}",
                "legacy_ms": round(legacy_ms, 4),
                "new_ms": round(new_ms, 4),
                "speedup": round(legacy_ms / new_ms, 3),
                "lp_solves": legacy_solves,
                "fingerprint": fingerprint,
            }
        )
        print(
            f"  evaluator {band}@{scale}: linprog {legacy_ms:.2f}ms -> "
            f"persistent {new_ms:.2f}ms ({rows[-1]['speedup']:.2f}x, "
            f"{legacy_solves} LP solves)"
        )
    return rows


# ----------------------------------------------------------------------
# Solver bound-update throughput: per-cell loop vs bulk APIs
# ----------------------------------------------------------------------
def bench_solver(profile: str) -> "list[dict]":
    from repro.solver import Model

    n = SOLVER_ROWS[profile]
    rounds = SOLVER_ROUNDS[profile]
    model = Model("bench-bounds", lp_backend="linprog")
    variables = [model.add_var(ub=1.0) for _ in range(n)]
    constraints = [model.add_constr(v <= 1.0) for v in variables]

    rows = []
    for key, loop_fn, bulk_fn in (
        (
            "rows",
            lambda values: [
                c.set_rhs(ub=v) for c, v in zip(constraints, values)
            ],
            lambda values: model.set_row_ubs(constraints, values),
        ),
        (
            "vars",
            lambda values: [
                var.set_bounds(ub=v) for var, v in zip(variables, values)
            ],
            lambda values: model.set_var_ubs(variables, values),
        ),
    ):
        loop_times, bulk_times = [], []
        for round_index in range(rounds):
            values = np.full(n, 1.0 + round_index)
            start = time.perf_counter()
            loop_fn(values)
            loop_times.append(time.perf_counter() - start)
            values = values + 0.5
            start = time.perf_counter()
            bulk_fn(values)
            bulk_times.append(time.perf_counter() - start)
        loop_rate = n / statistics.median(loop_times)
        bulk_rate = n / statistics.median(bulk_times)
        rows.append(
            {
                "section": "solver",
                "key": key,
                "loop_updates_per_s": round(loop_rate),
                "bulk_updates_per_s": round(bulk_rate),
                "speedup": round(bulk_rate / loop_rate, 3),
            }
        )
        print(
            f"  solver {key}: loop {loop_rate:,.0f}/s -> bulk "
            f"{bulk_rate:,.0f}/s ({rows[-1]['speedup']:.2f}x, n={n})"
        )
    return rows


# ----------------------------------------------------------------------
# GNN forward+backward: dense adjacency vs cached CSR
# ----------------------------------------------------------------------
def bench_gnn(profile: str) -> "list[dict]":
    from repro.nn.gnn import (
        GraphEncoder,
        normalized_adjacency,
        normalized_adjacency_sparse,
    )
    from repro.nn.tensor import Tensor

    reps = GNN_REPS[profile]
    rows = []
    for n in (64, 256, 1024):
        rng = np.random.default_rng(1)
        # ~6 neighbors per node, symmetric, no self edges.
        upper = np.triu(rng.random((n, n)) < 3.0 / n, k=1).astype(np.float64)
        adjacency = upper + upper.T
        dense = normalized_adjacency(adjacency)
        sparse = normalized_adjacency_sparse(adjacency)
        features = rng.standard_normal((n, 4))
        encoder = GraphEncoder(4, 16, num_layers=2, gnn_type="gcn", rng=0)

        def run(operand):
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                out = encoder(Tensor(features), operand)
                out.sum().backward()
                times.append(time.perf_counter() - start)
                encoder.zero_grad()
            return _median_ms(times)

        dense_ms = run(dense)
        sparse_ms = run(sparse)
        rows.append(
            {
                "section": "gnn",
                "key": f"n={n}",
                "dense_ms": round(dense_ms, 4),
                "sparse_ms": round(sparse_ms, 4),
                "speedup": round(dense_ms / sparse_ms, 3),
            }
        )
        print(
            f"  gnn n={n}: dense {dense_ms:.2f}ms -> sparse "
            f"{sparse_ms:.2f}ms ({rows[-1]['speedup']:.2f}x fwd+bwd)"
        )
    return rows


# ----------------------------------------------------------------------
# Action mask: vectorized SpectrumIndex vs the per-link loop
# ----------------------------------------------------------------------
def bench_mask(profile: str) -> "list[dict]":
    from repro.rl.env import PlanningEnv
    from repro.topology import generators

    band, scale = EVAL_MATRIX[profile][-1]
    instance = generators.make_instance(band, seed=0, scale=scale)
    # reward_scale skips the greedy reward probe.  Freshly reset, the
    # env holds no step's spectrum headroom, so every timed mask runs
    # the full query from the capacity vector.
    env = PlanningEnv(instance, max_units_per_step=4, reward_scale=1.0)
    env.reset()
    capacities = env.capacities()

    def legacy_mask() -> np.ndarray:
        mask = np.zeros(env.num_actions, dtype=bool)
        for link_index, link_id in enumerate(env.link_graph.link_ids):
            headroom_units = int(
                np.floor(
                    round(
                        instance.network.link_capacity_headroom(
                            link_id, capacities
                        )
                        / env.unit,
                        9,
                    )
                )
            )
            allowed = min(headroom_units, env.max_units)
            base = link_index * env.max_units
            mask[base : base + allowed] = True
        return mask

    reps = MASK_REPS[profile]
    legacy_times, new_times = [], []
    for _ in range(reps):
        start = time.perf_counter()
        reference = legacy_mask()
        legacy_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        vectorized = env.action_mask()
        new_times.append(time.perf_counter() - start)
        if not np.array_equal(reference, vectorized):
            raise AssertionError("vectorized mask diverged from the reference")
    legacy_ms = _median_ms(legacy_times)
    new_ms = _median_ms(new_times)
    row = {
        "section": "mask",
        "key": f"{band}@{scale}",
        "legacy_ms": round(legacy_ms, 4),
        "new_ms": round(new_ms, 4),
        "speedup": round(legacy_ms / new_ms, 3),
    }
    print(
        f"  mask {band}@{scale}: loop {legacy_ms:.3f}ms -> vectorized "
        f"{new_ms:.3f}ms ({row['speedup']:.2f}x)"
    )
    return [row]


# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", default="quick", choices=("quick", "standard", "full")
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for --profile quick (the CI smoke invocation)",
    )
    parser.add_argument(
        "--no-save",
        action="store_true",
        help="print results without touching results/hotpath.json",
    )
    args = parser.parse_args(argv)
    profile = "quick" if args.quick else args.profile

    print(f"hot-path benchmarks at profile={profile}")
    rows = []
    rows += bench_evaluator(profile)
    rows += bench_solver(profile)
    rows += bench_gnn(profile)
    rows += bench_mask(profile)

    if not args.no_save:
        existing = {}
        if RESULTS_PATH.exists():
            existing = json.loads(RESULTS_PATH.read_text())
        existing[profile] = rows
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(json.dumps(existing, indent=1))
        print(f"saved {len(rows)} rows to {RESULTS_PATH} (profile={profile})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
