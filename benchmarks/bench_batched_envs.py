"""Batched-environment rollout throughput vs ``num_envs`` (tentpole).

``repro.rl.batched`` stacks K independent ``PlanningEnv`` replicas and
runs the policy forward over all of them at once, so the GNN/MLP work
amortizes across replicas while each environment keeps its own LP
evaluator and RNG stream.  This benchmark measures exactly that axis:
merged steps/second at K in {1, 4, 16, 64} on one topology-A instance.
K > 1 runs the production collector factory; K=1 runs the frozen serial
autodiff loop (``SerialAutodiffCollector`` in ``frozen_references.py``),
so the speedup column is batched-vs-serial and does not move when the
production K=1 path gets faster.

The workload uses a fine capacity unit (2.5 Gbps) so trajectories run
long before feasibility — the paper's regime (max trajectory length
2048) where the environment's duality-certificate bound skips most LP
re-solves and the per-step cost is dominated by the policy forward,
i.e. the part batching can amortize.  Budgets are exact multiples of
``K * MAX_STEPS`` so every collected group lands on the budget with
zero discarded over-collection.

Recorded per row: wall-clock seconds, merged steps, steps/sec, the
speedup vs K=1 and the feasibility-LP solves per merged step of the
measured round (what the LP-skip leaves to pay for).  The determinism
contract is asserted on the measured
batches themselves: trajectory ``s`` is seeded by ``(seed, epoch, s)``
regardless of K, so the merged reward stream is bitwise invariant
across batched env counts (a larger budget only appends trajectories).
The K=1 baseline runs the frozen serial loop, whose single
sequential RNG is a different, documented seeding scheme — the batched
parity story lives in ``tests/rl/test_batched.py``, which checks batched
streams against per-stream autodiff rollouts transition by transition.
"""

import os
import time

import numpy as np

from repro.rl.env import PlanningEnv
from repro.rl.policy import ActorCriticPolicy
from repro.rl.rollouts import make_collector
from repro.topology import generators

try:
    from benchmarks.frozen_references import SerialAutodiffCollector
except ImportError:  # imported top-level, with benchmarks/ on sys.path
    from frozen_references import SerialAutodiffCollector

ENV_COUNTS = (1, 4, 16, 64)
MAX_STEPS = 128

# Base collection budget per measured round, by bench profile.  Each
# K's budget is max(base, K * MAX_STEPS) — a multiple of K * MAX_STEPS
# either way, so groups tile the budget exactly.
BUDGETS = {"quick": 2048, "standard": 4096, "full": 8192}


def build_env_policy():
    instance = generators.make_instance(
        "A", seed=0, scale=0.7, horizon="short", capacity_unit=2.5
    )
    env = PlanningEnv(instance, max_units_per_step=4, max_steps=MAX_STEPS)
    policy = ActorCriticPolicy(feature_dim=1, max_units=4, rng=0)
    return env, policy


def lp_solves(collector, env) -> int:
    """Feasibility-LP solves so far by the environments being stepped."""
    batched_env = getattr(collector, "_benv", None)
    if batched_env is None:  # the serial collector steps ``env`` itself
        return env.evaluator.lp_solves
    return sum(evaluator.lp_solves for evaluator in batched_env.evaluators)


def timed_collect(num_envs: int, budget: int):
    """One warmed, timed collection round; returns (seconds, rewards, LPs)."""
    env, policy = build_env_policy()
    if num_envs == 1:
        collector = SerialAutodiffCollector(env, policy, np.random.default_rng(0))
    else:
        collector = make_collector(
            env,
            policy,
            np.random.default_rng(0),
            num_workers=1,
            num_envs=num_envs,
            seed=0,
        )
    try:
        # Warm round: fused-path audits, LP template assembly and
        # allocator churn are not billed to the measured round.
        collector.collect(
            budget=num_envs * MAX_STEPS,
            max_trajectory_length=MAX_STEPS,
            epoch=0,
        )
        solves_before = lp_solves(collector, env)
        start = time.perf_counter()
        batch = collector.collect(
            budget=budget, max_trajectory_length=MAX_STEPS, epoch=1
        )
        seconds = time.perf_counter() - start
        solves = lp_solves(collector, env) - solves_before
    finally:
        collector.close()
    rewards = [
        t.reward for f in batch.fragments for t in f.transitions
    ]
    assert batch.num_steps == budget, (
        f"K={num_envs} collected {batch.num_steps} steps for budget {budget}"
    )
    return seconds, rewards, solves


def run_scaling(profile_name: "str | None" = None) -> list:
    if profile_name is None:
        profile_name = os.environ.get("NEUROPLAN_BENCH_PROFILE", "quick")
    base_budget = BUDGETS.get(profile_name, BUDGETS["quick"])
    cpu_count = os.cpu_count() or 1

    rows = []
    reward_streams = {}
    serial_seconds = None
    for num_envs in ENV_COUNTS:
        budget = max(base_budget, num_envs * MAX_STEPS)
        seconds, rewards, solves = timed_collect(num_envs, budget)
        reward_streams[num_envs] = rewards
        if num_envs == 1:
            serial_seconds = seconds
        rows.append(
            {
                "num_envs": num_envs,
                "budget": budget,
                "seconds": seconds,
                "steps": budget,
                "steps_per_sec": budget / seconds,
                "speedup_vs_serial": (
                    (serial_seconds / seconds) * (budget / base_budget)
                ),
                "lp_solves_per_step": solves / budget,
                "cpu_count": cpu_count,
            }
        )

    # The determinism contract on the measured batches: trajectory s is
    # seeded by (seed, epoch, s) regardless of K, and merge order is by
    # s — so every batched K's merged reward stream starts with the
    # smallest batched K's stream.  (K=1 is the frozen serial loop with
    # its own sequential-RNG scheme, so it is not in this check.)
    reference = reward_streams[ENV_COUNTS[1]]
    for num_envs in ENV_COUNTS[2:]:
        prefix = reward_streams[num_envs][: len(reference)]
        assert prefix == reference, (
            f"merged reward stream diverged between {ENV_COUNTS[1]} and "
            f"{num_envs} envs"
        )
    return rows


def test_batched_env_scaling(benchmark, save_rows):
    rows = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    save_rows("batched_envs", rows)
    print("\nBatched environment scaling (merged steps/sec):")
    for row in rows:
        print(
            f"  K={row['num_envs']:3d}: {row['steps_per_sec']:8.1f} steps/s "
            f"(speedup {row['speedup_vs_serial']:.2f}, "
            f"{row['lp_solves_per_step']:.3f} LP solves/step)"
        )

    by_envs = {r["num_envs"]: r for r in rows}
    # Batching amortizes the policy forward without needing extra
    # cores, so a real speedup is expected even on one CPU.  The hard
    # >= 3x acceptance floor at K=16 is enforced by check_regression.py
    # --batched against the committed baseline; here only sanity.
    assert by_envs[16]["speedup_vs_serial"] > 1.5, (
        f"K=16 batching not faster: "
        f"{by_envs[16]['speedup_vs_serial']:.2f}x"
    )
    assert by_envs[4]["speedup_vs_serial"] > 1.0, (
        f"K=4 batching not faster: {by_envs[4]['speedup_vs_serial']:.2f}x"
    )
