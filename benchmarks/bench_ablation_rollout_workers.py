"""Ablation: rollout-collection throughput vs worker count (fig9-style).

The paper's Fig. 9 scalability story assumes trajectories are gathered
from many environment replicas at once; this benchmark measures exactly
that axis: steps/second of the frozen serial autodiff loop
(``SerialAutodiffCollector`` in ``frozen_references.py``, a fixed
baseline that production speedups cannot move) vs the group pool
(``BatchedRolloutCollector`` at ``num_envs=1``, one stream per group) at
1, 2 and 4 workers, on one topology-A environment whose step cost is
dominated by the stateful failure checker.  One worker runs the groups
in process; more spread them over a multiprocessing pool.

Recorded per row: wall-clock seconds, steps/sec, speedup vs serial, and
the host's CPU count — speedups are only asserted when the host
actually has the cores to deliver them (a 1-core container can at best
break even, and the pool's pickle/transfer overhead is the honest
price the JSON then shows).
"""

import os

from repro.experiments.scaling import get_profile
from repro.rl.batched import BatchedRolloutCollector
from repro.rl.env import PlanningEnv
from repro.rl.policy import ActorCriticPolicy
from repro.seeding import as_generator
from repro.topology import generators

try:
    from benchmarks.frozen_references import SerialAutodiffCollector
except ImportError:  # imported top-level, with benchmarks/ on sys.path
    from frozen_references import SerialAutodiffCollector

WORKER_COUNTS = (1, 2, 4)

# Collection budget per measured round, by bench profile.
BUDGETS = {"quick": 160, "standard": 512, "full": 1536}
MAX_TRAJECTORY = 48


def build_env_policy():
    profile = get_profile("quick")
    instance = generators.make_instance(
        "A", seed=profile.seed, scale=0.7, horizon="short"
    )
    env = PlanningEnv(instance, max_units_per_step=2, max_steps=MAX_TRAJECTORY)
    policy = ActorCriticPolicy(feature_dim=1, max_units=2, rng=0)
    return env, policy


def timed_collect(collector, budget, epochs=2):
    """Collect ``epochs`` rounds; return (seconds, steps, reward_stream)."""
    import time

    rewards = []
    steps = 0
    start = time.perf_counter()
    for epoch in range(epochs):
        batch = collector.collect(
            budget=budget, max_trajectory_length=MAX_TRAJECTORY, epoch=epoch
        )
        steps += batch.num_steps
        rewards.extend(t.reward for f in batch.fragments for t in f.transitions)
    return time.perf_counter() - start, steps, rewards


def run_scaling() -> list:
    profile_name = os.environ.get("NEUROPLAN_BENCH_PROFILE", "quick")
    budget = BUDGETS.get(profile_name, BUDGETS["quick"])
    cpu_count = os.cpu_count() or 1
    rows = []

    env, policy = build_env_policy()
    serial = SerialAutodiffCollector(env, policy, as_generator(0))
    serial_seconds, serial_steps, _ = timed_collect(serial, budget)
    rows.append(
        {
            "backend": "serial",
            "workers": 1,
            "seconds": serial_seconds,
            "steps": serial_steps,
            "steps_per_sec": serial_steps / serial_seconds,
            "speedup_vs_serial": 1.0,
            "cpu_count": cpu_count,
        }
    )

    reward_streams = {}
    for workers in WORKER_COUNTS:
        env, policy = build_env_policy()
        with BatchedRolloutCollector(
            env, policy, num_envs=1, num_workers=workers, seed=0
        ) as collector:
            # Warm the pool so fork/spawn cost is not billed to the
            # measured rounds.
            collector.collect(budget=workers, max_trajectory_length=4, epoch=999)
            seconds, steps, rewards = timed_collect(collector, budget)
        reward_streams[workers] = rewards
        rows.append(
            {
                "backend": "pool",
                "workers": workers,
                "seconds": seconds,
                "steps": steps,
                "steps_per_sec": steps / seconds,
                "speedup_vs_serial": serial_seconds / seconds,
                "cpu_count": cpu_count,
            }
        )

    # The determinism contract, checked on the real workload: the merged
    # reward stream is bitwise identical for every worker count.
    for workers in WORKER_COUNTS[1:]:
        assert reward_streams[workers] == reward_streams[WORKER_COUNTS[0]], (
            f"reward stream diverged between 1 and {workers} workers"
        )
    return rows


def test_ablation_rollout_workers(benchmark, save_rows):
    rows = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    save_rows("ablation_rollout_workers", rows)
    print("\nAblation (rollout collection scaling):")
    for row in rows:
        print(
            f"  {row['backend']:>8} x{row['workers']}: "
            f"{row['steps_per_sec']:8.1f} steps/s "
            f"(speedup {row['speedup_vs_serial']:.2f})"
        )

    by_workers = {r["workers"]: r for r in rows if r["backend"] == "pool"}
    serial_row = next(r for r in rows if r["backend"] == "serial")
    assert serial_row["steps"] == by_workers[4]["steps"]

    cpu_count = serial_row["cpu_count"]
    if cpu_count >= 4:
        # With real cores behind the pool, 4 workers must beat serial.
        assert by_workers[4]["speedup_vs_serial"] > 1.2, (
            f"4-worker collection not faster on a {cpu_count}-core host: "
            f"{by_workers[4]['speedup_vs_serial']:.2f}x"
        )
    if cpu_count >= 2:
        assert by_workers[2]["speedup_vs_serial"] > 1.0, (
            f"2-worker collection not faster on a {cpu_count}-core host: "
            f"{by_workers[2]['speedup_vs_serial']:.2f}x"
        )