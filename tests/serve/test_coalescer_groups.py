"""Per-adjacency rendezvous in the forward coalescer.

Only steps over the same adjacency can share a batched forward, so a
rollout waits only for rollouts of its own group: rollouts on different
instances run every step on the fast path, while a same-instance cohort
still coalesces.  Plans stay those of the batching-off reference.
"""

import threading

from repro.serve import ForwardCoalescer, ModelKey, PolicyRegistry

from tests.serve.conftest import MAX_STEPS, SCALE, TOPOLOGY

KEY = ModelKey(topology=TOPOLOGY, scale=SCALE, horizon="short")


def run_concurrently(jobs, timeout=300.0):
    """Start every job behind one barrier; return their results in order."""
    barrier = threading.Barrier(len(jobs))
    results = [None] * len(jobs)
    errors = []

    def run(index, job):
        try:
            barrier.wait(timeout=60)
            results[index] = job()
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(index, job), daemon=True)
        for index, job in enumerate(jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not [thread for thread in threads if thread.is_alive()]
    assert errors == []
    return results


class TestPerAdjacencyRendezvous:
    ROUNDS = 3

    def test_different_instances_never_rendezvous(self, model_dir):
        """Two instances, two groups: every step takes the fast path,
        even with a window long enough to make a shared wait visible."""
        registry = PolicyRegistry(str(model_dir))
        agents = [registry.agent(KEY, seed=seed)[0] for seed in (0, 1)]
        references = [agent.plan(MAX_STEPS) for agent in agents]
        coalescer = ForwardCoalescer(agents[0].policy, window_s=0.5, max_batch=8)

        def rollouts(agent):
            return lambda: [
                agent.plan(MAX_STEPS, coalescer=coalescer) for _ in range(self.ROUNDS)
            ]

        results = run_concurrently([rollouts(agent) for agent in agents])
        registry.close()
        steps = 0
        for plans, reference in zip(results, references):
            for plan in plans:
                assert plan.capacities == reference.capacities
                assert plan.metadata == reference.metadata
                steps += plan.metadata["steps"]
        stats = coalescer.stats()
        assert stats["groups"] == 2
        assert stats["batches"] == 0
        assert stats["coalesced_requests"] == 0
        assert stats["fastpath"] == steps

    def test_same_instance_cohort_still_coalesces(self, model_dir):
        registry = PolicyRegistry(str(model_dir))
        agent, _ = registry.agent(KEY, seed=0)
        reference = agent.plan(MAX_STEPS)
        coalescer = ForwardCoalescer(agent.policy, window_s=0.05, max_batch=4)
        plans = run_concurrently(
            [lambda: agent.plan(MAX_STEPS, coalescer=coalescer) for _ in range(4)]
        )
        registry.close()
        for plan in plans:
            assert plan.capacities == reference.capacities
        stats = coalescer.stats()
        assert stats["groups"] == 1
        assert stats["batches"] >= 1
        assert stats["coalesced_requests"] / stats["batches"] > 1.0
        steps = sum(plan.metadata["steps"] for plan in plans)
        assert stats["fastpath"] + stats["coalesced_requests"] == steps
