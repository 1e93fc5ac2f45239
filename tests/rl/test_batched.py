"""Tests for the batched multi-environment collector (repro.rl.batched).

The load-bearing contract: the merged trajectory stream a batched
collector produces is bitwise identical to per-stream rollouts through
the autodiff policy for any (seed, epoch, num_envs) — batching is a pure
throughput optimization, never a behavior change.  Also covered:
composition with ``num_workers``, the configuration guards, the fused
kernel audit, the one batched forward every A2C/PPO update
differentiates, the environments' duality-certificate LP-skip, the
batch-of-one forward that serving takes every rollout step from, and
the batched distribution.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import ConfigError, NNError
from repro.nn.distributions import BatchedCategorical, Categorical
from repro.nn.tensor import Tensor, no_grad
from repro.rl import batched as batched_module
from repro.rl.a2c import A2CConfig, A2CTrainer
from repro.rl.agent import greedy_rollout
from repro.rl.batched import (
    BatchedForward,
    BatchedPlanningEnv,
    BatchedPolicyEvaluator,
    BatchedRolloutCollector,
    mode_actions_rows,
    rowblock_matmul,
)
from repro.rl.env import PlanningEnv
from repro.rl.policy import ActorCriticPolicy
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.rollouts import (
    Fragment,
    Transition,
    make_collector,
    merge_fragments,
)
from repro.seeding import stream_generator
from repro.topology import datasets, generators

BUDGET = 24
MAX_TRAJECTORY = 8


def fresh_env():
    return PlanningEnv(
        datasets.figure1_topology(), max_units_per_step=1, max_steps=12
    )


def fresh_policy(**overrides):
    kwargs = {"feature_dim": 1, "max_units": 1, "rng": 0}
    kwargs.update(overrides)
    return ActorCriticPolicy(**kwargs)


def stream(batch):
    """Every per-transition field, flattened in merged order."""
    return [
        (
            t.observation.tobytes(),
            t.mask.tobytes(),
            t.action,
            t.reward,
            t.value,
            t.log_prob,
        )
        for f in batch.fragments
        for t in f.transitions
    ]


def bounds(batch):
    return [
        (
            len(f.transitions),
            f.stream,
            f.done,
            f.feasible,
            f.plan_cost,
            f.final_value,
        )
        for f in batch.fragments
    ]


def collect_batched(num_envs, seed=0, epoch=0, budget=BUDGET):
    collector = BatchedRolloutCollector(
        fresh_env(), fresh_policy(), num_envs=num_envs, seed=seed
    )
    try:
        return collector.collect(
            budget=budget, max_trajectory_length=MAX_TRAJECTORY, epoch=epoch
        )
    finally:
        collector.close()


def reference_fragment(env, policy, seed, epoch, stream):
    """Stream ``stream`` of ``epoch``: one environment stepped through the
    autodiff policy, sampling from the stream's own generator."""
    rng = stream_generator(seed, epoch, stream)
    observation = env.reset()
    transitions = []
    done = feasible = False
    with no_grad():
        while not done and len(transitions) < MAX_TRAJECTORY:
            mask = env.action_mask()
            if not mask.any():
                break  # spectrum exhausted: cut and bootstrapped below
            distribution, value = policy(observation, env.adjacency_norm, mask)
            action = distribution.sample(rng)
            result = env.step(action)
            transitions.append(
                Transition(
                    observation=observation,
                    mask=mask,
                    action=action,
                    reward=result.reward,
                    value=value.item(),
                    log_prob=distribution.log_prob(action).item(),
                )
            )
            observation = result.observation
            done, feasible = result.done, result.feasible
        done = done or len(transitions) >= MAX_TRAJECTORY  # the trainer's cap
        bootstrap = policy.value(observation, env.adjacency_norm).item()
    return Fragment(
        transitions=transitions,
        stream=stream,
        done=done,
        feasible=feasible,
        plan_cost=env.plan_cost() if feasible else None,
        capacities=env.capacities() if feasible else None,
        final_value=0.0 if done else bootstrap,
    )


def collect_pool(seed=0, epoch=0, budget=BUDGET):
    """The per-stream reference batch: streams in index order until the
    budget is covered, merged like every batched collection round."""
    env, policy = fresh_env(), fresh_policy()
    fragments = []
    total = 0
    while total < budget:
        fragment = reference_fragment(env, policy, seed, epoch, len(fragments))
        fragments.append(fragment)
        total += len(fragment)
        if len(fragment) == 0:
            break  # no valid action at reset
    return merge_fragments(fragments, budget)


# ----------------------------------------------------------------------
# The bitwise contract
# ----------------------------------------------------------------------
class TestBatchedSerialParity:
    @pytest.mark.parametrize("num_envs", [1, 2, 8])
    def test_stream_matches_pool(self, num_envs):
        """K stacked envs replay the per-stream autodiff rollouts."""
        reference = collect_pool()
        batched = collect_batched(num_envs)
        assert stream(batched) == stream(reference)
        assert bounds(batched) == bounds(reference)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        epoch=st.integers(min_value=0, max_value=64),
        num_envs=st.sampled_from([1, 2, 8]),
    )
    def test_stream_matches_pool_any_seed(self, seed, epoch, num_envs):
        reference = collect_pool(seed=seed, epoch=epoch)
        batched = collect_batched(num_envs, seed=seed, epoch=epoch)
        assert stream(batched) == stream(reference)

    def test_batched_stream_invariant_in_num_envs(self):
        first = collect_batched(2)
        for num_envs in (4, 8):
            assert stream(collect_batched(num_envs)) == stream(first)

    def test_composes_with_num_workers(self):
        """num_envs x num_workers never changes the merged stream."""
        reference = collect_batched(2)
        collector = make_collector(
            fresh_env(),
            fresh_policy(),
            np.random.default_rng(0),
            num_workers=2,
            num_envs=2,
            seed=0,
        )
        try:
            batch = collector.collect(
                budget=BUDGET, max_trajectory_length=MAX_TRAJECTORY, epoch=0
            )
        finally:
            collector.close()
        assert stream(batch) == stream(reference)


# ----------------------------------------------------------------------
# Configuration guards
# ----------------------------------------------------------------------
class TestConfigGuards:
    def test_auto_resolution(self):
        """Every (num_workers, num_envs) gets the batched collector."""
        for workers, envs in [(1, 1), (2, 1), (1, 4), (2, 4)]:
            collector = make_collector(
                fresh_env(),
                fresh_policy(),
                np.random.default_rng(0),
                num_workers=workers,
                num_envs=envs,
            )
            try:
                assert isinstance(collector, BatchedRolloutCollector)
                assert collector.num_workers == workers
                assert collector.num_envs == envs
            finally:
                collector.close()

    def test_num_envs_must_be_positive(self):
        with pytest.raises(ConfigError, match="num_envs"):
            make_collector(
                fresh_env(), fresh_policy(), np.random.default_rng(0), num_envs=0
            )
        for config_cls in (A2CConfig, PPOConfig):
            with pytest.raises(ConfigError, match="num_envs"):
                config_cls(num_envs=0)
            with pytest.raises(ConfigError, match="num_workers"):
                config_cls(num_workers=0)


# ----------------------------------------------------------------------
# The fused-kernel audit
# ----------------------------------------------------------------------
def slab_rows(x, w, block):
    """``x @ w`` one ``block``-row BLAS call at a time."""
    out = np.empty((x.shape[0], w.shape[1]))
    for start in range(0, x.shape[0], block):
        np.matmul(x[start : start + block], w, out=out[start : start + block])
    return out


class TestFusionAudit:
    """A fused kernel is trusted on a seeded random probe, never on the
    caller's operands.  All-zero rows (standardized features when every
    link starts at the same capacity) agree under any summation order,
    so a verdict taken on them says nothing about the next call.  Each
    case runs a degenerate call first at a fresh shape, then requires
    general data to match the per-slot calls byte for byte.  Where this
    machine's fused kernels round like the per-slot ones, every case
    passes either way."""

    @pytest.fixture(autouse=True)
    def fresh_verdicts(self, monkeypatch):
        monkeypatch.setattr(batched_module, "_FUSED_GEMM_OK", {})

    def test_rowblock_matmul(self):
        # The actor's 64 -> 1 output layer at max_units=1 on figure 1,
        # two slots of two nodes each.
        rng = np.random.default_rng(0)
        w = rng.normal(size=(64, 1))
        rowblock_matmul(np.zeros((4, 64)), w, 2)
        x = rng.normal(size=(4, 64))
        assert rowblock_matmul(x, w, 2).tobytes() == slab_rows(x, w, 2).tobytes()

    def test_propagate_dense(self):
        env = fresh_env()
        evaluator = BatchedPolicyEvaluator(fresh_policy(), env.adjacency_norm, False)
        rng = np.random.default_rng(1)
        n, width = 6, 64
        operator = rng.normal(size=(n, n))
        evaluator._propagate_dense(operator, np.zeros((4 * n, width)), n)
        x = rng.normal(size=(4 * n, width))
        slabs = np.concatenate([operator @ x[i : i + n] for i in range(0, 4 * n, n)])
        got = evaluator._propagate_dense(operator, x, n)
        assert got.tobytes() == slabs.tobytes()

    def test_critic_through_evaluator(self):
        env = fresh_env()
        policy = fresh_policy()
        evaluator = BatchedPolicyEvaluator(policy, env.adjacency_norm, False)
        # Zero features give every slot the same graph embedding.
        evaluator.forward(np.zeros((8, 2, 1)))
        features = np.random.default_rng(2).normal(size=(8, 2, 1))
        _logits, values = evaluator.forward(features)
        with no_grad():
            serial = [policy.value(obs, env.adjacency_norm).item() for obs in features]
        assert values.tolist() == serial


# ----------------------------------------------------------------------
# The update's one forward
# ----------------------------------------------------------------------
# Every model shape a trainer updates: both bands at three scales plus
# C@1.0 (sparse by default), dense or forced-sparse adjacency, each
# encoder at 0-2 layers, and 1-4 units per action.
update_cases = st.fixed_dictionaries(
    {
        "instance": st.one_of(
            st.tuples(st.sampled_from(["A", "B"]), st.sampled_from([0.3, 0.5, 1.0])),
            st.just(("C", 1.0)),
        ),
        "seed": st.integers(min_value=0, max_value=5),
        "sparse": st.booleans(),
        "gnn_type": st.sampled_from(["gcn", "sage", "gat"]),
        "gnn_layers": st.integers(min_value=0, max_value=2),
        "max_units": st.integers(min_value=1, max_value=4),
    }
)
UPDATE_TRANSITIONS = 200
TRAINERS = {"a2c": (A2CTrainer, A2CConfig), "ppo": (PPOTrainer, PPOConfig)}


def random_transitions(env, rng, count):
    """``count`` stacked (observation, mask, action) rows along masked
    random trajectories, restarting the env whenever one ends."""
    observations, masks, actions = [], [], []
    observation = env.reset()
    while len(actions) < count:
        mask = env.action_mask()
        if env.done or not mask.any():
            observation = env.reset()
            continue
        action = int(rng.choice(np.flatnonzero(mask)))
        observations.append(observation)
        masks.append(mask)
        actions.append(action)
        observation = env.step(action).observation
    return np.stack(observations), np.stack(masks), np.array(actions)


def outputs_and_gradients(policy, forward, weights):
    """A forward's (log_probs, entropies, values) and the parameter
    gradients of a fixed random combination of all three."""
    outputs = forward()
    loss = sum((out * Tensor(w)).sum() for out, w in zip(outputs, weights))
    policy.zero_grad()
    loss.backward()
    return (
        [out.data for out in outputs],
        [param.grad for param in policy.parameters()],
    )


class TestBatchedUpdate:
    """Every A2C/PPO update differentiates one batched forward.

    ``BatchedForward.evaluate`` sums in another order than one graph
    per transition does, so it is held to the per-transition autodiff
    forward within float64 tolerances fixed up front, not to its bits.
    """

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=update_cases, action_seed=st.integers(0, 2**16))
    def test_matches_per_transition_reference(self, case, action_seed):
        topology, scale = case["instance"]
        instance = generators.make_instance(
            topology, seed=case["seed"], scale=scale, horizon="short"
        )
        env = PlanningEnv(
            instance,
            max_units_per_step=case["max_units"],
            max_steps=64,
            sparse_adjacency=True if case["sparse"] else None,
        )
        policy = ActorCriticPolicy(
            feature_dim=env.encoder.feature_dim,
            max_units=case["max_units"],
            gnn_layers=case["gnn_layers"],
            gnn_type=case["gnn_type"],
            rng=case["seed"],
        )
        rng = np.random.default_rng(action_seed)
        observations, masks, actions = random_transitions(env, rng, UPDATE_TRANSITIONS)
        weights = rng.normal(size=(3, len(actions)))

        # The reference propagates through the CSR adjacency the batched
        # forward uses.  A dense gemm can round a pre-activation that is
        # exactly 0 by symmetry (standardized features) to 1e-17, which
        # flips ReLU's subgradient: a change of kink, not of arithmetic.
        adjacency = sp.csr_matrix(env.adjacency_norm)

        def per_transition():
            rows = [
                policy(observation, adjacency, mask)
                for observation, mask in zip(observations, masks)
            ]
            return (
                Tensor.stack([d.log_prob(a) for (d, _), a in zip(rows, actions)]),
                Tensor.stack([d.entropy() for d, _ in rows]),
                Tensor.stack([value for _, value in rows]),
            )

        batched = BatchedForward(policy, env.adjacency_norm)
        got, got_grads = outputs_and_gradients(
            policy,
            lambda: batched.evaluate(observations, masks, actions),
            weights,
        )
        want, want_grads = outputs_and_gradients(policy, per_transition, weights)
        for batched_out, reference in zip(got, want):
            np.testing.assert_allclose(batched_out, reference, rtol=0, atol=1e-12)
        # Relative to the whole gradient's largest entry: a parameter
        # whose exact gradient is 0 (the last actor bias at max_units=1
        # shifts every logit alike) carries no relative precision.
        scale = max(np.abs(reference).max() for reference in want_grads)
        for batched_grad, reference in zip(got_grads, want_grads):
            assert np.abs(batched_grad - reference).max() <= 1e-9 * scale

    @pytest.mark.parametrize("algo", sorted(TRAINERS))
    def test_update_runs_no_per_transition_forward(self, algo, monkeypatch):
        """No training epoch runs the autodiff policy at any pair.

        Collection takes the grad-free evaluator, the (1, 1) serial
        stream included, and each update one batched forward over the
        epoch: ``ActorCriticPolicy.forward`` and ``value`` never run.
        Forked pool workers inherit the trap."""
        evaluated_rows = []
        evaluate = BatchedForward.evaluate

        def trap(self, *args, **kwargs):
            raise AssertionError("a training epoch ran the autodiff policy")

        def recorded_evaluate(self, observations, masks, actions):
            evaluated_rows.append(len(actions))
            return evaluate(self, observations, masks, actions)

        monkeypatch.setattr(ActorCriticPolicy, "forward", trap)
        monkeypatch.setattr(ActorCriticPolicy, "value", trap)
        monkeypatch.setattr(BatchedForward, "evaluate", recorded_evaluate)
        trainer_cls, config_cls = TRAINERS[algo]
        for num_workers, num_envs in [(1, 1), (1, 2), (2, 1)]:
            evaluated_rows.clear()
            config = config_cls(
                epochs=1,
                steps_per_epoch=BUDGET,
                max_trajectory_length=MAX_TRAJECTORY,
                seed=0,
                num_workers=num_workers,
                num_envs=num_envs,
            )
            trainer_cls(fresh_env(), fresh_policy(), config).train()
            # Every batched evaluation covers the whole epoch at once.
            assert evaluated_rows, (num_workers, num_envs)
            assert set(evaluated_rows) == {BUDGET}, (num_workers, num_envs)

    def test_gat_trains_at_every_num_envs(self):
        for algo, (trainer_cls, config_cls) in sorted(TRAINERS.items()):
            for num_envs in (1, 2):
                policy = fresh_policy(gnn_type="gat")
                before = {k: v.copy() for k, v in policy.state_dict().items()}
                config = config_cls(
                    epochs=2,
                    steps_per_epoch=BUDGET,
                    max_trajectory_length=MAX_TRAJECTORY,
                    num_envs=num_envs,
                    seed=0,
                )
                result = trainer_cls(fresh_env(), policy, config).train()
                assert result.epochs_run == 2, (algo, num_envs)
                for entry in result.history:
                    assert np.isfinite(entry["policy_loss"]), (algo, num_envs)
                    assert np.isfinite(entry["value_loss"]), (algo, num_envs)
                after = policy.state_dict()
                encoder = [k for k in before if k.startswith("encoder.")]
                moved = [k for k in encoder if not np.array_equal(before[k], after[k])]
                assert moved, (algo, num_envs)

    def test_holds_only_the_latest_block_operator(self):
        env = fresh_env()
        n = env.adjacency_norm.shape[0]
        forward = BatchedForward(fresh_policy(), env.adjacency_norm)
        observations, masks, actions = random_transitions(
            env, np.random.default_rng(0), 7
        )
        for m in (7, 3):
            forward.evaluate(observations[:m], masks[:m], actions[:m])
        size, operator = forward._last_block
        assert size == 3 and operator.shape == (3 * n, 3 * n)
        reference = sp.block_diag([sp.csr_matrix(env.adjacency_norm)] * 3, format="csr")
        for field in ("indptr", "indices", "data"):
            got, want = getattr(operator, field), getattr(reference, field)
            assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# The environment's provable LP-skip
# ----------------------------------------------------------------------
# The property runs over small topology-A instances: seed, scale and
# capacity unit vary the violated failures and the certificate slopes;
# the action seed varies the masked random trajectory.
skip_instances = st.builds(
    lambda seed, scale, unit: generators.make_instance(
        "A", seed=seed, scale=scale, horizon="short", capacity_unit=unit
    ),
    seed=st.integers(min_value=0, max_value=5),
    scale=st.sampled_from([0.5, 0.7, 1.0]),
    unit=st.sampled_from([5.0, 10.0, 25.0, 50.0]),
)
SKIP_ENV = {"max_units_per_step": 4, "max_steps": 64}


def lp_solves(batched_env):
    return sum(evaluator.lp_solves for evaluator in batched_env.evaluators)


class TestInfeasibilitySkip:
    """The duality-certificate LP-skip changes solve counts, never verdicts.

    Each reference environment has its shortfall bound zeroed before
    every step, which forces a real LP evaluate each time; the skipping
    environment must match it bitwise anyway.
    """

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instance=skip_instances, action_seed=st.integers(0, 2**16))
    def test_skip_preserves_trajectory_bitwise(self, instance, action_seed):
        skipping = PlanningEnv(instance, **SKIP_ENV)
        reference = PlanningEnv(
            instance, reward_scale=skipping.reward_scale, **SKIP_ENV
        )
        obs_a, obs_b = skipping.reset(), reference.reset()
        assert obs_a.tobytes() == obs_b.tobytes()
        assert not skipping.done  # every drawn instance starts infeasible
        rng = np.random.default_rng(action_seed)
        done = False
        while not done:
            mask = skipping.action_mask()
            assert mask.tobytes() == reference.action_mask().tobytes()
            action = int(rng.choice(np.flatnonzero(mask)))
            reference._shortfall_bound.gap = 0.0  # force a real evaluate
            a = skipping.step(action)
            b = reference.step(action)
            assert a.reward == b.reward
            assert a.done == b.done
            assert a.feasible == b.feasible
            assert a.observation.tobytes() == b.observation.tobytes()
            assert a.info["violated_failure"] == b.info["violated_failure"]
            # A skipped step reports the bound, which never over-states
            # the shortfall the LP finds.
            assert a.info["shortfall"] <= b.info["shortfall"] + 1e-9
            done = a.done
        assert skipping.evaluator.lp_solves < reference.evaluator.lp_solves

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        instance=skip_instances,
        num_envs=st.sampled_from([1, 4]),
        action_seed=st.integers(0, 2**16),
    )
    def test_batched_skip_preserves_trajectory_bitwise(
        self, instance, num_envs, action_seed
    ):
        skipping = BatchedPlanningEnv(instance, num_envs, **SKIP_ENV)
        reference = BatchedPlanningEnv(
            instance,
            num_envs,
            reward_scale=skipping.reward_scale,
            **SKIP_ENV,
        )
        skipping.reset_all()
        reference.reset_all()
        rng = np.random.default_rng(action_seed)
        while not skipping.done.all():
            slots = np.flatnonzero(~skipping.done)
            assert np.array_equal(slots, np.flatnonzero(~reference.done))
            masks = skipping.action_masks(slots)
            assert masks.tobytes() == reference.action_masks(slots).tobytes()
            actions = [int(rng.choice(np.flatnonzero(mask))) for mask in masks]
            for env in reference._envs:
                env._shortfall_bound.gap = 0.0  # force a real evaluate in every slot
            stepped = skipping.step_slots(slots, actions)
            assert stepped == reference.step_slots(slots, actions)
            obs_a, obs_b = skipping.observe(slots), reference.observe(slots)
            assert obs_a.tobytes() == obs_b.tobytes()
            assert skipping.feasible.tobytes() == reference.feasible.tobytes()
            violated = [e._shortfall_bound.violated for e in skipping._envs]
            assert violated == [e._shortfall_bound.violated for e in reference._envs]
        assert lp_solves(skipping) < lp_solves(reference)

    def test_gap_reseeds_after_each_real_evaluate(self):
        instance = generators.make_instance(
            "A", seed=0, scale=0.7, horizon="short", capacity_unit=10.0
        )
        env = PlanningEnv(instance, **SKIP_ENV)
        evaluations = []
        evaluate = env.evaluator.evaluate

        def recording_evaluate(capacities):
            result = evaluate(capacities)
            evaluations.append((result, dict(capacities)))
            return result

        env.evaluator.evaluate = recording_evaluate
        env.reset()
        bound = env._shortfall_bound
        result, capacities = evaluations[-1]
        # At the anchor the certificate is tight (strong duality).
        assert bound.gap == pytest.approx(result.shortfall, abs=1e-6)
        rng = np.random.default_rng(0)
        skipped = reseeded = 0
        while not env.done:
            gap = bound.gap
            slopes = evaluations[-1][0].certificate.slopes
            solves = len(evaluations)
            action = int(rng.choice(np.flatnonzero(env.action_mask())))
            link_id, units = env.decode_action(action)
            env.step(action)
            if len(evaluations) == solves:
                # A skipped step moves the gap by the link's slope only.
                amount = units * instance.capacity_unit
                assert bound.gap == gap - slopes.get(link_id, 0.0) * amount
                skipped += 1
            elif not env.feasible:
                result, capacities = evaluations[-1]
                certificate = result.certificate
                reseed = certificate.required_demand - certificate.bound(capacities)
                assert bound.gap == reseed
                assert bound.gap <= result.shortfall + 1e-9
                reseeded += 1
        assert skipped and reseeded

    def test_skips_counted_only_with_telemetry_enabled(self):
        instance = generators.make_instance(
            "A", seed=0, scale=0.7, horizon="short", capacity_unit=10.0
        )
        telemetry.disable()
        telemetry.reset()
        try:
            for enabled in (False, True):
                if enabled:
                    telemetry.enable()
                env = PlanningEnv(instance, **SKIP_ENV)
                env.reset()
                rng = np.random.default_rng(0)
                skipped = 0
                while not env.done:
                    solves = env.evaluator.lp_solves
                    env.step(int(rng.choice(np.flatnonzero(env.action_mask()))))
                    skipped += env.evaluator.lp_solves == solves
                counted = telemetry.get_registry().counter_value("env.lp_skips")
                assert skipped > 0
                assert counted == (skipped if enabled else 0)
        finally:
            telemetry.disable()
            telemetry.reset()


# ----------------------------------------------------------------------
# One row through the evaluator (the serving forward)
# ----------------------------------------------------------------------
# Every model shape the serving stack can load: both bands, dense or
# forced-sparse adjacency, each encoder at 0-2 layers, and both feature
# sets.  Rollouts are capped so a drawn example stays cheap.
row_cases = st.fixed_dictionaries(
    {
        "topology": st.sampled_from(["A", "B"]),
        "seed": st.integers(min_value=0, max_value=5),
        "scale": st.sampled_from([0.3, 0.5, 1.0]),
        "sparse": st.booleans(),
        "gnn_type": st.sampled_from(["gcn", "sage", "gat"]),
        "gnn_layers": st.integers(min_value=0, max_value=2),
        "max_units": st.integers(min_value=1, max_value=4),
        "feature_set": st.sampled_from(["capacity", "extended"]),
    }
)
ROW_MAX_STEPS = 24


class TestEvaluatorRowParity:
    """A batch of one through the evaluator is the serial forward.

    Served rollouts take every step's mode action this way, so each
    logits row must equal the autodiff policy's byte for byte, and a
    rollout driven by ``mode_action`` must retrace the autodiff one.
    """

    @settings(
        max_examples=24,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=row_cases, action_seed=st.integers(0, 2**16))
    def test_row_matches_autodiff_forward(self, case, action_seed):
        instance = generators.make_instance(
            case["topology"],
            seed=case["seed"],
            scale=case["scale"],
            horizon="short",
        )
        env = PlanningEnv(
            instance,
            max_units_per_step=case["max_units"],
            max_steps=ROW_MAX_STEPS,
            feature_set=case["feature_set"],
            sparse_adjacency=case["sparse"],
        )
        policy = ActorCriticPolicy(
            feature_dim=env.encoder.feature_dim,
            max_units=case["max_units"],
            gnn_layers=case["gnn_layers"],
            gnn_type=case["gnn_type"],
            rng=case["seed"],
        )
        evaluator = BatchedPolicyEvaluator(
            policy, env.adjacency_norm, env.sparse_adjacency
        )
        # Logits rows along a random trajectory, so later observations
        # carry added capacity, not just the initial network.
        rng = np.random.default_rng(action_seed)
        observation = env.reset()
        while True:
            serial = policy.action_logits(observation, env.adjacency_norm)
            logits, _values = evaluator.forward(observation[None])
            assert logits.shape == (1, serial.data.size)
            assert logits[0].tobytes() == serial.data.tobytes()
            mask = env.action_mask()
            if env.done or not mask.any():
                break
            mode = policy.distribution(observation, env.adjacency_norm, mask).mode()
            assert evaluator.mode_action(observation, mask) == mode
            step = env.step(int(rng.choice(np.flatnonzero(mask))))
            observation = step.observation
        reference = greedy_rollout(env, policy)
        served = greedy_rollout(env, policy, act=evaluator.mode_action)
        assert served.capacities == reference.capacities
        assert served.metadata == reference.metadata

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=row_cases, action_seed=st.integers(0, 2**16))
    def test_logits_path_runs_no_critic(self, case, action_seed):
        """Served forwards drop the critic without moving a logit bit."""
        instance = generators.make_instance(
            case["topology"],
            seed=case["seed"],
            scale=case["scale"],
            horizon="short",
        )
        env = PlanningEnv(
            instance,
            max_units_per_step=case["max_units"],
            max_steps=ROW_MAX_STEPS,
            feature_set=case["feature_set"],
            sparse_adjacency=case["sparse"],
        )
        policy = ActorCriticPolicy(
            feature_dim=env.encoder.feature_dim,
            max_units=case["max_units"],
            gnn_layers=case["gnn_layers"],
            gnn_type=case["gnn_type"],
            rng=case["seed"],
        )
        evaluator = BatchedPolicyEvaluator(
            policy, env.adjacency_norm, env.sparse_adjacency
        )
        rng = np.random.default_rng(action_seed)
        observations, masks = [env.reset()], [env.action_mask()]
        while not env.done and masks[-1].any():
            step = env.step(int(rng.choice(np.flatnonzero(masks[-1]))))
            observations.append(step.observation)
            masks.append(env.action_mask())
        stacked = np.stack(observations)
        expected, _values = evaluator.forward(stacked)
        singles = [evaluator.forward(obs[None])[0] for obs in observations]
        with mock.patch.object(
            BatchedPolicyEvaluator,
            "_critic_values",
            side_effect=AssertionError("served forward ran the critic"),
        ):
            logits, values = evaluator.forward(stacked, critic=False)
            assert values is None
            assert logits.tobytes() == expected.tobytes()
            for observation, mask, single in zip(observations, masks, singles):
                row, _values = evaluator.forward(observation[None], critic=False)
                assert row.tobytes() == single.tobytes()
                if mask.any():
                    mode = mode_actions_rows(single, mask[None])[0]
                    assert evaluator.mode_action(observation, mask) == mode


# ----------------------------------------------------------------------
# BatchedCategorical
# ----------------------------------------------------------------------
class TestBatchedCategorical:
    def test_rejects_bad_shapes(self):
        with pytest.raises(NNError, match="2-D"):
            BatchedCategorical(Tensor(np.zeros(3)))
        with pytest.raises(NNError, match="mask shape"):
            BatchedCategorical(
                Tensor(np.zeros((2, 3))), np.ones((3, 2), dtype=bool)
            )
        dead_row = np.array([[True, True], [False, False]])
        with pytest.raises(NNError, match="disables"):
            BatchedCategorical(Tensor(np.zeros((2, 2))), dead_row)

    def test_log_prob_and_entropy_match_rows(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 5))
        batched = BatchedCategorical(Tensor(logits))
        actions = [2, 0, 4]
        joint = batched.log_prob(actions)
        entropy = batched.entropy()
        for row, action in enumerate(actions):
            single = Categorical(Tensor(logits[row]))
            assert joint.data[row] == pytest.approx(
                single.log_prob(action).item()
            )
            assert entropy.data[row] == pytest.approx(single.entropy().item())
