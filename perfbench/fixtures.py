"""Benchmark fixtures: the tiny published model and the reference plans.

Both are pure functions of the program's source, so they are built once
per source digest under ``.perfbench/fixtures/<digest>/`` at the
checkout root and reused by later runs.  Neither counts in ``setup_s``.

References come from paths that share nothing with the mechanisms under
test: plan references from a one-worker service with no cache and no
coalescer, replan references from a cold environment plus a
from-scratch ``greedy_rollout`` on the drifted instance.  Every
reference is then re-scored by the standalone verifier
(``repro.scenarios.verify_plan``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"

# Bump when the layout or meaning of a cached fixture changes.
FIXTURE_FORMAT = 1

# The served model: the same tiny A@0.5 policy the serving ablations
# publish (two A2C epochs of 48 steps), with a 96-step trained horizon.
TOPOLOGY, SCALE, HORIZON = "A", 0.5, "short"
MODEL_MAX_STEPS, MODEL_MAX_UNITS = 96, 2

# plan-cold spreads over eight instances; plan-hot uses the first four.
PLAN_SEEDS = tuple(range(8))

# replan-drift walks growth sessions on instances whose greedy rollout
# stays feasible as demand grows.  A session is admitted into the
# universe only if the cold reference of every period is feasible:
# warm-starting from a prior plan is exact only when that prior was a
# genuine stopping point, not a rollout truncated at the step limit.
REPLAN_SEEDS = (0, 3, 22, 39)
REPLAN_PERIODS = 8
REPLAN_UNIVERSE = 256

# The verifier's own tolerance, applied relative to the cost.
COST_TOL = 1e-6


def source_digest() -> str:
    """Digest of every program source file (what the fixtures depend on)."""
    digest = hashlib.sha256(f"format={FIXTURE_FORMAT}".encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def model_key():
    from repro.serve import ModelKey

    return ModelKey(TOPOLOGY, SCALE, HORIZON)


def drift_spec(traffic) -> dict:
    """A period's cumulative demand matrix as a replan drift spec."""
    return {
        "flows": [
            {"src": f.src, "dst": f.dst, "cos": f.cos.name, "demand": f.demand}
            for f in traffic
        ]
    }


def _write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


class Fixtures:
    """Lazily built, digest-keyed fixture directory."""

    def __init__(self):
        self.dir = STATE_DIR / "fixtures" / source_digest()
        self.dir.mkdir(parents=True, exist_ok=True)

    # -- the model -----------------------------------------------------------
    def model_store(self) -> str:
        store = self.dir / "models"
        if not store.exists():
            tmp = self.dir / "models.tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            _publish_tiny_model(str(tmp))
            os.replace(tmp, store)
        return str(store)

    def manifest_checksum(self) -> str:
        from repro.serve import ModelStore
        from repro.serve.registry import manifest_checksum

        record = ModelStore(self.model_store()).resolve(model_key())
        return manifest_checksum(record.manifest)

    # -- references ----------------------------------------------------------
    def _cached(self, name: str, build):
        path = self.dir / f"{name}.json"
        if not path.exists():
            _write_json(path, build())
        return json.loads(path.read_text())

    def plan_references(self) -> dict:
        """``{"<seed>/<second_stage>": reference}`` for every plan identity."""
        return self._cached("plan_references", self._build_plan_references)

    def replan_universe(self) -> dict:
        """``{"baseline": {seed: reference}, "sessions": [...]}``: the
        baseline-demand reference per seed, and the admitted growth
        sessions with one reference per period."""
        return self._cached("replan_universe", self._build_replan_universe)

    def ensure_all(self) -> None:
        """Build every fixture now (the first run in a checkout pays)."""
        self.plan_references()
        self.replan_universe()

    def _build_plan_references(self) -> dict:
        from repro.scenarios import verify_plan
        from repro.serve import PlanningService, PlanRequest, ServiceConfig
        from repro.topology import generators

        serial = ServiceConfig(workers=1, cache_size=0, batching=False)
        references = {}
        with PlanningService(self.model_store(), serial) as service:
            for seed in PLAN_SEEDS:
                instance = generators.make_instance(
                    TOPOLOGY, seed=seed, scale=SCALE, horizon=HORIZON
                )
                for second_stage in (False, True):
                    response = service.plan(
                        PlanRequest(
                            topology=TOPOLOGY, scale=SCALE, seed=seed,
                            second_stage=second_stage, no_cache=True,
                        )
                    )
                    report = verify_plan(instance, response["plan"], response["method"])
                    references[f"{seed}/{second_stage}"] = {
                        "plan": response["plan"],
                        "cost": response["cost"],
                        "feasible": response["feasible"],
                        "verified": agrees_with_verifier(
                            report, response["feasible"], response["cost"]
                        ),
                    }
        return references

    def _build_replan_universe(self) -> dict:
        from repro.scenarios.multiperiod import growth_schedule
        from repro.serve import PolicyRegistry

        registry = PolicyRegistry(self.model_store())
        baseline, sessions = {}, []
        candidate = 0
        try:
            for seed in REPLAN_SEEDS:
                agent, _ = registry.agent(model_key(), seed=seed)
                baseline[str(seed)] = _cold_reference(agent, agent.instance.traffic)
            while len(sessions) < REPLAN_UNIVERSE:
                seed = REPLAN_SEEDS[candidate % len(REPLAN_SEEDS)]
                schedule_seed = candidate // len(REPLAN_SEEDS)
                candidate += 1
                agent, _ = registry.agent(model_key(), seed=seed)
                periods = []
                for traffic in growth_schedule(
                    agent.instance.traffic, periods=REPLAN_PERIODS, seed=schedule_seed
                ):
                    reference = _cold_reference(agent, traffic)
                    if not reference["feasible"]:
                        break
                    periods.append(reference)
                else:
                    sessions.append(
                        {"seed": seed, "schedule_seed": schedule_seed, "periods": periods}
                    )
        finally:
            registry.close()
        return {"baseline": baseline, "sessions": sessions}


def _cold_reference(agent, traffic) -> dict:
    """A fresh environment on the drifted instance plus a from-scratch
    greedy rollout, re-scored by the standalone verifier."""
    from repro.rl.agent import greedy_rollout
    from repro.rl.env import PlanningEnv
    from repro.scenarios import verify_plan

    instance = replace(agent.instance, traffic=traffic)
    env = PlanningEnv(instance, **agent.env.replica_kwargs())
    plan = greedy_rollout(env, agent.policy)
    feasible = bool(plan.metadata["feasible"])
    cost = plan.cost(instance)
    report = verify_plan(instance, plan.capacities, plan.method)
    return {
        "plan": plan.capacities,
        "cost": cost,
        "feasible": feasible,
        "verified": agrees_with_verifier(report, feasible, cost),
    }


def agrees_with_verifier(report, feasible: bool, cost: float) -> bool:
    """The verifier re-derived the same feasibility verdict and cost."""
    from perfbench.harness import cost_matches

    return (
        report.cost is not None
        and report.feasible == bool(feasible)
        and cost_matches(report.cost, cost, COST_TOL)
    )


def _publish_tiny_model(store: str) -> None:
    from repro.rl.a2c import A2CConfig
    from repro.rl.agent import AgentConfig, NeuroPlanAgent
    from repro.serve import ModelStore
    from repro.topology import generators

    instance = generators.make_instance(TOPOLOGY, seed=0, scale=SCALE, horizon=HORIZON)
    agent = NeuroPlanAgent(
        instance,
        AgentConfig(
            max_units_per_step=MODEL_MAX_UNITS,
            max_steps=MODEL_MAX_STEPS,
            a2c=A2CConfig(
                epochs=2, steps_per_epoch=48,
                max_trajectory_length=MODEL_MAX_STEPS, seed=0,
            ),
        ),
    )
    agent.train()
    ModelStore(store).publish(
        agent.policy,
        key=model_key(),
        agent_kwargs={
            "max_units_per_step": MODEL_MAX_UNITS,
            "max_steps": MODEL_MAX_STEPS,
            "evaluator_mode": "neuroplan",
            "feature_set": "capacity",
        },
        source={"algo": "a2c", "bench": "perfbench"},
    )


# ----------------------------------------------------------------------
def conditions(seed: int, manifest: str) -> dict:
    """What every result is stamped with."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(numpy),
        "model_manifest_checksum": manifest,
        "workload_seed": seed,
    }


def _blas(numpy) -> dict:
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    try:
        from threadpoolctl import threadpool_info

        blas["threads"] = [
            pool["num_threads"] for pool in threadpool_info() if pool["user_api"] == "blas"
        ]
    except ImportError:
        # numpy itself does not report the thread count; without
        # threadpoolctl the environment settings are what is known.
        blas["threads"] = {
            name: os.environ.get(name, "unset (library default)")
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        }
    return blas
