"""Seeded input generator: the same workload and seed give the same bytes.

``generate`` writes the workload's model JSON files under ``models/`` and an
``inputs.json`` holding the in-process components (field, dim, index, spectra,
input rank, parameter count) and the job list.  The job list is a seeded
shuffle of fixed class counts, so the work in a pass does not depend on the
seed, only the spectra and random streams do.  Standard library only.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import refs

FIELDS = ("R", "C", "H")


def _observable(rng: random.Random, dim: int) -> list[float]:
    # Pinned extremes keep the dispersion away from degenerate draws.  The
    # offset makes the raw loss mean far from zero, so the mean checks also
    # catch an error in the loss scale, and the floor is not trivially zero.
    inner = [rng.uniform(0.5, 1.5) for _ in range(dim - 2)]
    return sorted([0.5, 1.5] + inner)


def _input(rng: random.Random, dim: int, rank: int) -> list[float]:
    weights = [rng.uniform(0.2, 1.0) for _ in range(rank)]
    total = sum(weights)
    return [w / total for w in weights] + [0.0] * (dim - rank)


def component(rng: random.Random, field: str, dim: int, *, rank: int, params: int,
              index: float = 1.0) -> dict:
    """A sector in the model-file schema; rank 1 is written as a pure input."""
    return {
        "field": field,
        "dim": dim,
        "index": index,
        "observable_spectrum": _observable(rng, dim),
        "input_spectrum": {"pure": True} if rank == 1 else _input(rng, dim, rank),
        "sector_params": params,
    }


def under_params(comp: dict, share: float) -> int:
    """A parameter count at `share` of beta * dof, so the sector is underparameterized."""
    return max(1, math.floor(share * refs.BETA[comp["field"]] * refs.dof_real(comp)))


def model(components: list[dict], extra_params: int = 0, normalization: float = 1.0) -> dict:
    total = sum(c["sector_params"] for c in components) + extra_params
    return {"total_params": max(total, 1), "normalization": normalization,
            "components": components}


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(62)


# exact-mc: draws per job for (field, dim, collect); sized so that a job runs
# 2-10 ms except the H dim-32 class, whose Gram-Schmidt loop costs ~100 ms
# per call whatever the batch.
_MC_DRAWS = {
    ("R", 8, "loss"): 512, ("R", 8, "grad"): 256,
    ("R", 32, "loss"): 64, ("R", 32, "grad"): 32,
    ("C", 8, "loss"): 256, ("C", 8, "grad"): 256,
    ("C", 32, "loss"): 32, ("C", 32, "grad"): 32,
    ("H", 8, "loss"): 32, ("H", 8, "grad"): 32,
    ("H", 32, "loss"): 4, ("H", 32, "grad"): 4,
}
# jobs per pass for each (field, dim, collect), split over pure and mixed
# inputs: 107 with the Hessian jobs, so that ten job times lie beyond p90.
# The five H dim-32 jobs are the slowest, then the eight H dim-8 Hessian
# jobs (one instance each, ~25 ms), so p90, 10.6 jobs below the slowest, falls
# inside the Hessian class, not on a class boundary.  The R and C Hessian
# jobs (~2 ms) join the cheapest classes, so p50, the 54th, falls mid-way
# through the nine C dim-32 loss jobs (~4.5 ms), between the ~3 ms classes
# and the ~5.5 ms ones.  Few H dim-32 jobs keep a pass near 1.5 s, so each
# job's median is taken over about 16 passes of a 30 s run.
_MC_JOBS = {key: 9 for key in _MC_DRAWS}
_MC_JOBS[("H", 32, "loss")] = 2
_MC_JOBS[("H", 32, "grad")] = 3
_MC_HESSIAN_DRAWS = {"R": 4, "C": 4, "H": 1}
_MC_HESSIAN_JOBS = {"R": 2, "C": 2, "H": 8}
MC_PARAMS = 3


def _exact_mc(rng: random.Random) -> tuple[dict, list[dict], dict]:
    comps = {}
    for field in FIELDS:
        for dim in (8, 32):
            for kind in ("pure", "mixed"):
                rank = 1 if kind == "pure" else rng.choice((2, 3, 4))
                comps[f"{field}{dim}-{kind}"] = component(
                    rng, field, dim, rank=rank, params=MC_PARAMS, index=rng.choice((1.0, 2.0)))
    jobs = []
    for (field, dim, collect), count in _MC_JOBS.items():
        for k in range(count):
            kind = ("pure", "mixed")[k % 2]
            n = _MC_DRAWS[(field, dim, collect)]
            jobs.append({"cls": f"mc.{field}{dim}.{collect}", "case": f"{field}{dim}-{kind}",
                         "collect": ["loss", "grad"] if collect == "grad" else ["loss"],
                         "n": n, "draws": {field: n}})
    for field, n in _MC_HESSIAN_DRAWS.items():
        for k in range(_MC_HESSIAN_JOBS[field]):
            kind = ("pure", "mixed")[k % 2]
            jobs.append({"cls": f"mc.{field}8.hessian", "case": f"{field}8-{kind}",
                         "collect": ["hessian"], "n": n, "draws": {field: n}})
    models = {"mc": model(list(comps.values()))}
    return comps, jobs, models


WISHART_SHAPES = ((6, 9), (5, 8), (7, 10), (6, 12))
_SMALL_CALLS = {"wishart": 32, "grad": 32, "hess": 16, "reg": 32, "closed": 8}


def _small_draws(rng: random.Random) -> tuple[dict, list[dict], dict]:
    models = {}
    for field, dim in zip(FIELDS, (8, 6, 5)):
        comp = component(rng, field, dim, rank=1, params=0)
        comp["sector_params"] = under_params(comp, 0.5)
        models[f"surr-{field}"] = model([comp])
    cf = [component(rng, f, d, rank=r, params=0, index=i)
          for f, d, r, i in (("R", 10, 3, 2.0), ("C", 8, 1, 1.0), ("H", 6, 2, 1.0))]
    # one underparameterized sector: the minima density is a single gamma factor
    # (the convolution path runs in cli-runs `minima`)
    for comp, share in zip(cf, (0.4, 1.5, 1.5)):
        comp["sector_params"] = under_params(comp, share)
    models["closed"] = model(cf, extra_params=2, normalization=0.5)
    jobs = []
    for route in ("direct", "bartlett"):
        for field in FIELDS:
            for dim, dof in WISHART_SHAPES:
                # H Bartlett draws are the slowest class: at 17% of the jobs
                # p90 falls inside it, not on its boundary with the next class
                for _ in range(6 if (route, field) == ("bartlett", "H") else 3):
                    n = _SMALL_CALLS["wishart"]
                    jobs.append({"cls": f"wishart_{route}.{field}.{dim}x{dof}", "route": route,
                                 "field": field, "dim": dim, "dof": dof, "n": n,
                                 "draws": {field: n}})
    for kind in ("grad", "hess", "reg"):
        for field in FIELDS:
            for _ in range(4):
                n = _SMALL_CALLS[kind]
                jobs.append({"cls": f"{kind}.{field}", "model": f"surr-{field}", "n": n,
                             "draws": {field: n}})
    for kind in ("minima", "kac_rice", "closed"):
        for _ in range(6):
            jobs.append({"cls": kind, "model": "closed", "n": _SMALL_CALLS["closed"],
                         "draws": {}})
    return {}, jobs, models


# cli-runs: each job is a fresh interpreter, so a pass holds one job of each
# class and costs about one interpreter start per job.
CLI_SAMPLES = {"rank1-c64": 16, "rank1-rh": 500, "mixed": 2000, "sim-rc": 400}
TRAIN_DIMS = (8, 16, 32)


def _cli_runs(rng: random.Random) -> tuple[dict, list[dict], dict]:
    models = {}
    c64 = component(rng, "C", 64, rank=1, params=60)
    models["rank1-c64"] = model([c64])
    models["rank1-rh"] = model([component(rng, "R", 6, rank=1, params=3),
                                component(rng, "H", 4, rank=1, params=4)])
    mixed = [component(rng, "R", 8, rank=3, params=0, index=2.0),
             component(rng, "C", 6, rank=2, params=0),
             component(rng, "H", 4, rank=1, params=0)]
    for comp, share in zip(mixed, (0.5, 0.7, 1.5)):
        comp["sector_params"] = under_params(comp, share)
    models["mixed"] = model(mixed, extra_params=3, normalization=0.25)
    models["sim-rc"] = model([component(rng, "R", 6, rank=1, params=2),
                              component(rng, "C", 6, rank=2, params=2)])
    for dim in TRAIN_DIMS:
        comp = component(rng, "C", dim, rank=1, params=0)
        comp["sector_params"] = under_params(comp, 0.5)
        models[f"train-{dim}"] = model([comp])
    jobs = [
        {"cls": "analyze", "command": "analyze", "models": ["mixed"], "draws": {}},
        {"cls": "minima", "command": "minima", "models": ["mixed"], "draws": {}},
        {"cls": "trainability", "command": "trainability",
         "models": [f"train-{d}" for d in TRAIN_DIMS], "draws": {}},
    ]
    for command, names in (("sample", ("rank1-c64", "rank1-rh", "mixed")),
                           ("simulate", ("sim-rc",))):
        for name in names:
            # one draw per sector per sample
            draws = {}
            for comp in models[name]["components"]:
                draws[comp["field"]] = draws.get(comp["field"], 0) + CLI_SAMPLES[name]
            jobs.append({"cls": f"{command}.{name}", "command": command, "models": [name],
                         "samples": CLI_SAMPLES[name], "draws": draws})
    return {}, jobs, models


_GENERATORS = {"exact-mc": _exact_mc, "cli-runs": _cli_runs, "small-draws": _small_draws}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Writes models/*.json and inputs.json under out_dir and returns the inputs."""
    rng = random.Random(f"{workload}:{seed}")
    comps, jobs, models = _GENERATORS[workload](rng)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
        job["seed"] = _seed(rng)
    model_dir = Path(out_dir) / "models"
    model_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in models.items():
        path = model_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        paths[name] = str(path)
    inputs = {"workload": workload, "seed": seed, "components": comps,
              "models": models, "model_paths": paths, "jobs": jobs}
    (Path(out_dir) / "inputs.json").write_text(json.dumps(inputs, indent=1) + "\n")
    return inputs
