"""In-process workloads (exact-mc, small-draws): one client, one job at a time.

    python perfbench/inproc.py INPUTS RESULT --seconds S --trace 0|1

Imports the package from src/, warms up on one job of each class, then runs
the fixed job list in passes (passes.run_passes) until S seconds are used.
With --trace 1 the passes alternate untraced and traced; the traced ones
record spans around the package's public functions.  Only the program call
is timed; outputs are checked after each pass against the exact references
in refs.py.  The result is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import refs
from passes import run_passes
from refclock import RefClock
from tracer import Tracer

Z = refs.Z_LIMIT


def _sector(doc: dict, ws):
    return ws.SimpleComponent(
        field=refs.BETA[doc["field"]], dim=doc["dim"], index=doc["index"],
        observable_spectrum=np.asarray(doc["observable_spectrum"], dtype=float),
        input_spectrum=np.asarray(refs.input_weights(doc)),
        sector_params=doc["sector_params"])


def _model(doc: dict, ws):
    return ws.SectorModel(components=tuple(_sector(c, ws) for c in doc["components"]),
                          total_params=doc["total_params"],
                          normalization=doc["normalization"])


class Checks:
    """Pooled outputs per check group, as power sums about a reference value so
    memory stays flat however many passes run; a failing group fails every
    job that fed it."""

    def __init__(self):
        self.pools: dict[str, list] = {}
        self.refs: dict[str, float] = {}
        self.members: dict[str, set] = {}
        self.results: list[dict] = []
        self.failed: set = set()

    def pool(self, group: str, key, values, ref: float) -> None:
        sums = refs.power_sums(np.ravel(values).tolist(), ref)
        old = self.pools.get(group, [0.0] * len(sums))
        self.pools[group] = [a + b for a, b in zip(old, sums)]
        self.refs[group] = ref
        self.members.setdefault(group, set()).add(key)

    def moments(self, group: str) -> tuple[int, float, float, float]:
        return refs.moments(self.pools[group], self.refs[group])

    def fail(self, key, name: str, detail: str) -> None:
        self.fail_all([key], name, detail)

    def fail_all(self, keys, name: str, detail: str) -> None:
        self.failed.update(keys)
        self.results.append({"name": name, "ok": False, "detail": detail})

    def verdict(self, group: str, name: str, ok: bool, detail: str) -> None:
        self.results.append({"name": f"{name} {group}", "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed |= self.members.get(group, set())


# mc_landscape's collect keys and the McLandscape fields they fill
_ATTR = {"loss": "losses", "grad": "gradients", "hessian": "hessians"}


class ExactMc:
    """mc_landscape jobs; losses, gradients and Hessians checked per case."""

    def __init__(self, inputs: dict, ws):
        self.ws = ws
        self.docs = inputs["components"]
        self.comps = {case: _sector(doc, ws) for case, doc in self.docs.items()}

    def run(self, job: dict, rng):
        return self.ws.mc_landscape(self.comps[job["case"]], job["n"], rng,
                                    collect=tuple(job["collect"]))

    def keep(self, job: dict, key, out, checks: Checks) -> None:
        case, n = job["case"], job["n"]
        p = self.docs[case]["sector_params"]
        shapes = {"losses": (n,), "gradients": (n, p), "hessians": (n, p, p)}
        asked = {_ATTR[c] for c in job["collect"]}
        for attr, shape in shapes.items():
            a = getattr(out, attr)
            if a is None and attr in asked:
                checks.fail(key, f"{attr} {case}", "asked for but not returned")
                return
            if a is not None and (np.shape(a) != shape or not np.all(np.isfinite(a))):
                checks.fail(key, f"{attr} {case}",
                            f"shape {np.shape(a)} for {shape}, or not finite")
                return
        # outputs the job did not ask for are checked as well when returned
        if out.losses is not None:
            checks.pool(f"loss:{case}", key, out.losses, refs.haar_loss_mean(self.docs[case]))
        if out.gradients is not None:
            # entries within a draw share its frame: test per-draw means
            checks.pool(f"grad:{case}", key, out.gradients.mean(axis=1), 0.0)
        if out.hessians is not None and not np.array_equal(
                out.hessians, np.swapaxes(out.hessians, 1, 2)):
            checks.fail(key, f"hessians {case}", "not symmetric")

    def finish(self, checks: Checks) -> None:
        for case, doc in self.docs.items():
            group = f"loss:{case}"
            if group in checks.pools:
                m = checks.moments(group)
                mean, var = refs.haar_loss_mean(doc), refs.haar_loss_variance(doc)
                zm, zv = refs.z_mean(m, mean, var), refs.z_variance(m, var)
                checks.verdict(group, "loss mean/variance", abs(zm) <= Z and abs(zv) <= Z,
                               f"n={m[0]} z_mean={zm:.2f} z_var={zv:.2f}")
            group = f"grad:{case}"
            if group in checks.pools:
                m = checks.moments(group)
                zg = refs.z_zero_mean(m)
                checks.verdict(group, "gradient mean", abs(zg) <= Z, f"n={m[0]} z={zg:.2f}")


class SmallDraws:
    """Single-matrix Wishart draws, per-sample surrogate draws and closed forms."""

    def __init__(self, inputs: dict, ws):
        self.ws = ws
        self.docs = inputs["models"]
        self.models = {name: _model(doc, ws) for name, doc in self.docs.items()}
        # kac_rice points: each underparameterized sector at half and at its mean loss
        self.kac_rice = {
            name: [(a, f * refs.haar_loss_mean(c)) for a, c in enumerate(doc["components"])
                   if c["sector_params"] and refs.parameter_ratio(c) < 1.0 for f in (0.5, 1.0)]
            for name, doc in self.docs.items()}

    def run(self, job: dict, rng):
        ws, n, cls = self.ws, job["n"], job["cls"]
        if "route" in job:
            fn = ws.wishart_direct if job["route"] == "direct" else ws.wishart_bartlett
            beta = refs.BETA[job["field"]]
            return [fn(beta, job["dim"], job["dof"], rng) for _ in range(n)]
        model = self.models[job["model"]]
        if cls.startswith(("grad.", "hess.")):
            z = ws.sample_loss_batch(model, n, rng)
            fn = (ws.sample_gradient_given_loss if cls.startswith("grad.")
                  else ws.sample_hessian_at_critical)
            return [fn(model, z[i], rng) for i in range(n)]
        if cls.startswith("reg."):
            return [ws.regularized_hessian_sample(model.components[0], rng) for _ in range(n)]
        if cls == "minima":
            return ws.build_minima_density(model)
        if cls == "kac_rice":
            return ([ws.kac_rice_log_density(model.components[a], z)
                     for a, z in self.kac_rice[job["model"]]], ws.mp_log_moment(1.0))
        return [(ws.loss_variance(model), ws.welch_satterthwaite(model),
                 ws.gp_conditions(model).variance_term) for _ in range(n)]

    def keep(self, job: dict, key, out, checks: Checks) -> None:
        cls = job["cls"]
        if "route" in job:
            diag = np.concatenate([w.real_diagonal() for w in out])
            if not np.all(np.isfinite(diag)):
                checks.fail(key, cls, "diagonal not finite")
            checks.pool(cls, key, diag, float(job["dof"]))
        elif cls.startswith("grad."):
            g = np.array([d.entries for d in out])
            if not np.all(np.isfinite(g)):
                checks.fail(key, cls, "gradient not finite")
            checks.pool(cls, key, g.mean(axis=1), 0.0)
        elif cls.startswith(("hess.", "reg.")):
            for h in out:
                h = getattr(h, "matrix", h)
                scale = max(float(np.max(np.abs(h))), 1e-300)
                sym = float(np.max(np.abs(h - h.T))) <= 1e-12 * scale
                psd = cls.startswith("hess.") or float(np.linalg.eigvalsh(h)[0]) >= -1e-10 * scale
                if not (np.all(np.isfinite(h)) and sym and psd):
                    checks.fail(key, cls, "Hessian not symmetric, finite and (reg.) PSD")
                    break
        elif cls == "minima":
            mass = float(np.trapezoid(out.density, out.z_grid)) if not out.point_mass else 0.0
            if out.point_mass or abs(mass - 1.0) > 1e-3:
                checks.fail(key, cls, f"trapezoid mass {mass!r}")
        elif cls == "kac_rice":
            values, mp1 = out
            comps = self.docs[job["model"]]["components"]
            expect = [refs.kac_rice_log_density(comps[a], z) for a, z in self.kac_rice[job["model"]]]
            ok = len(values) == len(expect) and all(
                refs.close(a, b, 1e-8) for a, b in zip(values, expect))
            if not ok or abs(mp1 + 1.0) > 1e-6:
                checks.fail(key, cls, f"got {values} and {mp1}, expected {expect} and -1")
        else:
            doc = self.docs[job["model"]]
            lv = refs.loss_variance(doc)
            ws_k, ws_theta = refs.welch_satterthwaite(doc)
            gp = doc["normalization"] ** 2 * lv
            for got_lv, (k, theta), got_gp in out:
                if not (refs.close(got_lv, lv, 1e-10) and refs.close(k, ws_k, 1e-10)
                        and refs.close(theta, ws_theta, 1e-10) and refs.close(got_gp, gp, 1e-10)):
                    checks.fail(key, cls, f"closed forms {got_lv, k, theta, got_gp} vs "
                                          f"{lv, ws_k, ws_theta, gp}")
                    break

    def finish(self, checks: Checks) -> None:
        for group in checks.pools:
            m = checks.moments(group)
            if group.startswith("grad."):
                zg = refs.z_zero_mean(m)
                checks.verdict(group, "gradient mean", abs(zg) <= Z, f"n={m[0]} z={zg:.2f}")
            else:
                field, shape = group.split(".")[1:]
                beta = refs.BETA[field]
                dof = int(shape.split("x")[1])
                zd = refs.z_mean(m, float(dof), 2.0 * dof / beta)
                checks.verdict(group, "Wishart diagonal mean", abs(zd) <= Z,
                               f"n={m[0]} z={zd:.2f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("inputs")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"

    start = perf_counter()
    import wishartscape as ws
    import_s = perf_counter() - start
    if Path(ws.__file__).resolve().parent != src / "wishartscape":
        raise SystemExit(f"imported {ws.__file__}, not the package under {src}")

    inputs = json.loads(Path(args.inputs).read_text())
    runner = {"exact-mc": ExactMc, "small-draws": SmallDraws}[inputs["workload"]](inputs, ws)
    jobs = inputs["jobs"]
    checks = Checks()
    tracer = Tracer()

    def rng_for(job, pass_index):
        return ws.RngState(np.random.SeedSequence([job["seed"], pass_index + 1]))

    # warm-up: one job of each class, outputs discarded
    seen = set()
    for job in jobs:
        if job["cls"] not in seen:
            seen.add(job["cls"])
            try:
                runner.run(job, rng_for(job, -1))
            except Exception:
                pass  # the measured passes record the failure

    records, traced_spans = [], []
    missing = []
    clock = RefClock()

    def one_pass(index: int, traced: bool, stop_at: float | None) -> float:
        nonlocal missing
        if traced:
            missing = tracer.install("wishartscape", layers.SPECS)
        outputs = []
        pass_start = perf_counter()
        try:
            for job in jobs:
                if stop_at is not None and perf_counter() >= stop_at:
                    break
                if not traced:
                    clock.tick()
                tracer.job = job["id"]
                rng = rng_for(job, index)
                t0 = perf_counter()
                try:
                    out, error = runner.run(job, rng), None
                except Exception as exc:  # a raising job is a failed job; keep measuring
                    out, error = None, f"{type(exc).__name__}: {exc}"
                outputs.append((job, perf_counter() - t0, out, error))
        finally:
            if traced:
                tracer.restore()
        wall = perf_counter() - pass_start
        if traced:
            traced_spans.append(tracer.take())
        for job, elapsed, out, error in outputs:
            key = (index, job["id"])
            records.append([index, job["id"], traced, elapsed])
            if error is None:
                try:
                    runner.keep(job, key, out, checks)
                except Exception as exc:  # an output the checks cannot read is a failure
                    error = f"output check raised {type(exc).__name__}: {exc}"
            if error is not None:
                checks.fail(key, job["cls"], error)
        return wall

    passes = run_passes(args.seconds, args.trace, one_pass)
    try:
        runner.finish(checks)
    except Exception as exc:  # pooled checks that cannot be made fail every job
        checks.fail_all([(rec[0], rec[1]) for rec in records], "pooled checks",
                        f"raised {type(exc).__name__}: {exc}")
    for rec in records:
        rec.append((rec[0], rec[1]) in checks.failed)

    result = {"import_s": import_s, "records": records, "passes": passes,
              "ref": clock.samples, "checks": checks.results, "layer": None}
    if args.trace:
        pick, wall, overhead = layers.pick_traced(passes, records)
        metrics = layers.layer_metrics([traced_spans[pick]], overhead_ratio=overhead)
        metrics["cli.import_s"] = import_s
        result["layer"] = metrics
        result["absent"] = layers.absent_metrics(missing)
        result["traced_wall"] = wall
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
