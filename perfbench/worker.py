"""One benchmark step in a fresh interpreter.

    python3 perfbench/worker.py setup --workload W --seed S --dir D
    python3 perfbench/worker.py round --workload W --seed S --dir D [--spans F]

setup imports circlelens, builds the workload's scenes, round-trips each
through serialize_scene/parse_scene and writes the scene files into D.
round parses those files, runs one pass of the workload's pipeline under one
clock, records the process's peak RSS, and only then checks every stage
output.  With --spans the program's public functions are traced and the
spans are written to F.  Both steps sample the host's pace (pace.py).  The
last line on stdout is a JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import scenes  # noqa: E402
from pace import Pace  # noqa: E402

# stage -> stages whose outputs it (or its check) needs
NEEDS = {"enumerate": (), "family": ("enumerate",), "audit": ("family",),
         "order": ("enumerate",), "cut": ("enumerate",), "verify": ("cut",),
         "szekely": ()}


def scene_file(directory, spec) -> Path:
    return Path(directory) / f"{spec.name}.scene"


def cmd_setup(args) -> dict:
    with Pace() as pace:
        problems = make_scene_files(args)
    return {"ok": not problems, "problems": problems, **pace.report()}


def make_scene_files(args) -> list[str]:
    import circlelens as cl
    problems = []
    for spec in scenes.workload(args.workload, args.seed).scenes:
        scene = cl.Scene(circles=tuple(cl.Circle(*c) for c in spec.circles),
                         points=spec.points)
        text = cl.serialize_scene(scene)
        back = cl.parse_scene(text)
        if text != spec.text():
            problems.append(f"{spec.name}: serialized text differs from the scene")
        if tuple((c.cx, c.cy, c.r2) for c in back.circles) != spec.circles \
                or tuple(back.points) != spec.points:
            problems.append(f"{spec.name}: parse_scene does not give the scene back")
        scene_file(args.dir, spec).write_text(text)
    return problems


def run_pipeline(cl, wl, scene) -> tuple[dict, dict, dict]:
    """Run the workload's stages on one scene: (outputs, errors, seconds)."""
    k = wl.k
    out, errors, seconds = {}, {}, {}

    def enumerate_():
        lenses = cl.enumerate_lenses(scene)
        return lenses, cl.rich_lenses(lenses, k)

    def order():
        results = []
        for lens in out["enumerate"][1]:
            try:
                results.append(cl.order_reversal_check(lens, scene))
            except cl.Inconclusive:
                results.append(None)
        return results

    calls = {
        "enumerate": enumerate_,
        "family": lambda: cl.select_family(out["enumerate"][1], scene),
        "audit": lambda: cl.coplanarity_audit(scene, out["family"]),
        "order": order,
        "cut": lambda: cl.lens_cutting(scene, k),
        "verify": lambda: cl.verify_cut(scene, out["cut"]),
        "szekely": lambda: cl.szekely_stats(scene.points, scene, k),
    }
    for name in wl.stages:
        missing = [dep for dep in NEEDS[name] if dep not in out]
        if missing:
            errors[name] = f"not run: {', '.join(missing)} failed"
            continue
        start = perf_counter()
        try:
            out[name] = calls[name]()
        except Exception as exc:  # a program fault is a failed operation
            errors[name] = f"raised {type(exc).__name__}: {exc}"
        seconds[name] = perf_counter() - start
    return out, errors, seconds


def check_stage(name, spec, wl, out) -> str | None:
    circles, k = spec.circles, wl.k
    value = out[name]
    if name == "enumerate":
        return checks.check_enumeration(circles, value[0]) or (
            checks.check_grid_lenses(circles, spec.points, value[0])
            if spec.points else None)
    rich = out["enumerate"][1] if "enumerate" in out else None
    if name == "family":
        return checks.check_family(circles, rich, value, k)
    if name == "audit":
        return checks.check_audit(circles, out["family"], value)
    if name == "order":
        return checks.check_orders(rich, value)
    if name == "cut":
        return checks.check_cut(circles, rich, value, k)
    if name == "verify":
        return None if value is True else "verify_cut rejects the cut"
    if name == "szekely":
        return checks.check_szekely(circles, spec.points, value)
    raise ValueError(name)


def figures(cl, spec, wl, out, seconds) -> dict:
    fig = {"n": len(spec.circles), "k": wl.k,
           "stage_s": {name: round(s, 4) for name, s in seconds.items()}}
    if "enumerate" in out:
        lenses, rich = out["enumerate"]
        fig["lenses"] = len(lenses)
        fig["rich_lenses"] = len(rich)
        fig["degrees"] = dict(sorted(Counter(len(l.circles) for l in lenses).items()))
    if "family" in out:
        fig["family_size"] = len(out["family"].members)
        fig["family_degree"] = out["family"].total_degree
    if "cut" in out:
        bound = cl.bound_eval("thm1-degree", n=len(spec.circles), k=wl.k)
        fig["cuts"] = out["cut"].cut_count
        fig["thm1_degree_bound"] = round(bound, 3)
        fig["cut_bound_ratio"] = round(out["cut"].cut_count / bound, 4)
    if "szekely" in out:
        st = out["szekely"]
        fig["szekely"] = {key: getattr(st, key) for key in (
            "m", "n", "incidences", "edges", "g0", "g1", "max_multiplicity",
            "crossings")}
    return fig


def cmd_round(args) -> dict:
    start = perf_counter()
    import circlelens as cl
    import_s = perf_counter() - start
    tracer = None
    if args.spans:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(cl)
    wl = scenes.workload(args.workload, args.seed)
    parsed = [cl.parse_scene(scene_file(args.dir, spec).read_text())
              for spec in wl.scenes]

    start = perf_counter()
    with Pace() as pace:
        runs = [run_pipeline(cl, wl, scene) for scene in parsed]
    pipeline_s = perf_counter() - start - pace.spent
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops, figs, rich_counts = [], {}, {}
    lenses = cuts = 0
    for spec, (out, errors, seconds) in zip(wl.scenes, runs):
        for name in wl.stages:
            detail = errors.get(name)
            if detail is None:
                try:
                    detail = check_stage(name, spec, wl, out)
                except Exception as exc:  # an output the check cannot read
                    detail = f"check raised {type(exc).__name__}: {exc}"
            ops.append({"scene": spec.name, "stage": name,
                        "ok": detail is None, "detail": detail})
        figs[spec.name] = figures(cl, spec, wl, out, seconds)
        if "enumerate" in out:
            lenses += len(out["enumerate"][0])
            rich_counts[spec.name] = len(out["enumerate"][1])
        if "cut" in out:
            cuts += out["cut"].cut_count
    result = {"import_s": import_s, "pipeline_s": pipeline_s,
              "peak_rss_mb": peak_rss_mb, "ops": ops, "figures": figs,
              "rich_counts": rich_counts, **pace.report()}
    if tracer is not None:
        self_s, count = tracer.self_times(), tracer.span_counts()
        result["layers"] = {
            "circlelens.import_s": import_s,
            "sceneio.parse_s": self_s.get("sceneio.parse", 0.0),
            "pencils.enumerate_s": self_s.get("pencils.enumerate", 0.0),
            "pencils.enumerate_calls": count.get("pencils.enumerate", 0),
            "pencils.lenses": lenses,
            "families.select_s": self_s.get("families.select", 0.0),
            "families.overlap_tests": tracer.calls.get("families.overlap", 0),
            "families.cut_s": self_s.get("families.cut", 0.0),
            "families.verify_s": self_s.get("families.verify", 0.0),
            "families.cuts": cuts,
            "dual.audit_s": self_s.get("dual.audit", 0.0),
            "dual.coplanar_tests": tracer.calls.get("dual.coplanar", 0),
            "slopes.order_s": self_s.get("slopes.order", 0.0),
            "incidence.szekely_s": self_s.get("incidence.szekely", 0.0),
            "radicals.sign_calls": tracer.calls.get("radicals.sign", 0),
            "radicals.sign_s": tracer.busy.get("radicals.sign", 0.0),
            "quadfield.compare_calls": tracer.calls.get("quadfield.compare", 0),
        }
        tracer.dump(args.spans, {"workload": wl.name, "seed": args.seed,
                                 "layers": result["layers"]})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("setup", "round"))
    parser.add_argument("--workload", required=True, choices=scenes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.step == "setup" else cmd_round(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
