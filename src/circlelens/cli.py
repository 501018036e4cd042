"""Command-line surface tying the modules into reproducible experiments.

Exit codes: 0 success, 1 verification failure, 2 input error.  An option
that the chosen verify property, generate model or bound kind does not
read is an input error (_READS).

Every call is a fresh process, so the module imports at the top only what
the parser and `lenses` run; each other command imports its own modules.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction

from . import __version__
from .errors import CircleLensError, Inconclusive
from .pencils import base_text, brute_force_lenses, enumerate_lenses, lens_text
from .sceneio import parse_scene, serialize_scene


def _write(path, text: str) -> None:
    """Write text to the file at path, or to stdout without a path.  Callers
    finish their work first, so a failed command leaves the file as it was."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _csv(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _load_scene(path):
    with open(path, encoding="utf-8") as fh:
        return parse_scene(fh.read())


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _scene_with_circles(path):
    """The scene at path for a command that bounds its lenses by n, the
    number of circles; an input error when it has none."""
    scene = _load_scene(path)
    if not len(scene):
        raise CircleLensError(f"scene {path} has no circles")
    return scene


def cmd_generate(args) -> int:
    from .generators import GeneratorSpec, random_scene
    scene = random_scene(GeneratorSpec(model=args.model, n=args.n, k=args.k,
                                       seed=args.seed, spread=args.spread))
    _write(args.out, serialize_scene(scene))
    return 0


def cmd_lenses(args) -> int:
    scene = _load_scene(args.scene)
    lenses = enumerate_lenses(scene, args.k)
    rows = [(i, *base_text(l), l.degree, ";".join(map(str, l.circles)))
            for i, l in enumerate(lenses)]
    _write(args.out, _csv(["index", "px", "py", "qx", "qy", "degree", "circles"],
                          rows))
    return 0


def cmd_family(args) -> int:
    from .bounds import bound_eval
    from .families import select_family
    scene = _scene_with_circles(args.scene)
    lenses = enumerate_lenses(scene, args.k)
    family = select_family(lenses, scene, mode=args.mode)
    bound = bound_eval("thm1-degree", n=len(scene), k=args.k)
    rows = [(len(scene), args.k, len(lenses), len(family.members),
             family.total_degree, args.mode, f"{bound:.6g}",
             f"{family.total_degree / bound:.6g}")]
    _write(args.out, _csv(["n", "k", "lenses", "family_size", "total_degree",
                           "mode", "bound_thm1", "ratio"], rows))
    return 0 if family.certificate else 1


def cmd_cut(args) -> int:
    from .bounds import bound_eval
    from .families import cut_fault, lens_cutting
    scene = _scene_with_circles(args.scene)
    result = lens_cutting(scene, args.k)
    fault = cut_fault(scene, result)
    bound = bound_eval("thm1-degree", n=len(scene), k=args.k)
    rows = [(len(scene), args.k, result.cut_count, len(result.arcs),
             f"{bound:.6g}", f"{result.cut_count / bound:.6g}")]
    _write(args.out, _csv(["n", "k", "cut_count", "arcs", "bound_thm1_degree",
                           "ratio"], rows))
    if fault:
        print(f"cut check FAILED: {fault}", file=sys.stderr)
    return 1 if fault else 0


# per subcommand: the option that makes the choice, the defaults of the
# options a choice may read (None in the parser marks one not given), and
# the options each choice reads
_READS = {
    "verify": ("property", {"scene": None, "k": 2, "n": 10000, "seed": 0}, {
        "duality": ("n", "seed"), "coplanarity": ("scene", "k"),
        "order-reversal": ("scene",), "oracle": ("scene",)}),
    "generate": ("model", {"k": 0, "seed": 0, "spread": Fraction(10)}, {
        "bundle": ("k",), "uniform-random": ("seed", "spread"),
        "unit-circles-on-grid": (), "lattice-triples": ("seed", "spread")}),
    "bound": ("kind", {"k": 2, "m": 0, "const0": 1.0}, {
        "thm1-count": ("k",), "thm1-degree": ("k",), "gk-degree": ("k",),
        "mt": (), "pt-circle": ("k", "m"), "lens-circle": ("k", "m"),
        "dyadic": ("k",), "recurrence": ("k", "const0")}),
}


def _check_reads(args) -> None:
    """Give each option not given (None) its default; an option given that
    the choice does not read is an input error."""
    option, defaults, reads = _READS[args.command]
    choice = getattr(args, option)
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name not in reads[choice]:
            what = "a scene file" if name == "scene" else f"--{name}"
            raise CircleLensError(f"{option} {choice} does not read {what}")


def _verify_duality(args) -> int:
    import random

    from .dual import dual_plane, lift_circle
    from .geometry import Circle, power_of_point
    rng = random.Random(args.seed)
    for _ in range(args.n):
        p = (Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
             Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
        c = Circle(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                   Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                   Fraction(rng.randint(1, 2500), rng.randint(1, 9)))
        on = power_of_point(p, c) == 0
        lifted = lift_circle(c)
        dual = dual_plane(p).contains((lifted.x, lifted.y, lifted.z))
        if on != dual:
            print(f"duality violation: p={p} circle={c}", file=sys.stderr)
            return 1
    print(f"duality ok over {args.n} seeded pairs")
    return 0


def _verify_on_scene(args, prop) -> int:
    scene = _load_scene(args.scene)
    if prop == "oracle":
        # None marks the end of a list
        pairs = zip(enumerate_lenses(scene) + [None],
                    brute_force_lenses(scene) + [None])
        diff = next(((i, *pair) for i, pair in enumerate(pairs)
                     if pair[0] != pair[1]), None)
        if not diff:
            print("oracle ok")
            return 0
        i, mine, brute = diff
        print(f"oracle MISMATCH\nfirst difference at index {i}: enumeration "
              f"{lens_text(mine) if mine else 'none'}; brute force "
              f"{lens_text(brute) if brute else 'none'}")
        return 1
    if prop == "order-reversal":
        from .slopes import order_reversal_check
        for lens in enumerate_lenses(scene):
            try:
                result = order_reversal_check(lens, scene)
            except Inconclusive:
                continue
            if not result.reversed:
                print(f"order reversal FAILED for {lens_text(lens)}: order at "
                      f"p {result.order_at_p}, at q {result.order_at_q}")
                return 1
        print("order reversal ok")
        return 0
    # coplanarity
    from .dual import coplanarity_audit
    from .families import select_family
    lenses = enumerate_lenses(scene, args.k)
    family = select_family(lenses, scene, mode="greedy")
    report = coplanarity_audit(scene, family)
    if report.clean:
        print(f"coplanarity audit clean over {len(family.members)} lenses")
        return 0
    print(f"coplanarity audit FLAGGED: {len(report.coplanar_triples)} triples, "
          f"{len(report.plane_violations)} plane violations")
    for cid, trio in report.coplanar_triples[:1]:
        print(f"first coplanar triple, on circle {cid}: "
              + "; ".join(map(lens_text, trio)))
    for pair, incidences, circles in report.plane_violations[:1]:
        print(f"first plane violation: {'; '.join(map(lens_text, pair))}: "
              f"{incidences} incidences on {circles} circles in the plane")
    return 1


def cmd_verify(args) -> int:
    if args.property == "duality":
        return _verify_duality(args)
    if not args.scene:
        raise CircleLensError(f"property {args.property} needs a scene file")
    return _verify_on_scene(args, args.property)


def cmd_incidence(args) -> int:
    from .incidence import szekely_stats
    scene = _load_scene(args.scene)
    stats = szekely_stats(scene.points, scene, args.k)
    rows = [(stats.m, stats.n, args.k, stats.incidences, stats.edges,
             stats.g0, stats.g1, stats.max_multiplicity, stats.crossings)]
    _write(args.out, _csv(["m", "n", "k", "incidences", "edges", "g0", "g1",
                           "max_multiplicity", "crossings"], rows))
    return 0


def cmd_bound(args) -> int:
    from .bounds import bound_eval, dyadic_degree_sum, recurrence_certify
    code = 0
    if args.kind == "dyadic":
        total, ratio = dyadic_degree_sum(args.n, args.k, const=args.const)
        header = ["kind", "n", "k", "sum", "ratio"]
        rows = [("dyadic", args.n, args.k, f"{total:.6g}", f"{ratio:.6g}")]
    elif args.kind == "recurrence":
        trace = recurrence_certify(args.n, args.k, a=args.const, a0=args.const0)
        header = ["kind", "n", "k", "z", "depth", "certificate", "passed"]
        rows = [("recurrence", args.n, args.k, f"{trace.z:.6g}",
                 trace.depth, f"{trace.certificate:.6g}", trace.passed)]
        code = 0 if trace.passed else 1
    else:
        value = bound_eval(args.kind, n=args.n, k=args.k, m=args.m,
                           const=args.const)
        header = ["kind", "n", "k", "m", "value"]
        rows = [(args.kind, args.n, args.k, args.m, f"{value:.6g}")]
    _write(args.out, _csv(header, rows))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlelens",
        description="Exact lens machinery for circle arrangements")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def on_scene(name, help, func):  # a command reading a scene and --k
        p = sub.add_parser(name, help=help)
        p.add_argument("scene")
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--out")
        p.set_defaults(func=func)
        return p

    p = sub.add_parser("generate", help="emit a scene file")
    p.add_argument("--model", default="bundle", choices=_READS["generate"][2])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--spread", type=_fraction)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    on_scene("lenses", "enumerate lenses of a scene", cmd_lenses)
    on_scene("family", "select a non-overlapping lens family", cmd_family
             ).add_argument("--mode", default="greedy", choices=("greedy", "exact"))
    on_scene("cut", "cut circles until no k-rich lens remains", cmd_cut)

    p = sub.add_parser("verify", help="run an exact property check")
    p.add_argument("--property", required=True, choices=_READS["verify"][2])
    p.add_argument("scene", nargs="?")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=_count)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify)

    on_scene("incidence", "Szekely-graph statistics of a scene", cmd_incidence)

    p = sub.add_parser("bound", help="evaluate a closed-form bound")
    p.add_argument("--kind", required=True, choices=_READS["bound"][2])
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--k", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--const", type=float, default=1.0)
    p.add_argument("--const0", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _READS:
            _check_reads(args)
        return args.func(args)
    except (CircleLensError, OSError, UnicodeDecodeError) as exc:
        # a file that cannot be opened, read or decoded is an input error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
