"""Command-line driver.

Subcommands cover the whole pipeline: catalog queries, pair certification,
grid construction with file output, superconformality and dual-pair
verification, inversion and duality checks, quadric classification,
space-form projection tests, and the bundled self-test suite.

Reports are single-line canonical JSON on stdout, and no command prints
numpy warnings.  Exit codes: 0 ok, 2 usage/precondition error, 3 a check
failed or the run degenerated, 4 file I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import catalog
from .errors import (DomainError, ExpressionError, PreconditionError,
                     SuperconfError, UnknownEntryError)
from .export import (canonical_json, drop_projector, sample_grid,
                     stereo_projector, summarize, write_grids, write_json)
from .construct import dual_pair_report
from .geometry import _vec_norm
from .jets import row_failures
from .minimal import Domain, HolomorphicCurve, MinimalPair, certify
from .moebius import (Inversion, duality, pair_transform_check,
                      quadric_classification, superminimal_test)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

SIGN_WORDS = {"+": "plus", "-": "minus"}
DEFAULT_INLINE_DOMAIN = Domain(-1.0, 1.0, -1.0, 1.0)
# largest --grid, in points: 512 x 512
MAX_GRID_POINTS = 262_144


def _clean(x):
    """JSON-safe copy: numpy scalars/arrays unwrapped, non-finite -> None."""
    if isinstance(x, dict):
        return {str(k): _clean(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_clean(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_clean(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if np.isfinite(x) else None
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, complex):
        return {"re": _clean(x.real), "im": _clean(x.imag)}
    return x


def _emit(obj) -> None:
    sys.stdout.write(canonical_json(_clean(obj)))


def _parse_floats(text, n, what):
    parts = text.split(",")
    if len(parts) != n:
        raise PreconditionError(f"{what} wants {n} comma-separated numbers")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise PreconditionError(f"{what} is not numeric: {text!r}")
    if not all(map(math.isfinite, values)):
        raise PreconditionError(f"{what} is not finite: {text!r}")
    return values


def _parse_domain(text) -> Domain:
    a, b, c, d = _parse_floats(text, 4, "--domain")
    if not (a < b and c < d):
        raise PreconditionError("--domain rectangle is degenerate")
    if not (math.isfinite(b - a) and math.isfinite(d - c)):
        raise PreconditionError(f"--domain width overflows: {text!r}")
    return Domain(a, b, c, d)


def _parse_grid(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise PreconditionError("--grid wants nu,nv")
    try:
        nu, nv = int(parts[0]), int(parts[1])
    except ValueError:
        raise PreconditionError(f"--grid is not integral: {text!r}")
    if nu < 2 or nv < 2:
        raise PreconditionError("--grid dimensions must be at least 2")
    if nu * nv > MAX_GRID_POINTS:
        raise PreconditionError(
            f"--grid {nu}x{nv} exceeds {MAX_GRID_POINTS} points")
    return nu, nv


def _parse_points(text):
    out = []
    for chunk in text.split(";"):
        re_, im_ = _parse_floats(chunk, 2, "--points entry")
        out.append(complex(re_, im_))
    return out


def _parse_signs(text):
    try:
        return {"plus": ("+",), "minus": ("-",), "both": ("+", "-")}[text]
    except KeyError:
        raise PreconditionError(f"--sign must be plus|minus|both, got {text!r}")


def _parse_projector(text):
    if text == "stereo":
        return stereo_projector(), "stereo from pole (0,0,0,1)"
    if text.startswith("stereo:"):
        pole = _parse_floats(text[len("stereo:"):], 4, "--project stereo pole")
        return stereo_projector(pole), f"stereo from pole ({text[7:]})"
    if text.startswith("drop:"):
        try:
            k = int(text[len("drop:"):])
        except ValueError:
            raise PreconditionError(f"--project drop index not integral: {text!r}")
        return drop_projector(k), f"drop coordinate {k}"
    raise PreconditionError(
        f"--project must be drop:k or stereo[:p0,p1,p2,p3], got {text!r}")


def _is_expression(text) -> bool:
    return text.lstrip().startswith("(")


def _resolve(args, closed_form=False):
    """(pair, domain, stem) from --curve plus optional --domain.

    The pair is a MinimalPair, split off a holomorphic curve; a catalog
    pair given only by closed-form samplers is accepted where closed_form
    says the command reads nothing but samples."""
    override = _parse_domain(args.domain) if getattr(args, "domain", None) else None
    if _is_expression(args.curve):
        dom = override or DEFAULT_INLINE_DOMAIN
        curve = HolomorphicCurve("inline", args.curve, dom)
        return MinimalPair(curve), dom, "inline"
    entry = catalog.get(args.curve)
    pair = entry.pair or entry.aux.get("pair")
    if pair is None:
        raise PreconditionError(
            f"entry {entry.name} has no minimal pair; use `catalog show` "
            "or the project command for surface entries")
    if not (closed_form or isinstance(pair, MinimalPair)):
        raise PreconditionError(
            f"entry {entry.name} has a closed-form pair without a holomorphic "
            "curve; only the quadric command reads it")
    dom = override or entry.domain or getattr(pair, "domain", None)
    if dom is None:
        raise PreconditionError(f"entry {entry.name} has no domain; pass --domain")
    return pair, dom, entry.name


def cmd_catalog(args) -> int:
    if args.action == "list":
        rows = [{"name": n, "kind": catalog.get(n).kind,
                 "description": catalog.get(n).description}
                for n in catalog.names()]
        _emit({"entries": rows})
        return EXIT_OK
    if not args.name:
        raise PreconditionError("catalog show wants an entry name")
    entry = catalog.get(args.name)
    info = {"name": entry.name, "kind": entry.kind,
            "description": entry.description,
            "ambient": {"kind": entry.ambient.kind,
                        "radius": entry.ambient.radius}}
    if entry.domain is not None:
        info["domain"] = {"u": [entry.domain.u_min, entry.domain.u_max],
                          "v": [entry.domain.v_min, entry.domain.v_max],
                          "excluded": [[{"re": complex(c).real,
                                         "im": complex(c).imag}, r]
                                       for (c, r) in entry.domain.excluded]}
    if entry.pair is not None:
        info["expression"] = entry.expression_text()
    info["expected"] = sorted(entry.expected)
    info["aux"] = sorted(entry.aux)
    _emit(info)
    return EXIT_OK


def cmd_certify(args) -> int:
    pair, dom, stem = _resolve(args)
    nu, nv = _parse_grid(args.grid)
    rep = certify(pair, grid=dom.grid(nu, nv, margin=0.05))
    _emit({"curve": stem, **rep})
    return EXIT_OK if rep["ok"] else EXIT_NUMERIC


def cmd_construct(args) -> int:
    pair, dom, stem = _resolve(args)
    nu, nv = _parse_grid(args.grid)
    signs = _parse_signs(args.sign)
    projector = _parse_projector(args.project) if args.project else None
    os.makedirs(args.out, exist_ok=True)

    summary = {"curve": stem, "grid": [nu, nv],
               "domain": [dom.u_min, dom.u_max, dom.v_min, dom.v_max],
               "signs": {}}
    ok = True
    rows = sample_grid(pair, dom.lattice(nu, nv), signs)
    for sign, samples in zip(signs, rows):
        agg = summarize(samples)
        summary["signs"][SIGN_WORDS[sign]] = agg
        ok = ok and agg["n_clear"] > 0
    files = write_grids(
        rows, [os.path.join(args.out, f"{stem}-{SIGN_WORDS[sign]}")
               for sign in signs], *(projector or (None, None)))
    spath = os.path.join(args.out, f"{stem}-summary.json")
    write_json(_clean(summary), spath)
    files.append(spath)
    _emit({**summary, "ok": ok, "files": files})
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_verify(args) -> int:
    pair, dom, stem = _resolve(args)
    nu, nv = _parse_grid(args.grid)
    signs = _parse_signs(args.sign)
    if args.dual_samples < 1:
        raise PreconditionError("--dual-samples must be at least 1")

    report = {"curve": stem, "grid": [nu, nv], "signs": {}}
    ok = True
    lattice = dom.lattice(nu, nv)
    for sign, samples in zip(signs, sample_grid(pair, lattice, signs)):
        agg = summarize(samples)
        report["signs"][SIGN_WORDS[sign]] = agg
        sign_ok = (agg["n_clear"] > 0
                   and agg["max_res_orth"] < 1e-8
                   and agg["max_res_len"] < 1e-8
                   and agg["max_wintgen_rel"] < 1e-8)
        ok = ok and sign_ok

    grid = lattice.ravel()
    grid = grid[dom.contains(grid) & pair.domain.contains(grid)]
    stride = max(1, len(grid) // args.dual_samples)
    z = grid[::stride]
    # the two surfaces' metric relation needs both signs
    worst = {"center": 0.0, "conformal": 0.0, "tangency": 0.0,
             "metric": 0.0 if len(signs) == 2 else None}
    try:
        with row_failures(z.size) as failed:
            rep = dual_pair_report(pair, z, signs)
        skipped = failed.counts()   # exception class name -> points
        used = ~failed.rows()
    except SuperconfError as exc:   # raised alike at every point
        skipped, used = {type(exc).__name__: z.size}, np.zeros(z.size, bool)
    if used.any():
        found = {"center": rep.center_residual.values(),
                 "conformal": rep.conformal_residual.values(),
                 "tangency": rep.tangency_residual.values(),
                 "metric": [rep.metric_relation_residual]}
        for key in worst:
            if worst[key] is not None:   # the largest finite residual
                worst[key] = max(float(r[used & np.isfinite(r)].max(
                    initial=0.0)) for r in found[key])
    n_dual = int(np.count_nonzero(used))
    report["dual_pair"] = {"n_points": n_dual, "skipped": skipped, **worst}
    ok = ok and n_dual > 0 and all(v < 1e-7 for v in worst.values()
                                   if v is not None)
    _emit({**report, "ok": ok})
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_invert(args) -> int:
    pair, dom, stem = _resolve(args)
    nu, nv = _parse_grid(args.grid)
    center = _parse_floats(args.center, 4, "--center")
    inv = Inversion(center=center, radius=args.radius)
    rep = pair_transform_check(pair, inv, dom.grid(nu, nv))
    ok = rep.sup < 1e-5
    _emit({"curve": stem, "center": center, "radius": args.radius,
           "sup_g": rep.sup_g, "sup_h": rep.sup_h, "sup": rep.sup,
           "h_convention": rep.h_convention, "n_points": rep.n_points,
           "n_skipped": rep.n_skipped, "skipped": rep.skipped, "ok": ok})
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_dual(args) -> int:
    if _is_expression(args.curve):
        dom = _parse_domain(args.domain) if args.domain else Domain(
            -3.0, 3.0, -3.0, 3.0)
        curve = HolomorphicCurve("inline", args.curve, dom)
        stem = "inline"
    else:
        entry = catalog.get(args.curve)
        curve = entry.aux.get("graph_curve")
        if curve is None:
            raise PreconditionError(
                f"entry {entry.name} has no two-component graph curve")
        stem = entry.name
    points = np.array(_parse_points(args.points))
    # the first failed point raises its own error
    with row_failures(points.size) as failed:
        rep = duality(curve, points)
    failed.raise_unless()
    worst = {key: float(getattr(rep, key).max())
             for key in ("antiholo", "involution", "conformality")}
    ok = all(v < 1e-8 for v in worst.values())
    _emit({"curve": stem, "n_points": len(points), **worst,
           "value_at_first": rep.value[:, 0], "ok": ok})
    return EXIT_OK if ok else EXIT_NUMERIC


_QUADRIC_LABELS = {"null": "Q_0", "non-constant": "not on any quadric",
                   "constant-complex": "constant complex invariant"}


def cmd_quadric(args) -> int:
    pair, dom, stem = _resolve(args, closed_form=True)
    nu, nv = _parse_grid(args.grid)
    rep = quadric_classification(pair, dom.grid(nu, nv, margin=0.05))
    label = (f"Q_k with k = {rep.k:.12g}" if rep.kind == "constant-real"
             else _QUADRIC_LABELS[rep.kind])
    _emit({"curve": stem, "kind": rep.kind, "label": label,
           "mean": rep.mean, "max_deviation": rep.max_deviation,
           "k": rep.k, "radius": rep.radius, "sign": rep.sign})
    return EXIT_OK


def cmd_project(args) -> int:
    entry = catalog.get(args.entry)
    if entry.surface is None or entry.ambient.kind == "r4":
        raise PreconditionError(
            f"entry {entry.name} is not a space-form immersion")
    nu, nv = _parse_grid(args.grid)
    z = entry.domain.lattice(nu, nv, margin=0.08)
    amb = entry.ambient
    sample = entry.sample(z.real.ravel(), z.imag.ravel())
    rep = superminimal_test(sample, amb)
    P = sample.v
    round_trip = float(_vec_norm(amb.from_R4(amb.to_R4(P)) - P).max())
    ok = rep.verdict.startswith("superminimal")
    _emit({"entry": entry.name, "verdict": rep.verdict,
           "max_mean_curvature": rep.max_mean_curvature,
           "max_circularity": rep.max_circularity,
           "max_mu": rep.max_mu, "min_mu": rep.min_mu,
           "degenerate": rep.degenerate, "n_points": rep.n_points,
           "stereo_round_trip": round_trip, "ok": ok})
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_selftest(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} criterion {r.key}: {r.title}"
        if r.detail:
            line += f" [{r.detail}]"
        print(line)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return EXIT_OK if n_fail == 0 else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="superconf",
        description="Construct and verify superconformal surfaces in R4")
    sub = p.add_subparsers(dest="command", required=True)

    def curve_opts(sp, grid="9,9"):
        sp.add_argument("--curve", required=True,
                        help="catalog name or inline expression like "
                             "'(cos(z), sin(z), -i*z, 0)'")
        sp.add_argument("--domain", help="u_min,u_max,v_min,v_max")
        sp.add_argument("--grid", default=grid, help="nu,nv")

    sp = sub.add_parser("catalog", help="list or show bundled entries")
    sp.add_argument("action", choices=("list", "show"))
    sp.add_argument("name", nargs="?")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("certify",
                        help="certify a conjugate minimal pair on a grid")
    curve_opts(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("construct",
                        help="build the surfaces over a grid and write files")
    curve_opts(sp, grid="32,32")
    sp.add_argument("--sign", default="both")
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--project",
                    help="also write OBJ: drop:k or stereo[:p0,p1,p2,p3]")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("verify",
                        help="superconformality and shared-geometry residuals")
    curve_opts(sp, grid="16,16")
    sp.add_argument("--sign", default="both")
    sp.add_argument("--dual-samples", type=int, default=16)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("invert",
                        help="check the sphere-inversion transform of a pair")
    curve_opts(sp, grid="20,20")
    sp.add_argument("--center", required=True, help="c0,c1,c2,c3")
    sp.add_argument("--radius", type=float, default=1.0)
    sp.set_defaults(func=cmd_invert)

    sp = sub.add_parser("dual", help="duality-map checks for a graph curve")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--domain", help="u_min,u_max,v_min,v_max")
    sp.add_argument("--points", default="0.8,0.4;-1.1,0.9;1.6,-1.2",
                    help="re,im;re,im;...")
    sp.set_defaults(func=cmd_dual)

    sp = sub.add_parser("quadric",
                        help="classify the quadric the curve lies on")
    curve_opts(sp)
    sp.set_defaults(func=cmd_quadric)

    sp = sub.add_parser("project",
                        help="stereographic bridge and space-form minimality")
    sp.add_argument("--entry", required=True, help="space-form catalog entry")
    sp.add_argument("--grid", default="9,9", help="nu,nv")
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("selftest", help="run the full acceptance suite")
    sp.set_defaults(func=cmd_selftest)

    return p


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # a nan or an overflow shows in the report or as an error
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ExpressionError, DomainError, UnknownEntryError,
            PreconditionError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return EXIT_USAGE
    except OSError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return EXIT_IO
    except SuperconfError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
