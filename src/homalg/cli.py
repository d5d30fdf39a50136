"""Command-line surface: analyze algebra files, emit constructions, run
invariant campaigns over corpora.

Exit codes: 0 success, 1 at least one theorem check failed, 2 usage or parse
errors.  All diagnostics go to standard error; reports are JSON on standard
output (deterministic: canonical bases, sorted keys).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from homalg import campaign as camp
from homalg import fileio, homstruct, leibniz, reports
from homalg.algebra import Algebra, HomAlgebra, InvolutiveAlgebra
from homalg.constructions import (
    GeneratorConfig,
    cayley_dickson_chain,
    opposite,
    random_algebra,
    truncated_poly,
    unitalize,
    yau_twist,
)
from homalg.errors import (
    HomalgError,
    NotTwoSidedUnital,
    NotUnitalOnSide,
    ParseError,
    SearchSpaceTooLarge,
    UnsupportedDimensionOverQ,
)
from homalg.fields import GF, QQ
from homalg import subspaces as sub


def _parse_field(text: str):
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        try:
            return GF(int(text[3:]))
        except ValueError as exc:
            raise ParseError(f"bad field {text!r}: {exc}") from exc
    raise ParseError(f"bad field {text!r} (expected Q or Fp:<prime>)")


def _base_of(x) -> Algebra:
    """The algebra of a parsed file: the base of a hom- or involutive algebra."""
    return x.base if isinstance(x, (HomAlgebra, InvolutiveAlgebra)) else x


def _load_algebra(path) -> Algebra:
    return _base_of(fileio.parse(path))


def _emit(x, path, meta=None):
    fileio.emit(x, path, meta=meta)
    print(f"wrote {path}", file=sys.stderr)


def cmd_analyze(args) -> int:
    a = _load_algebra(args.file)
    report = homstruct.structure_theorem_audit(a, unitalize_limit=args.unitalize_limit)
    print(reports.render(reports.audit_json(report)), end="")
    return 0 if report.ok() else 1


def cmd_twist_space(args) -> int:
    a = _load_algebra(args.file)
    ts = homstruct.twist_space(a)
    doc = {
        "tool": reports.tool_stamp(),
        "dim": ts.dim,
        "basis_maps": [reports.grid(m) for m in ts.maps],
    }
    print(reports.render(doc), end="")
    return 0


def cmd_ac(args) -> int:
    a = _load_algebra(args.file)
    doc: dict = {"tool": reports.tool_stamp(), "side": args.side}
    if args.side == "two":
        space = homstruct.ac_two_sided(a)
        doc["ac"] = reports.subspace_json(space)
        idem_space = space
    else:
        acs = homstruct.ac_one_sided(a, args.side)
        doc.update(reports.ac_json(acs))
        idem_space = acs.ac_unit
    try:
        idems = sub.idempotents(a, idem_space)
        doc["idempotents"] = [reports.scalar_list(a.field, e) for e in idems]
    except (SearchSpaceTooLarge, UnsupportedDimensionOverQ) as exc:
        doc["idempotents_skipped"] = str(exc)
    print(reports.render(doc), end="")
    return 0


def cmd_cayley_dickson(args) -> int:
    field = _parse_field(args.field)
    if args.gamma:
        try:
            gammas = [field.parse(g) for g in args.gamma.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad gamma {args.gamma!r}: {exc}") from exc
    else:
        gammas = None
    chain = cayley_dickson_chain(args.levels, gammas, field)
    _emit(chain[-1], args.output, meta={"construction": f"cayley-dickson level {args.levels}"})
    return 0


def cmd_unitalize(args) -> int:
    a = _load_algebra(args.file)
    bigger, _, _ = unitalize(a)
    _emit(bigger, args.output, meta={"construction": "unitalize"})
    return 0


def _twist_from_args(a: Algebra, x, args):
    if args.twist_from_file:
        if not isinstance(x, HomAlgebra):
            raise ParseError("--twist-from-file needs a file with a twist grid")
        return x.twist
    if args.left_mult is not None:
        return a.left_op(a.basis(args.left_mult))
    if args.right_mult is not None:
        return a.right_op(a.basis(args.right_mult))
    return None


def cmd_yau(args) -> int:
    x = fileio.parse(args.file)
    a = _base_of(x)
    alpha = _twist_from_args(a, x, args)
    if alpha is None:
        raise ParseError("one of --twist-from-file / --left-mult / --right-mult is required")
    twisted = yau_twist(a, alpha)
    _emit(twisted, args.output, meta={"construction": "yau-twist"})
    return 0


def cmd_opposite(args) -> int:
    a = _load_algebra(args.file)
    _emit(opposite(a), args.output, meta={"construction": "opposite"})
    return 0


def cmd_poly(args) -> int:
    field = _parse_field(args.field)
    _emit(
        truncated_poly(field, args.degree, with_constants=args.with_constants),
        args.output,
        meta={"construction": f"truncated polynomials, degree {args.degree}"},
    )
    return 0


def cmd_leibniz(args) -> int:
    x = fileio.parse(args.file)
    a = _base_of(x)
    doc: dict = {"tool": reports.tool_stamp()}
    witnesses = leibniz.leibniz_check(a)
    for side, wit in zip(("left", "right"), witnesses):
        doc[f"{side}_leibniz"] = {"holds": wit is None, "witness": wit}
    failed = False
    if None in witnesses:
        try:
            hu = leibniz.hu_n_leibniz(a)
            doc["hu_n"] = reports.subspace_json(hu)
        except HomalgError as exc:
            doc["hu_n_error"] = str(exc)
            failed = True
        collapse = leibniz.unitality_collapse_check(a)
        doc["unitality_collapse"] = collapse
        failed = failed or not collapse["ok"]
    alpha = _twist_from_args(a, x, args)
    if alpha is not None:
        h = HomAlgebra(a, alpha)
        hl_ok, hl_wit = leibniz.hom_lie_check(h)
        doc["hom_lie"] = {
            "holds": hl_ok,
            "witness": hl_wit,
            "jacobi_form": leibniz.HOM_JACOBI_FORM,
        }
        for side, wit in zip(("left", "right"), leibniz.leibniz_check(a, alpha)):
            doc[f"hom_leibniz_{side}"] = wit is None
        crossed = leibniz.crossed_unitality_check(h)
        doc["crossed_unitality"] = crossed
        failed = failed or not crossed["ok"]
    print(reports.render(doc), end="")
    return 1 if failed else 0


def cmd_random(args) -> int:
    field = _parse_field(args.field)
    if args.left_unital:
        flag = "left_unital"
    elif args.commutative:
        flag = "commutative"
    elif args.anticommutative:
        flag = "anticommutative"
    else:
        flag = "none"
    cfg = GeneratorConfig(seed=args.seed, dim=args.dim, field=field, flag=flag)
    _emit(random_algebra(cfg), args.output, meta={"generator": cfg.to_json()})
    return 0


def cmd_campaign(args) -> int:
    named = []
    if args.dir:
        corpus = Path(args.dir)
        if not corpus.is_dir():
            raise ParseError(f"not a directory: {corpus}")
        for path in sorted(corpus.glob("*.json")):
            named.append((f"corpus/{path.name}", _load_algebra(path)))
    if not args.no_builtin:
        named.extend(camp.builtin_corpus())
    named.extend(camp.generated_algebras(args.seeds))
    report = camp.run_campaign(named, unitalize_limit=args.unitalize_limit)
    text = reports.render(report)
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
        print(f"wrote {args.report}", file=sys.stderr)
    else:
        print(text, end="")
    print(
        f"campaign: {report['algebras']} algebras, {report['total_checks']} checks, "
        f"{report['failures']} failures",
        file=sys.stderr,
    )
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="homalg",
        description="Exact workbench for hom-associative structures on "
        "finite-dimensional nonassociative algebras.",
    )
    sp = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        q = sp.add_parser(name, help=help_text)
        q.set_defaults(fn=fn)
        return q

    def add_twist_options(q):
        twist = q.add_mutually_exclusive_group()
        twist.add_argument("--twist-from-file", action="store_true")
        for side in ("left", "right"):
            help_text = f"basis index for a {side} multiplication twist"
            twist.add_argument(f"--{side}-mult", type=int, help=help_text)

    q = add("analyze", cmd_analyze, "full structure report for an algebra file")
    q.add_argument("file")
    q.add_argument("--unitalize-limit", type=int, default=8)

    q = add("twist-space", cmd_twist_space, "basis of all compatible twist maps")
    q.add_argument("file")

    q = add("ac", cmd_ac, "hom-unity multiplier subspaces and idempotents")
    q.add_argument("file")
    q.add_argument("--side", choices=["left", "right", "two"], required=True)

    q = add("cayley-dickson", cmd_cayley_dickson, "emit a doubling-chain algebra")
    q.add_argument("--levels", type=int, required=True)
    q.add_argument("--gamma", help="comma-separated scalars, one per level")
    q.add_argument("--field", default="Q")
    q.add_argument("-o", "--output", required=True)

    q = add("unitalize", cmd_unitalize, "adjoin a two-sided unity")
    q.add_argument("file")
    q.add_argument("-o", "--output", required=True)

    q = add("yau", cmd_yau, "twist the product by a linear map")
    q.add_argument("file")
    add_twist_options(q)
    q.add_argument("-o", "--output", required=True)

    q = add("opposite", cmd_opposite, "reverse the product")
    q.add_argument("file")
    q.add_argument("-o", "--output", required=True)

    q = add("poly", cmd_poly, "truncated polynomial algebra")
    q.add_argument("--degree", type=int, required=True)
    q.add_argument("--with-constants", action="store_true")
    q.add_argument("--field", default="Q")
    q.add_argument("-o", "--output", required=True)

    q = add("leibniz", cmd_leibniz, "Leibniz/hom-Lie report for a bracket")
    q.add_argument("file")
    add_twist_options(q)

    q = add("random", cmd_random, "emit a seeded random algebra")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--field", default="Q", help="Q or Fp:<prime>")
    q.add_argument("--seed", type=int, required=True)
    flags = q.add_mutually_exclusive_group()
    flags.add_argument("--left-unital", action="store_true")
    flags.add_argument("--commutative", action="store_true")
    flags.add_argument("--anticommutative", action="store_true")
    q.add_argument("-o", "--output", required=True)

    q = add("campaign", cmd_campaign, "invariant suite over a corpus plus seeded algebras")
    q.add_argument("--dir", help="directory of algebra definition files")
    q.add_argument("--seeds", type=int, default=0)
    q.add_argument("--report", help="write the JSON report here instead of stdout")
    q.add_argument("--no-builtin", action="store_true", help="skip the pinned instances")
    q.add_argument("--unitalize-limit", type=int, default=8)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (NotUnitalOnSide, NotTwoSidedUnital) as exc:
        print(f"homalg: {exc}", file=sys.stderr)
        return 1
    except HomalgError as exc:
        print(f"homalg: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"homalg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
