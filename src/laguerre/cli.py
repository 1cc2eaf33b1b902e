"""Command-line front end: build, verify, and export.

Subcommands
-----------
plane verify       --q N                       Laguerre axioms, at orbit
                                               representatives of verified maps
group verify       --q N [--pencil SPEC]       transitivity + tangency axioms
skewaffine verify  --q N --axiom ID|all        residual-plane axioms, at the
                   [--budget B] [--seed S]     default or the given budget
theorems run       --q N [--id ID|all]         the named-check catalog:
                                               nine checks exhaustive, twenty
                                               up to a machine-checked symmetry
export             --q N --what W --out FILE   plane/group/space JSON

Pencil SPEC is ``canonical`` (default), ``p:x,y[@K:a,b,c]`` for an affine
vertex, or ``ideal:a[@K:a,b,c]`` for an ideal vertex; when K is omitted a
circle through the vertex is chosen (y = y0 resp. y = a x^2).  Every
coordinate is an integer v with 0 <= v < q; any other is a bad spec.

Exit codes: 0 all checks pass or are report-only, 1 some check failed,
2 usage or configuration error, an unwritable ``--out`` or a closed stdout.
``--json`` emits one stable JSON array; timing is excluded so identical runs
are byte-identical.

``main(argv)`` returns the exit code in process; ``entry``, the process's
one entry point, runs it, flushes both streams and ends with ``os._exit``,
so a command does not free its tables one object at a time on the way out.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .field import MAX_Q, FieldError, GF, is_prime
from .plane import (Circle, GeometryError, LaguerrePlane, Pencil, affine,
                    canonical_pencil, ideal)
from .autgroup import DeltaGroup, verify_a1a2a3
from .skewaffine import AXIOMS, GroupSpace
from .report import Budget, Report
from .verify import CHECK_IDS, run_suite


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` where argparse would print usage and exit, so a
    bad flag gets the same one-line ``error:`` as any other bad input.
    Subparsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="laguerre-verify", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--q", type=int, required=True, help="prime field size")
        p.add_argument("--json", action="store_true", help="emit a JSON array")

    plane = sub.add_parser("plane", help="Laguerre plane commands")
    plane_sub = plane.add_subparsers(dest="action", required=True)
    add_common(plane_sub.add_parser("verify", help="check the plane axioms"))

    group = sub.add_parser("group", help="commands on the pencil stabilizer's "
                                         "pointwise stabilizer of the vertex generator")
    group_sub = group.add_subparsers(dest="action", required=True)
    gv = group_sub.add_parser("verify", help="check transitivity and tangency axioms")
    add_common(gv)
    gv.add_argument("--pencil", default="canonical",
                    help="canonical | p:x,y[@K:a,b,c] | ideal:a[@K:a,b,c]")

    ska = sub.add_parser("skewaffine", help="residual-plane commands")
    ska_sub = ska.add_subparsers(dest="action", required=True)
    sv = ska_sub.add_parser("verify", help="check residual-plane axioms")
    add_common(sv)
    sv.add_argument("--axiom", required=True,
                    help="one of %s or 'all'" % "/".join(AXIOMS))
    sv.add_argument("--budget", default=None,
                    help="'orbit', 'exhaustive' or 'sample:K' (default: orbit for "
                         "T/V/Pgm/Des/Pap, exhaustive otherwise; only T, Des and "
                         "Pap have a sampled form)")
    sv.add_argument("--seed", type=int, default=0,
                    help="seed for sampled sweeps (default 0)")

    thm = sub.add_parser("theorems", help="named-check catalog")
    thm_sub = thm.add_subparsers(dest="action", required=True)
    tr = thm_sub.add_parser("run", help="run catalog checks")
    add_common(tr)
    tr.add_argument("--id", default="all", help="a check id or 'all'")

    exp = sub.add_parser("export", help="write a JSON model")
    exp.add_argument("--q", type=int, required=True)
    exp.add_argument("--what", required=True, choices=("plane", "group", "space"))
    exp.add_argument("--out", required=True, help="output file path")
    exp.add_argument("--pencil", default=None,
                     help="as for group verify (default canonical); not for --what plane")
    return top


def _parse_pencil(plane: LaguerrePlane, spec: str) -> Pencil:
    if spec == "canonical":
        return canonical_pencil(plane)
    body, at_k, ktext = spec.partition("@K:")
    try:
        if body.startswith("p:"):
            x, y = map(int, body[2:].split(","))
            p = affine(x, y)
            K = Circle(0, 0, y)
        elif body.startswith("ideal:"):
            a = int(body[6:])
            p = ideal(a)
            K = Circle(a, 0, 0)
        else:
            raise UsageError(f"bad pencil spec {spec!r}")
        if at_k:
            a, b, c = map(int, ktext.split(","))
            K = Circle(a, b, c)
        if not all(0 <= v < plane.q for v in (p.x, p.y, *K)):
            raise ValueError(spec)
    except (ValueError, IndexError):
        raise UsageError(f"bad pencil spec {spec!r}")
    try:
        return plane.pencil(p, K)
    except GeometryError as e:
        raise UsageError(f"invalid pencil: {e}")


def _json(payload) -> str:
    """The one JSON encoding of every payload the CLI writes.  A space
    export is composed by ``_space_json`` from ``_json`` of each point, to
    the same bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _space_json(payload: dict) -> str:
    """``_json(payload)`` for a ``GroupSpace.to_json`` payload, with each
    point encoded once.  Every line's ``base`` and ``points`` are dicts of
    ``payload["points"]`` (a KeyError otherwise), so a line record is joined
    from their texts, keys in sorted order; class ids are ints."""
    text = {id(p): _json(p) for p in payload["points"]}
    kinds = {kind: _json(kind) for kind in {line["kind"] for line in payload["lines"]}}
    lines = ",".join([
        '{"base":%s,"class":%d,"kind":%s,"points":[%s]}'
        % (text[id(line["base"])], line["class"], kinds[line["kind"]],
           ",".join(map(text.__getitem__, map(id, line["points"]))))
        for line in payload["lines"]])
    points = ",".join(map(text.__getitem__, map(id, payload["points"])))
    return '{"lines":[%s],"points":[%s],"q":%d}' % (lines, points, payload["q"])


def _stdout_error(e: OSError) -> UsageError:
    return UsageError(f"cannot write to stdout: {e.strerror}")


def _emit(reports: list[Report], as_json: bool) -> int:
    try:
        if as_json:
            print(_json([r.to_dict() for r in reports]))
        else:
            for r in reports:
                print(r.text())
            fails = sum(not r.ok for r in reports)
            print(f"-- {len(reports)} checks, {fails} failing")
    except OSError as e:  # the reader closed stdout, say
        raise _stdout_error(e) from None
    return 0 if all(r.ok for r in reports) else 1


def _cmd_plane_verify(args) -> int:
    plane = LaguerrePlane(args.q)
    return _emit([plane.verify_axioms()], args.json)


def _cmd_group_verify(args) -> int:
    plane = LaguerrePlane(args.q)
    pencil = _parse_pencil(plane, args.pencil)
    if plane.gf.char2:
        return _emit([verify_a1a2a3(plane, pencil, None)], args.json)
    delta = DeltaGroup.build(plane, pencil)
    return _emit([delta.verify_axioms()], args.json)


def _require_odd(q: int) -> None:
    if q % 2 == 0:
        raise UsageError("this command needs an odd prime q")
    if q <= MAX_Q and not is_prime(q):  # a larger q fails the field's bound
        raise UsageError(f"{q} is not prime")


def _parse_budget(args) -> Budget | None:
    if args.budget is None:
        return None
    try:
        return Budget.parse(args.budget, args.seed)
    except ValueError as e:
        raise UsageError(str(e))


def _cmd_ska_verify(args) -> int:
    _require_odd(args.q)
    budget = _parse_budget(args)
    if args.axiom != "all" and args.axiom not in AXIOMS:
        raise UsageError(f"unknown axiom {args.axiom!r}")
    names = AXIOMS if args.axiom == "all" else (args.axiom,)
    plane = LaguerrePlane(args.q)
    pencil = canonical_pencil(plane)
    space = GroupSpace.build(plane, pencil, DeltaGroup.build(plane, pencil),
                             check_preconditions=False)
    reports = [space.check_axiom(name, budget) for name in names]
    return _emit(reports, args.json)


def _cmd_theorems_run(args) -> int:
    _require_odd(args.q)
    GF(args.q)  # the bound, before the catalog builds its plane
    ids = CHECK_IDS if args.id == "all" else (args.id,)
    for cid in ids:
        if cid not in CHECK_IDS:
            raise UsageError(f"unknown check id {cid!r}")
    return _emit(run_suite(args.q, ids), args.json)


def _cmd_export(args) -> int:
    # imported here, by its one user, so that importing the CLI loads no pathlib
    from pathlib import Path

    if args.what == "plane" and args.pencil is not None:
        raise UsageError("--pencil does not apply to --what plane")
    try:
        out = Path(args.out)
        if out.is_dir():
            raise UsageError(f"output path {args.out!r} is a directory")
        if not out.parent.is_dir():
            raise UsageError(f"output directory {str(out.parent)!r} does not exist")
        if args.out.endswith("/"):  # names a directory, so no file can be written
            raise UsageError(f"cannot write {args.out!r}: {os.strerror(errno.EISDIR)}")
    except OSError as e:
        raise UsageError(f"cannot write {args.out!r}: {e.strerror}") from None
    plane = LaguerrePlane(args.q)
    pencil = _parse_pencil(plane, args.pencil or "canonical")
    if args.what == "plane":
        text = _json(plane.to_json())
    else:
        _require_odd(args.q)
        delta = DeltaGroup.build(plane, pencil)
        if args.what == "group":
            text = _json(delta.to_json())
        else:
            text = _space_json(GroupSpace.build(plane, pencil, delta,
                                                check_preconditions=False).to_json())
    text += "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {args.out!r}: {e.strerror}") from None
    print(f"wrote {args.what} for q={args.q} to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "plane":
            return _cmd_plane_verify(args)
        if args.command == "group":
            return _cmd_group_verify(args)
        if args.command == "skewaffine":
            return _cmd_ska_verify(args)
        if args.command == "theorems":
            return _cmd_theorems_run(args)
        return _cmd_export(args)  # the parser admits no other command
    except SystemExit as e:  # only --help exits; argparse errors raise UsageError
        return 2 if e.code not in (0, None) else 0
    except (UsageError, FieldError, GeometryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    """Run ``main`` on ``sys.argv``, flush stdout and stderr, and end the
    process with ``os._exit``: the interpreter frees nothing on the way out,
    and an export's file is already closed.  Output still buffered when the
    reader has closed stdout is the same ``error:`` line and exit 2 as in
    ``_emit``, unless ``main`` has already printed its one error line."""
    status = main()
    try:
        sys.stdout.flush()
    except OSError as e:
        if status != 2:
            print(f"error: {_stdout_error(e)}", file=sys.stderr)
            status = 2
    try:
        sys.stderr.flush()
    except OSError:
        pass  # nowhere left to say so
    os._exit(status)


if __name__ == "__main__":
    entry()
