"""Child-process side of the benchmark: set-up timing, traced replays and
the memory pass.

Each mode runs in a fresh interpreter started by ``run.py`` with
``PYTHONPATH=src`` and writes one JSON object to the file named by ``--out``:

    child.py setup  WORKLOAD          time the constructors WORKLOAD needs
                                      before its first sweep
    child.py replay WORKLOAD INDEX    run command INDEX of WORKLOAD through
                                      ``laguerre.cli.main`` in-process, with
                                      spans around the public calls into
                                      each module
    child.py memory Q                 peak traced memory of GroupSpace.build
                                      at q=Q, with tracemalloc on

The package under test is only ever called through its public names, so a
change inside ``src/`` needs no change here.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import time
import tracemalloc

from workloads import SETUP, commands


class Tracer:
    """In-memory spans: name, start, end, parent, and attributes recorded
    after the call returns (outside the timed interval)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._epoch = time.perf_counter()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "trace": self.trace_id, "name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter() - self._epoch
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self._epoch
                self._open.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result
        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, attrs)))
        else:
            setattr(owner, attr, self.wrap(name, raw, attrs))


def _report_attrs(args, kwargs, rep) -> dict:
    return {"cases": rep.cases_checked, "status": rep.status}


def install(tracer: Tracer) -> None:
    """Span every public call the CLI makes into plane, autgroup,
    skewaffine and verify."""
    from laguerre import autgroup, plane, skewaffine, verify

    tracer.patch(plane.LaguerrePlane, "__init__", "plane.build",
                 lambda a, k, r: {"q": a[0].q})
    tracer.patch(plane.LaguerrePlane, "verify_axioms", "plane.verify_axioms",
                 _report_attrs)
    tracer.patch(autgroup.DeltaGroup, "build", "autgroup.build",
                 lambda a, k, r: {"q": r.plane.q, "canonical": r.canonical})
    tracer.patch(autgroup.DeltaGroup, "verify_axioms", "autgroup.verify_axioms",
                 _report_attrs)
    tracer.patch(skewaffine.GroupSpace, "build", "skewaffine.build",
                 lambda a, k, r: {"q": r.q, "lines": r.census()["lines"]})
    tracer.patch(skewaffine.GroupSpace, "check_axiom", "skewaffine.check_axiom",
                 lambda a, k, r: {"axiom": r.check_id, **_report_attrs(a, k, r)})
    tracer.patch(skewaffine.GroupSpace, "to_json", "skewaffine.to_json")
    # run_suite looks thm_check up in its module at call time
    tracer.patch(verify, "thm_check", "verify.thm_check",
                 lambda a, k, r: {"check_id": r.check_id, **_report_attrs(a, k, r)})


def cmd_setup(workload: str) -> dict:
    from laguerre import DeltaGroup, GroupSpace, LaguerrePlane, canonical_pencil

    q, with_space = SETUP[workload]
    t0 = time.perf_counter()
    plane = LaguerrePlane(q)
    if with_space:
        pencil = canonical_pencil(plane)
        GroupSpace.build(plane, pencil, DeltaGroup.build(plane, pencil),
                         check_preconditions=False)
    return {"setup_s": time.perf_counter() - t0}


def cmd_replay(workload: str, index: int, seed: int, export_path: str) -> dict:
    from laguerre import cli, verify

    argv = commands(workload, seed, export_path)[index]
    tracer = Tracer(f"{workload}/{index}")
    install(tracer)
    main = tracer.wrap("cli.main", cli.main)
    warm_s = 0.0
    if argv[0] == "theorems":
        # The catalog builds its context lazily inside whichever check runs
        # first.  Run that check cold and then warm, so the difference is the
        # context build and every check inside cli.main runs warm.
        first, q = verify.CHECK_IDS[0], int(argv[argv.index("--q") + 1])
        tracer.trace_id += "/ctx"
        for _ in range(2):
            verify.thm_check(first, q)
        warm = [s for s in tracer.spans if s["parent"] is None][-1]
        warm_s = warm["end"] - warm["start"]
        tracer.trace_id = f"{workload}/{index}"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    # extra_s: time spent on work the CLI does not do (the warm repeat)
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(),
            "spans": tracer.spans, "extra_s": warm_s}


def cmd_memory(q: int) -> dict:
    from laguerre import DeltaGroup, GroupSpace, LaguerrePlane, canonical_pencil

    tracemalloc.start()
    plane = LaguerrePlane(q)
    pencil = canonical_pencil(plane)
    delta = DeltaGroup.build(plane, pencil)
    tracemalloc.reset_peak()
    t0 = time.perf_counter()
    GroupSpace.build(plane, pencil, delta, check_preconditions=False)
    build_s = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"q": q, "build_peak_mb": peak / 2 ** 20, "build_tracemalloc_s": build_s}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "replay", "memory"))
    ap.add_argument("target")
    ap.add_argument("index", nargs="?", type=int, default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--export-path", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.mode == "setup":
        result = cmd_setup(args.target)
    elif args.mode == "replay":
        result = cmd_replay(args.target, args.index, args.seed, args.export_path)
    else:
        result = cmd_memory(int(args.target))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
