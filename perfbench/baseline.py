"""Reproduce the ROADMAP baseline rows with the benchmark's own tracer.

    PYTHONPATH=src python3 perfbench/baseline.py [--with-t42-q11]

Prints one line per row: the quantity, q, and seconds (or MB).  Each row's
objects are built fresh, so no row reuses another's tables.  The T4.2 row at
q=11 takes about a minute and runs only with --with-t42-q11.
"""

from __future__ import annotations

import argparse
import time

from child import Tracer, cmd_memory, install


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--with-t42-q11", action="store_true")
    args = ap.parse_args()

    tracer = Tracer("baseline")
    install(tracer)
    from laguerre import (DeltaGroup, GroupSpace, LaguerrePlane, canonical_pencil,
                          run_suite, verify)

    def last(name: str, **attrs) -> float:
        span = [s for s in tracer.spans if s["name"] == name
                and all(s.get(k) == v for k, v in attrs.items())][-1]
        return span["end"] - span["start"]

    def space(q: int) -> GroupSpace:
        plane = LaguerrePlane(q)
        pencil = canonical_pencil(plane)
        return GroupSpace.build(plane, pencil, DeltaGroup.build(plane, pencil),
                                check_preconditions=False)

    for q in (5, 7, 11, 13):
        space(q)
        print(f"space build            q={q:<2}  {last('skewaffine.build'):8.3f} s")
    for q in (11, 13):
        mem = cmd_memory(q)
        print(f"space build, tracemalloc q={q:<2}  {mem['build_tracemalloc_s']:6.3f} s"
              f"  peak {mem['build_peak_mb']:.1f} MB")
    for q in (11, 13):
        LaguerrePlane(q).verify_axioms()
        print(f"plane axiom sweep      q={q:<2}  {last('plane.verify_axioms'):8.3f} s")
    for q in (11, 13):
        space(q).check_axiom("V")
        print(f"axiom V                q={q:<2}  {last('skewaffine.check_axiom'):8.3f} s")
    t0 = time.perf_counter()
    run_suite(7)
    print(f"catalog, all checks    q=7   {time.perf_counter() - t0:8.3f} s"
          f"  (T4.2 {last('verify.thm_check', check_id='T4.2'):.3f} s)")
    if args.with_t42_q11:
        verify.thm_check("T4.2", 11)
        print(f"T4.2, incl. context    q=11  {last('verify.thm_check'):8.3f} s")


if __name__ == "__main__":
    main()
