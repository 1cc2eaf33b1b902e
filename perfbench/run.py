"""Time-to-verdict benchmark for the laguerre command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it needs nothing outside the
standard library.  Every command runs as a cold ``python -m laguerre`` child
with ``src`` on PYTHONPATH, LAGUERRE_* and other PYTHON* variables removed
from its environment, and PYTHONHASHSEED pinned, one child at a time.

``--trace 0`` repeats the workload for --seconds and reports the end-to-end
metrics:

    wall_s       mean wall time of one repetition of the workload's
                 commands, each from launch to exit
    setup_s      mean time of the constructors the workload needs before its
                 first sweep, each pass in a fresh process
    peak_rss_mb  median over repetitions of the largest child's peak RSS,
                 from os.wait4, so it costs the child nothing
    pass_share   share of checked runs whose verdict was right

``--trace 1`` alternates untraced repetitions with traced in-process replays
of the same commands for --seconds, then replays every other workload once
and runs a tracemalloc pass (see child.py).  It reports the per-layer metrics
and the tracing overhead, and writes every span to .perfbench_out/.

Every run first runs the negative controls, checks every verdict, and prints
as its last line one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import (AXIOMS, CHECK_IDS, CONTROLS, WORKLOADS, commands,
                       control_verdict, verdict)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
EXPORT_PATH = str(OUT / "export.json")
CHILD_TIMEOUT_S = 150
# Each repetition is followed by set-up passes worth SETUP_SHARE of its time
# (at least one), so set-up is sampled across the whole run.
SETUP_MIN_REPS, SETUP_SHARE = 3, 0.15
MEMORY_Q = 13


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "LAGUERRE_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict, stem: str) -> tuple[int, float, float, bytes]:
    """Run one child to exit; return exit code, wall seconds, peak RSS in MB
    and its stdout."""
    out_path, err_path = OUT / f"{stem}.out", OUT / f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_bytes()


def run_child(args: list[str], env: dict, stem: str) -> tuple[dict, float]:
    """Run child.py; return its JSON result and its wall time."""
    result_path = OUT / f"{stem}.json"
    rc, wall, _, _ = spawn([sys.executable, str(HERE / "child.py"), *args,
                            "--out", str(result_path)], env, stem)
    if rc != 0:
        err = (OUT / f"{stem}.err").read_text(errors="replace").strip()
        raise RuntimeError(f"child.py {' '.join(args)} exited {rc}: {err[-2000:]}")
    return json.loads(result_path.read_text()), wall


class Tally:
    """Checked runs: how many, which failed and why, and stdout digests
    (recorded for information; the verdict oracle is the gate)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sha256: dict[str, list[str]] = {}

    def record(self, argv: list[str], problems: list[str], stdout: bytes) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        key = " ".join(argv)
        self.failures += [f"{key}: {p}" for p in problems]
        digests = self.sha256.setdefault(key, [])
        digest = hashlib.sha256(stdout).hexdigest()
        if digest not in digests:
            digests.append(digest)


def run_controls(env: dict, tally: Tally) -> None:
    for argv, expected_rc in CONTROLS:
        rc, _, _, stdout = spawn([sys.executable, "-m", "laguerre", *argv], env, "control")
        tally.record(argv, control_verdict(argv, expected_rc, rc, stdout.decode()), stdout)


def cli_rep(workload: str, seed: int, env: dict, tally: Tally) -> dict:
    """One untraced repetition of a workload's commands as cold children."""
    rep = {"wall_s": 0.0, "peak_rss_mb": 0.0}
    for argv in commands(workload, seed, EXPORT_PATH):
        rc, wall, rss, stdout = spawn([sys.executable, "-m", "laguerre", *argv], env, "cli")
        tally.record(argv, verdict(argv, rc, stdout.decode(), EXPORT_PATH), stdout)
        rep["wall_s"] += wall
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
    return rep


def replay_rep(workload: str, seed: int, env: dict, tally: Tally) -> dict[str, dict]:
    """One traced in-process replay of each of a workload's commands, each in
    a fresh child; keyed by trace id ``workload/index``."""
    replays = {}
    for i, argv in enumerate(commands(workload, seed, EXPORT_PATH)):
        result, wall = run_child(["replay", workload, str(i), "--seed", str(seed),
                                  "--export-path", EXPORT_PATH], env, "replay")
        text = result.pop("stdout")
        result["wall_s"] = wall
        result["output_bytes"] = len(text.encode()) + (
            os.path.getsize(EXPORT_PATH) if os.path.exists(EXPORT_PATH) else 0)
        tally.record(argv, verdict(argv, result["rc"], text, EXPORT_PATH), text.encode())
        replays[f"{workload}/{i}"] = result
    return replays


def repeat(seconds: float, body) -> None:
    """Call body() while the next call is expected to end within ``seconds``
    (judged by the last call); at least once."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


# -- per-layer metrics from spans ---------------------------------------------


def self_time(span: dict, spans: list[dict]) -> float:
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == span["id"])
    return span["end"] - span["start"] - children


def layer_metrics(replays: dict[str, dict], memory: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each taken from the replay of the workload whose
    end-to-end figures that layer should move.  Times are self times."""

    def pick(trace: str, name: str, **attrs) -> list[tuple[dict, list[dict]]]:
        spans = replays[trace.removesuffix("/ctx")]["spans"]
        found = [(s, spans) for s in spans if s["trace"] == trace and s["name"] == name
                 and all(s.get(k) == v for k, v in attrs.items())]
        if not found:
            raise RuntimeError(f"no {name} span {attrs} in replay {trace}")
        return found

    def secs(trace: str, name: str, **attrs) -> float:
        return sum(self_time(s, spans) for s, spans in pick(trace, name, **attrs))

    def cases(trace: str, name: str, **attrs) -> int:
        return sum(s["cases"] for s, _ in pick(trace, name, **attrs))

    catalog, axioms, export = "catalog-q7/0", "axioms-q11/0", "export-q13/0"
    plane, group = "plane-group-q11/0", "plane-group-q11/1"
    m: dict[str, tuple[float, str]] = {
        "plane.build_s": (secs(plane, "plane.build"), "s"),
        "plane.verify_axioms_s": (secs(plane, "plane.verify_axioms"), "s"),
        "plane.verify_axioms_cases": (cases(plane, "plane.verify_axioms"), "count"),
        "autgroup.build_s": (secs(axioms, "autgroup.build", canonical=True), "s"),
        "autgroup.build_nc_s": (secs(group, "autgroup.build", canonical=False), "s"),
        "autgroup.verify_axioms_s": (secs(group, "autgroup.verify_axioms"), "s"),
        "autgroup.verify_axioms_cases": (cases(group, "autgroup.verify_axioms"), "count"),
        "skewaffine.build_s": (secs(export, "skewaffine.build"), "s"),
        "skewaffine.build_peak_mb": (memory["build_peak_mb"], "MB"),
        "skewaffine.lines": (pick(export, "skewaffine.build")[0][0]["lines"], "count"),
        "skewaffine.to_json_s": (secs(export, "skewaffine.to_json"), "s"),
    }
    m["plane.verify_axioms_cases_per_s"] = (
        m["plane.verify_axioms_cases"][0] / m["plane.verify_axioms_s"][0], "1/s")
    for ax in AXIOMS:
        m[f"skewaffine.axiom.{ax}_s"] = (secs(axioms, "skewaffine.check_axiom", axiom=ax), "s")
        m[f"skewaffine.axiom.{ax}_cases"] = (
            cases(axioms, "skewaffine.check_axiom", axiom=ax), "count")
    cold, warm = (s for s, _ in pick(catalog + "/ctx", "verify.thm_check")
                  if s["parent"] is None)
    m["verify.ctx_build_s"] = (
        (cold["end"] - cold["start"]) - (warm["end"] - warm["start"]), "s")
    for cid in CHECK_IDS:
        m[f"verify.check.{cid}_s"] = (secs(catalog, "verify.thm_check", check_id=cid), "s")
        m[f"verify.check.{cid}_cases"] = (
            cases(catalog, "verify.thm_check", check_id=cid), "count")
    m["cli.emit_s"] = (sum(secs(t, "cli.main") for t in replays), "s")
    m["cli.output_bytes"] = (sum(r["output_bytes"] for r in replays.values()), "bytes")
    return m


# -- the two modes --------------------------------------------------------------


def end_to_end(args, env: dict, tally: Tally, detail: dict) -> dict[str, tuple[float, str]]:
    reps: list[dict] = []
    setups: list[float] = []

    def setup_pass() -> None:
        setups.append(run_child(["setup", args.workload], env, "setup")[0]["setup_s"])

    def body() -> None:
        reps.append(cli_rep(args.workload, args.seed, env, tally))
        t0 = time.perf_counter()
        setup_pass()
        while time.perf_counter() - t0 < SETUP_SHARE * reps[-1]["wall_s"]:
            setup_pass()

    repeat(args.seconds, body)
    while len(setups) < SETUP_MIN_REPS:
        setup_pass()
    detail.update(wall_s=[r["wall_s"] for r in reps],
                  peak_rss_mb=[r["peak_rss_mb"] for r in reps], setup_s=setups)
    # Means, not medians: on a shared host the CPU speed drifts in phases of
    # seconds, and the mean averages over them where the median of a few
    # repetitions jumps from one phase to the other.
    return {
        "wall_s": (statistics.mean(detail["wall_s"]), "s"),
        "setup_s": (statistics.mean(setups), "s"),
        "peak_rss_mb": (statistics.median(detail["peak_rss_mb"]), "MB"),
        "pass_share": (1 - tally.failed / tally.attempted, "share"),
    }


def traced(args, env: dict, tally: Tally, detail: dict) -> dict[str, tuple[float, str]]:
    untraced: list[float] = []
    traced_walls: list[float] = []
    replays: dict[str, dict] = {}

    def body() -> None:
        untraced.append(cli_rep(args.workload, args.seed, env, tally)["wall_s"])
        replays.update(replay_rep(args.workload, args.seed, env, tally))
        # the catalog replay also times its first check warm; that is not
        # the CLI's work
        traced_walls.append(sum(r["wall_s"] - r["extra_s"] for t, r in replays.items()
                                if t.startswith(args.workload + "/")))

    repeat(args.seconds, body)
    for w in WORKLOADS:
        if w != args.workload:
            replays.update(replay_rep(w, args.seed, env, tally))
    memory, _ = run_child(["memory", str(MEMORY_Q)], env, "memory")
    detail.update(wall_s=untraced, traced_wall_s=traced_walls, replays=replays,
                  memory=memory)
    m = layer_metrics(replays, memory)
    overhead = statistics.mean(traced_walls) - statistics.mean(untraced)
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_share"] = (overhead / statistics.mean(untraced), "share")
    return m


def summary(values: list[float]) -> str:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return (f"mean {statistics.mean(values):.4f}  median {med:.4f}  q1 {q1:.4f}  "
            f"q3 {q3:.4f}  min {min(values):.4f}  max {max(values):.4f}  n={len(values)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "laguerre" / "__main__.py").is_file():
        print(f"error: no laguerre package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    tally = Tally()
    host = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host}

    # The controls run first and also compile the package's bytecode, so the
    # timed repetitions do not pay for it.
    run_controls(env, tally)
    metrics = (traced if args.trace else end_to_end)(args, env, tally, detail)
    detail.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, sha256=tally.sha256)
    name = f"{'trace' if args.trace else 'run'}-{args.workload}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={host['python']} nproc={host['nproc']}  (details: .perfbench_out/{name})")
    for key in ("wall_s", "traced_wall_s", "setup_s", "peak_rss_mb"):
        if key in detail:
            print(f"  {key:<14} {summary(detail[key])}")
    for key, digests in tally.sha256.items():
        print(f"  sha256 {digests[0][:16]}{'+' if len(digests) > 1 else ' '} {key}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not tally.failed, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
