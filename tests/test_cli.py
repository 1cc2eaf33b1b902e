import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from laguerre import DeltaGroup, GroupSpace, LaguerrePlane
from laguerre.cli import _json, _parse_pencil, _space_json, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plane_verify(capsys):
    code, out, _ = run_cli(capsys, "plane", "verify", "--q", "5")
    assert code == 0
    assert "PASS" in out


def test_plane_verify_q2_passes(capsys):
    code, out, _ = run_cli(capsys, "plane", "verify", "--q", "2")
    assert code == 0


def test_group_verify_char2_fails_with_witnesses(capsys):
    code, out, _ = run_cli(capsys, "group", "verify", "--q", "2", "--json")
    assert code == 1
    reports = json.loads(out)
    assert reports[0]["status"] == "fail"
    assert len(reports[0]["witnesses"]) == 4


def test_group_verify_pencil_specs(capsys):
    for spec in ("canonical", "p:0,0", "ideal:2", "p:1,2@K:1,0,1"):
        code, out, _ = run_cli(capsys, "group", "verify", "--q", "5",
                               "--pencil", spec)
        assert code == 0, (spec, out)


def test_group_verify_invalid_pencil(capsys):
    code, _, err = run_cli(capsys, "group", "verify", "--q", "5",
                           "--pencil", "p:0,0@K:1,1,1")
    assert code == 2
    assert "invalid pencil" in err


def test_empty_k_is_a_bad_pencil_spec(tmp_path, capsys):
    # an "@K:" with nothing after it names no circle; it must not fall back
    # to the default K
    for spec in ("p:1,2@K:", "ideal:2@K:"):
        out_file = tmp_path / "space.json"
        for argv in (("group", "verify", "--q", "5", "--pencil", spec),
                     ("export", "--q", "5", "--what", "space", "--pencil", spec,
                      "--out", str(out_file))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", (argv, out)
            assert err == f"error: bad pencil spec {spec!r}\n", (argv, err)
        assert not out_file.exists()


def test_pencil_coordinates_outside_the_field_are_bad_specs(tmp_path, capsys, monkeypatch):
    # a coordinate must lie in 0 <= v < q; none may wrap mod q onto another
    # pencil, and each is refused before the group or the space is built
    def no_build(*args, **kwargs):
        raise AssertionError("a group was built")

    monkeypatch.setattr(DeltaGroup, "build", no_build)
    out_file = tmp_path / "space.json"
    for spec in ("ideal:7", "ideal:5", "ideal:-1", "p:-1,2", "p:1,5", "p:5,0",
                 "p:0,0@K:0,0,7", "p:0,0@K:-1,0,0", "ideal:2@K:2,1,-3",
                 "ideal:2@K:2,1,5", "p:1,2@K:0,0"):
        for argv in (("group", "verify", "--q", "5", "--pencil", spec, "--json"),
                     ("export", "--q", "5", "--what", "space", "--pencil", spec,
                      "--out", str(out_file))):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (argv, out)
            assert err == f"error: bad pencil spec {spec!r}\n", (argv, err)
    assert not out_file.exists()


def test_skewaffine_verify(capsys):
    code, out, _ = run_cli(capsys, "skewaffine", "verify", "--q", "3",
                           "--axiom", "all")
    assert code == 0
    assert out.count("PASS") == 9
    code, out, _ = run_cli(capsys, "skewaffine", "verify", "--q", "3",
                           "--axiom", "all", "--budget", "orbit", "--json")
    assert code == 0
    modes = {r["check_id"]: r["details"]["mode"] for r in json.loads(out)}
    assert modes == {"L1": "exhaustive", "L2": "exhaustive", "P1": "exhaustive",
                     "P2": "exhaustive", "T": "orbit", "V": "orbit",
                     "Pgm": "orbit", "Des": "orbit", "Pap": "orbit"}


def test_skewaffine_sampled_budget(capsys):
    code, out, _ = run_cli(capsys, "skewaffine", "verify", "--q", "5",
                           "--axiom", "T", "--budget", "sample:3000",
                           "--seed", "42", "--json")
    assert code == 0
    rep = json.loads(out)[0]
    assert rep["cases_checked"] == 3000
    assert rep["details"]["seed"] == 42


def test_theorems_run_all(capsys):
    code, out, _ = run_cli(capsys, "theorems", "run", "--q", "3", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 29
    statuses = {r["check_id"]: r["status"] for r in reports}
    assert statuses["L3.1"] == "report_only"
    assert all(s in ("pass", "report_only") for s in statuses.values())


def test_theorems_single_id(capsys):
    code, out, _ = run_cli(capsys, "theorems", "run", "--q", "5",
                           "--id", "P4.6")
    assert code == 0
    assert "P4.6" in out


def test_theorems_deterministic_json(capsys):
    _, out1, _ = run_cli(capsys, "theorems", "run", "--q", "3", "--json")
    _, out2, _ = run_cli(capsys, "theorems", "run", "--q", "3", "--json")
    assert out1 == out2
    assert "elapsed" not in out1


def test_usage_errors(capsys):
    assert run_cli(capsys, "theorems", "run", "--q", "4")[0] == 2
    assert run_cli(capsys, "theorems", "run", "--q", "2")[0] == 2
    assert run_cli(capsys, "theorems", "run", "--q", "5", "--id", "NOPE")[0] == 2
    assert run_cli(capsys, "skewaffine", "verify", "--q", "5",
                   "--axiom", "Q9")[0] == 2
    assert run_cli(capsys, "plane", "verify", "--q", "9") == \
        (2, "", "error: 9 is not prime\n")
    assert run_cli(capsys, "plane", "verify", "--q", "211") == \
        (2, "", "error: q=211 exceeds the configured bound 101\n")
    assert run_cli(capsys, "nonsense")[0] == 2


def test_the_bound_on_q_is_checked_before_its_primality(tmp_path, capsys, monkeypatch):
    # trial division of a huge q would run for hours; every command refuses
    # it by the bound first
    from laguerre import cli, field
    true_is_prime = field.is_prime

    def bounded_is_prime(n):
        if n > field.MAX_Q:
            raise AssertionError(f"is_prime({n}) was called")
        return true_is_prime(n)

    for module in (field, cli):
        monkeypatch.setattr(module, "is_prime", bounded_is_prime)
    q = "10000000000000061"
    for argv in (("plane", "verify"), ("group", "verify"),
                 ("skewaffine", "verify", "--axiom", "all"), ("theorems", "run"),
                 ("export", "--what", "space", "--out", str(tmp_path / "s.json"))):
        assert run_cli(capsys, *argv, "--q", q) == \
            (2, "", f"error: q={q} exceeds the configured bound 101\n"), argv


def test_bad_budget_is_a_usage_error(capsys):
    for budget in ("bogus", "sample:x", "sample:0"):
        argv = ("skewaffine", "verify", "--q", "5", "--axiom", "T")
        code, out, err = run_cli(capsys, *argv, "--budget", budget)
        assert code == 2, budget
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # the catalog is always exhaustive and takes no budget or seed
    for flag in (("--budget", "sample:5"), ("--seed", "1")):
        code, out, _ = run_cli(capsys, "theorems", "run", "--q", "5",
                               "--id", "P4.6", *flag)
        assert code == 2 and out == "", flag


def test_argparse_errors_are_one_line(capsys):
    for argv in (("theorems", "run", "--q", "5", "--budget", "sample:5"),
                 ("theorems", "run"),
                 ("nonsense",),
                 ("export", "--q", "5", "--what", "circles", "--out", "x.json"),
                 ("skewaffine", "verify", "--q", "five", "--axiom", "T")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    code, out, err = run_cli(capsys, "theorems", "run", "--help")
    assert code == 0
    assert out.startswith("usage: ") and err == ""


def test_bad_axiom_fails_before_the_build(capsys, monkeypatch):
    from laguerre import GroupSpace

    def no_build(*args, **kwargs):
        raise AssertionError("the residual plane was built")

    monkeypatch.setattr(GroupSpace, "build", no_build)
    code, out, err = run_cli(capsys, "skewaffine", "verify", "--q", "5",
                             "--axiom", "bogus")
    assert code == 2
    assert out == ""
    assert err == "error: unknown axiom 'bogus'\n"


def test_theorems_run_builds_one_plane(capsys, monkeypatch):
    # the catalog's context builds the only plane; the bound on q is checked
    # on the field alone
    from laguerre import LaguerrePlane, verify

    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    real_init = LaguerrePlane.__init__
    built = []

    def counting_init(self, gf):
        built.append(gf)
        real_init(self, gf)

    monkeypatch.setattr(LaguerrePlane, "__init__", counting_init)
    code, out, _ = run_cli(capsys, "theorems", "run", "--q", "5", "--id", "P2.2")
    assert code == 0 and "P2.2" in out
    assert len(built) == 1
    code, out, err = run_cli(capsys, "theorems", "run", "--q", "103")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert len(built) == 1


def test_export_plane(tmp_path, capsys):
    out_file = tmp_path / "plane.json"
    code, _, _ = run_cli(capsys, "export", "--q", "3", "--what", "plane",
                         "--out", str(out_file))
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert blob["q"] == 3
    assert len(blob["points"]) == 12
    assert len(blob["circles"]) == 27
    assert blob["points"][0] == {"t": "A", "x": 0, "y": 0}


def test_export_plane_refuses_pencil(tmp_path, capsys, monkeypatch):
    from laguerre import LaguerrePlane

    def no_build(*args, **kwargs):
        raise AssertionError("the plane was built")

    monkeypatch.setattr(LaguerrePlane, "__init__", no_build)
    out_file = tmp_path / "plane.json"
    code, out, err = run_cli(capsys, "export", "--q", "5", "--what", "plane",
                             "--pencil", "p:1,2", "--out", str(out_file))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out_file.exists()


def test_export_group_round_trip(tmp_path, capsys):
    out_file = tmp_path / "group.json"
    code, _, _ = run_cli(capsys, "export", "--q", "5", "--what", "group",
                         "--out", str(out_file))
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert blob["pencil"]["K"] == [0, 0, 0]
    assert len(blob["elements"]) == 100
    assert blob["elements"] == sorted(blob["elements"])


def test_export_space(tmp_path, capsys):
    out_file = tmp_path / "space.json"
    code, _, _ = run_cli(capsys, "export", "--q", "3", "--what", "space",
                         "--out", str(out_file))
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert len(blob["lines"]) == 39
    kinds = {entry["kind"] for entry in blob["lines"]}
    assert kinds == {"circle_line", "straight_pencil", "special"}


@pytest.mark.parametrize("q", (3, 5, 7))
def test_space_export_is_the_json_of_its_payload(q):
    # the export composes its text from one encoding per point; json.dumps
    # of the whole payload is the oracle (q = 3 has twin two-point lines)
    plane = LaguerrePlane(q)
    for spec in ("canonical", "p:1,2"):
        pencil = _parse_pencil(plane, spec)
        payload = GroupSpace.build(plane, pencil, DeltaGroup.build(plane, pencil),
                                   check_preconditions=False).to_json()
        assert _space_json(payload) == _json(payload), spec


def test_export_into_missing_directory_fails_before_the_build(tmp_path, capsys,
                                                              monkeypatch):
    from laguerre import GroupSpace

    def no_build(*args, **kwargs):
        raise AssertionError("the residual plane was built")

    monkeypatch.setattr(GroupSpace, "build", no_build)
    missing = tmp_path / "nodir"
    for out in (missing / "x.json", tmp_path):
        code, stdout, err = run_cli(capsys, "export", "--q", "5", "--what", "space",
                                    "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not missing.exists()


def test_export_to_a_path_the_os_rejects_is_a_usage_error(tmp_path, capsys):
    # a file name longer than the OS allows fails in the path checks, /dev/full
    # in the write; neither is a failed check, so both exit 2 with one line
    import os
    outs = [tmp_path / ("x" * 300)]
    if os.path.exists("/dev/full"):
        outs.append("/dev/full")
    for out in outs:
        code, stdout, err = run_cli(capsys, "export", "--q", "3", "--what", "plane",
                                    "--out", str(out))
        assert code == 2, out
        assert stdout == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
        assert "Traceback" not in err


# -- the process entry point --------------------------------------------------

ROOT = Path(__file__).parent.parent


def _cold(*argv, stdout=subprocess.PIPE, unbuffered=False):
    """``python -m laguerre`` in a child, src on its path."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "laguerre", *argv], cwd=ROOT, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("argv, code", [
    (("plane", "verify", "--q", "5", "--json"), 0),
    (("group", "verify", "--q", "2", "--json"), 1),
    (("plane", "verify", "--q", "5", "--bogus"), 2),
])
def test_a_cold_command_matches_main_in_process(argv, code, capsys):
    # entry ends the process with os._exit once both streams are flushed
    proc = _cold(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)
    assert proc.returncode == code


def test_an_export_file_is_complete_at_exit(tmp_path, capsys):
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    proc = _cold("export", "--q", "5", "--what", "space", "--out", str(cold))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run_cli(capsys, "export", "--q", "5", "--what", "space", "--out", str(warm))[0] == 0
    assert cold.read_bytes() == warm.read_bytes()
    assert cold.read_bytes().endswith(b"}\n")


def test_the_project_script_is_the_entry_point():
    text = (ROOT / "pyproject.toml").read_text()
    assert 'laguerre-verify = "laguerre.cli:entry"' in text.splitlines()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_is_one_error_line(unbuffered):
    # buffered, the output fails at entry's final flush; unbuffered, in
    # _emit's print: either way one line and exit 2, as for --out
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cold("plane", "verify", "--q", "5", "--json", stdout=write_end,
                     unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write to stdout: Broken pipe\n")


def test_emit_turns_a_failed_write_into_a_usage_error(capsys, monkeypatch):
    class Closed:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    code = main(["plane", "verify", "--q", "3"])
    monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (2, "error: cannot write to stdout: Broken pipe\n")


# -- export paths ------------------------------------------------------------


def test_export_path_checks(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()

    def export(out):
        return run_cli(capsys, "export", "--q", "3", "--what", "plane", "--out", out)

    # an existing directory; a trailing slash on a missing one, whose parent
    # is the path before the last component; a missing parent; a bare name,
    # whose parent is '.'
    assert export("d") == (2, "", "error: output path 'd' is a directory\n")
    assert export("d/") == (2, "", "error: output path 'd/' is a directory\n")
    assert export("m/n/") == (2, "", "error: output directory 'm' does not exist\n")
    assert export("m/x.json") == (2, "", "error: output directory 'm' does not exist\n")
    assert export("x.json") == (0, "wrote plane for q=3 to x.json\n", "")
    assert (tmp_path / "x.json").read_text().startswith('{"circles":')


def test_a_trailing_slash_fails_before_the_build(tmp_path, capsys, monkeypatch):
    # a path ending in '/' names a directory, missing or not, never a file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text("kept")

    def no_build(*args, **kwargs):
        raise AssertionError("the plane was built")

    monkeypatch.setattr(LaguerrePlane, "__init__", no_build)
    for out in ("missing/", "f.json/"):
        code, stdout, err = run_cli(capsys, "export", "--q", "3", "--what", "plane",
                                    "--out", out)
        assert (code, stdout, err) == (2, "", f"error: cannot write {out!r}: Is a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]
    assert (tmp_path / "f.json").read_text() == "kept"
