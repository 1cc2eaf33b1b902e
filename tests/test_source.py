"""Rules on the package source itself."""

import ast
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "laguerre"


def test_invariants_raise_typed_errors_not_asserts():
    # python -O strips assert statements, so an invariant of the engine must
    # raise a typed GeometryError instead
    # and so must the tests' oracles, which the python -O step runs too
    modules = sorted(SRC.glob("*.py")) + [Path(__file__).parent / "oracles.py"]
    assert len(modules) > 1
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_imports_another_modules_private_name():
    # a name another module of the package needs is public; a leading
    # underscore marks what only its own module may use
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom) and node.level >= 1
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_the_residual_build_reads_the_group_only_as_permutations():
    # skewaffine reads Δ as its generators' permutations, its order and its
    # join oracle: no stabilizer scan, no translation list, no single-point
    # image, and the element list only inside len(...).  The group supplies
    # the closed form, so skewaffine does no field arithmetic: no %, no
    # divmod, and no field or canonical coordinates
    tree = ast.parse((SRC / "skewaffine.py").read_text())
    sized = {id(node.args[0]) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "len" and node.args}
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and node.attr in ("stabilizer", "translations", "image", "elements")]
    assert [f"{node.lineno} {node.attr}" for node in reads
            if node.attr != "elements" or id(node) not in sized] == []
    assert any(node.attr == "elements" for node in reads)  # the guard sees the order

    def arithmetic(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            return "%"
        if isinstance(node, ast.Name) and node.id == "divmod":
            return "divmod"
        if isinstance(node, ast.Attribute) and node.attr in (
                "gf", "canonical_index", "_canonical_index"):
            return node.attr
        return None

    assert [f"{node.lineno} {name}" for node in ast.walk(tree)
            if (name := arithmetic(node))] == []
    assert any(isinstance(node, ast.Attribute) and node.attr == "join_oracle"
               for node in ast.walk(tree))  # the guard sees the oracle


def test_only_the_plane_turns_circle_ids_into_masks():
    # one point encoding per layer: the plane keeps each circle's point ids
    # and alone ORs them into masks; the bit loop mask_image is retired
    found, plane_reads = [], 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (getattr(node, "name", None) or getattr(node, "id", None)
                    or getattr(node, "attr", None))
            if name == "mask_image":
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} mask_image")
            elif name == "circle_ids" and path.name != "plane.py":
                found.append(f"{path.name}:{node.lineno} circle_ids")
            plane_reads += name == "circle_ids" and path.name == "plane.py"
    assert found == []
    assert plane_reads  # the guard sees the encoding where it lives


def test_the_residual_space_stores_each_line_and_position_once():
    # the line through i and j is _byclass[i][_joinclass[i][j]], so no
    # module names the retired per-pair copy _linepts_minus; a residual
    # point's position is _local at its plane index, not a dict ``index``
    from laguerre import DeltaGroup, GroupSpace, LaguerrePlane, canonical_pencil
    found = [f"{path.name}:{getattr(node, 'lineno', '?')}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if "_linepts_minus" in (getattr(node, "name", None), getattr(node, "id", None),
                                     getattr(node, "attr", None))]
    assert found == []
    plane = LaguerrePlane(3)
    pencil = canonical_pencil(plane)
    space = GroupSpace.build(plane, pencil, DeltaGroup.build(plane, pencil))
    assert space._byclass and not hasattr(space, "index")


def test_the_command_line_imports_without_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, about half of a
    # cold command's import time, and pathlib urllib.parse, ipaddress and
    # fnmatch; -S keeps site packages out of the count
    probe = ("import sys, laguerre.cli; "
             "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_only_the_entry_point_calls_os_exit():
    # os._exit skips every finally and buffer flush: one function, the
    # process's entry point, calls it, after flushing both streams
    found, entry_calls = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_exit":
                where = (path.name, owner.get(id(node)))
                entry_calls += where == ("cli.py", "entry")
                if where != ("cli.py", "entry"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert entry_calls == 1  # the guard sees the one call


def test_the_catalog_reads_the_group_as_whole_permutations():
    # verify reads Δ as permutations, circle lists, orbits and the group's
    # own lists: no single-point ``image`` and no Point/Circle ``apply``,
    # which is gone, as is the catalog's own translation list
    from laguerre import DeltaGroup, verify
    reads = [node for node in ast.walk(ast.parse((SRC / "verify.py").read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("apply", "image", "perm")]
    assert [f"{node.lineno} {node.attr}" for node in reads if node.attr != "perm"] == []
    assert any(node.attr == "perm" for node in reads)  # the guard sees the reads
    assert not hasattr(DeltaGroup, "apply")
    assert not hasattr(verify._Ctx, "translations")


def test_only_the_plane_builds_its_certified_maps():
    # each layer has one certificate, read by every reduction above it: the
    # plane alone builds maps from closed forms (certified_maps), except the
    # normalizer DeltaGroup.build composes; the catalog rebuilds none, and
    # the retired unit_maps and certify stay gone
    from laguerre import GroupSpace, verify
    builders = {"circle_add_map", "inversion_map", "from_aut"}
    found, normalizer_calls = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (getattr(node.func, "id", None)
                                               or getattr(node.func, "attr", None)) in builders:
                where = (path.name, owner.get(id(node)))
                normalizer_calls += where == ("autgroup.py", "build")
                if path.name != "plane.py" and where != ("autgroup.py", "build"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert normalizer_calls  # the guard sees the normalizer's calls
    assert not hasattr(verify._Ctx, "unit_maps")
    assert not hasattr(GroupSpace, "certify")


# every error code the package raised when the guard below was written: it
# must still see each of them, so it cannot pass with nothing to check
_CODES = frozenset({
    "a1a2_failed", "a3_violated", "bad_axiom", "bad_check", "char2_group",
    "char2_square_class", "div_zero", "generators_not_closed", "identical_circles",
    "join_degenerate", "join_mismatch", "normalizer_mismatch", "not_a_circle",
    "not_a_point", "not_automorphism", "not_equivariant", "not_on_circle", "not_prime",
    "not_transitive", "on_circle", "out_of_range", "parallel_points",
    "pencil_member_mismatch", "pencil_not_fixed", "point_on_base_generator",
    "stabilizer_mismatch", "stabilizer_on_base", "touching_circle_mismatch",
    "translations_not_closed", "translations_not_regular"})


def test_every_error_code_is_named_by_a_test():
    # each constant ``code=`` keyword, and the code each ``require_reach``
    # call is given, appears as a string in some other test file
    codes = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.keyword) and node.arg == "code"
                    and isinstance(node.value, ast.Constant)):
                codes.add(node.value.value)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "require_reach"):
                codes.add(node.args[3].value)
    named = {node.value for path in sorted(Path(__file__).parent.glob("test_*.py"))
             if path.name != Path(__file__).name
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert codes >= _CODES
    assert sorted(codes - named) == []


# -- the package is what a command runs ---------------------------------------

# the functions no command calls, each with its reason
_UNCALLED = {
    "cli.entry": "it ends the process; the subprocess tests of test_cli run it",
    "autgroup.DeltaGroup.canonical": "the benchmark's tracer reads it (perfbench/child.py)",
    "skewaffine.GroupSpace.census": "the benchmark's tracer reads it (perfbench/child.py)",
    "plane.PointIndex.__missing__": "it rejects a point off the plane on the Python API",
    "plane.not_a_point": "the error that rejection raises",
}


def _functions() -> dict[tuple[str, int], str]:
    """Each module-level function and method of the package, keyed by its
    file name and first line (its first decorator's, as in ``co_firstlineno``).
    A function nested in another is part of that function's body."""
    found = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(path, child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path.name, first] = f"{path.stem}.{prefix}{child.name}"

    for path in sorted(SRC.glob("*.py")):
        visit(path, ast.parse(path.read_text(), str(path)), "")
    return found


def _matrix(tmp: Path) -> tuple[list[list[str]], list[list[str]]]:
    """Every command at q = 2, 3 and 5, as text and JSON, at three pencils,
    four budgets and three exports; and inputs that must exit 2."""
    pencils = ("canonical", "p:1,2", "ideal:2@K:2,1,0")
    budgets = ((), ("--budget", "orbit"), ("--budget", "exhaustive"),
               ("--budget", "sample:3", "--seed", "1"))
    runs = []
    for q in ("2", "3", "5"):
        for as_json in ((), ("--json",)):
            runs.append(["plane", "verify", "--q", q, *as_json])
            runs += [["group", "verify", "--q", q, "--pencil", p, *as_json] for p in pencils]
            runs += [["skewaffine", "verify", "--q", q, "--axiom", "all", *b, *as_json]
                     for b in budgets]
            runs.append(["theorems", "run", "--q", q, *as_json])
        runs.append(["export", "--q", q, "--what", "plane", "--out", str(tmp / f"plane{q}")])
        runs += [["export", "--q", q, "--what", what, "--pencil", p,
                  "--out", str(tmp / f"{what}{q}{i}")]
                 for what in ("group", "space") for i, p in enumerate(pencils)]
    (tmp / "link").symlink_to(tmp / "missing" / "x.json")
    bad = [["plane", "verify", "--q", "9"], ["theorems", "run", "--q", "9"],
           ["group", "verify", "--q", "4"], ["skewaffine", "verify", "--q", "4", "--axiom", "V"],
           ["skewaffine", "verify", "--q", "5", "--axiom", "X"],
           ["theorems", "run", "--q", "5", "--id", "X9.9"],
           ["group", "verify", "--q", "5", "--pencil", "p:1"],
           ["group", "verify", "--q", "5", "--pencil", "p:1,2@K:0,0,0"],
           ["skewaffine", "verify", "--q", "5", "--axiom", "T", "--budget", "sample:0"],
           ["plane", "verify", "--q", "5", "--bogus"],
           ["export", "--q", "3", "--what", "plane", "--pencil", "canonical",
            "--out", str(tmp / "x")]]
    bad += [["export", "--q", "3", "--what", "plane", "--out", out]
            for out in (str(tmp), str(tmp / "missing" / "x.json"), str(tmp / "missing") + "/",
                        str(tmp / ("x" * 300)), str(tmp / "link"))]
    return runs, bad


def test_every_function_of_the_package_is_called_by_some_command(tmp_path, monkeypatch):
    # the matrix runs in process under a profiler that records each code
    # object it enters, with the catalog's context cache empty; a function
    # it never enters is one no command runs, so it belongs in the tests
    from laguerre import cli, verify
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    runs, bad = _matrix(tmp_path)

    class Closed:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    entered = set()
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in runs + bad]
            with contextlib.redirect_stdout(Closed()):
                codes.append(cli.main(["plane", "verify", "--q", "3"]))
    finally:
        sys.setprofile(previous)
    assert codes[len(runs):] == [2] * (len(bad) + 1)
    assert {0, 1} <= set(codes[:len(runs)])
    files = {m.__file__ for name, m in sys.modules.items()
             if name.startswith("laguerre.") and getattr(m, "__file__", None)}
    called = {(Path(code.co_filename).name, code.co_firstlineno) for code in entered
              if code.co_filename in files}
    functions = _functions()
    assert len(functions) > 150 and len(_UNCALLED) <= 5  # the guard sees the package
    assert sorted(name for key, name in functions.items() if key not in called) == \
        sorted(_UNCALLED)


def test_the_benchmark_finds_every_name_it_reads():
    # perfbench/child.py spans the CLI's calls into the package by patching
    # these names, and reads canonical and census() off what they return;
    # perfbench/baseline.py imports its names from the package, and both
    # build the space with check_preconditions=False.  install() patches the
    # classes for good, so the probe runs in a child interpreter
    root = Path(__file__).parent.parent
    bench = root / "perfbench"
    patched = sorted(f"{ast.unparse(node.args[0])}.{node.args[1].value}"
                     for node in ast.walk(ast.parse((bench / "child.py").read_text()))
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "patch")
    assert patched == [
        "autgroup.DeltaGroup.build", "autgroup.DeltaGroup.verify_axioms",
        "plane.LaguerrePlane.__init__", "plane.LaguerrePlane.verify_axioms",
        "skewaffine.GroupSpace.build", "skewaffine.GroupSpace.check_axiom",
        "skewaffine.GroupSpace.to_json", "verify.thm_check"]
    imported = sorted(alias.name for node in ast.walk(ast.parse((bench / "baseline.py").read_text()))
                      if isinstance(node, ast.ImportFrom) and node.module == "laguerre"
                      for alias in node.names)
    probe = f"""
import json, sys
sys.path.insert(0, {str(bench)!r})
from child import Tracer, install
import laguerre
tracer = Tracer("probe")
install(tracer)
from laguerre import DeltaGroup, GroupSpace, LaguerrePlane, canonical_pencil, verify
missing = [name for name in {imported!r} if not hasattr(laguerre, name)]
plane = LaguerrePlane(3)
plane.verify_axioms()
pencil = canonical_pencil(plane)
delta = DeltaGroup.build(plane, pencil)
delta.verify_axioms()
space = GroupSpace.build(plane, pencil, delta, check_preconditions=False)
space.check_axiom("V")
space.to_json()
verify.thm_check("P2.1", 3)
print(json.dumps({{"missing": missing, "spans": tracer.spans}}))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                    text=True, check=True).stdout)
    assert out["missing"] == []
    spans = {span["name"]: span for span in out["spans"]}
    assert sorted(spans) == ["autgroup.build", "autgroup.verify_axioms", "plane.build",
                             "plane.verify_axioms", "skewaffine.build",
                             "skewaffine.check_axiom", "skewaffine.to_json",
                             "verify.thm_check"]
    assert spans["autgroup.build"]["canonical"] is True
    assert spans["skewaffine.build"]["lines"] == 39
