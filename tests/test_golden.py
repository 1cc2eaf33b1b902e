"""Byte-for-byte comparison of CLI output with committed golden files.

Each file under ``tests/golden/`` holds the exact stdout of one command, or,
for a command that takes ``--out OUT``, the file it writes.  A refactor that
keeps every verdict but changes a case count, a witness, a key or the key
order shows up here as a diff.  CI checks the q=11 goldens outside this
module (the stdout of ``theorems run``, ``skewaffine verify --axiom all``,
``plane verify`` and ``group verify --pencil p:1,2``, each with ``--q 11
--json``), and the q=13 ``*.sha256`` files, each of which holds only the
sha256 of the file that one q=13 ``export`` writes (the space, the space
on the pencil ``p:1,2`` in ``export_q13_space_p1_2.sha256`` and on
``ideal:2@K:2,1,3`` in ``export_q13_space_ideal2_K2_1_3.sha256``, the
plane, and the group on ``p:1,2``) or of the stdout of ``theorems run --q 13
--json``, ``skewaffine verify --q 13 --axiom all --json`` or ``plane
verify --q 13 --json``; ``theorems_q17.sha256``, ``skewaffine_q17.sha256``
and ``group_q17_p1_2.sha256`` pin the stdout of ``theorems run --q 17
--json``, ``skewaffine verify --q 17 --axiom all --json`` and ``group verify
--q 17 --pencil p:1,2 --json`` the same way, and ``export_q17_space.sha256``
and ``export_q17_space_p1_2.sha256`` the files that ``export --q 17 --what
space`` writes on the canonical pencil and on ``p:1,2``; ``plane_q23.sha256``
and ``group_q23_ideal2_K2_1_3.sha256`` pin the stdout of ``plane verify --q
23 --json`` and ``group verify --q 23 --pencil ideal:2@K:2,1,3 --json``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from laguerre.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"

SAMPLED = ("--budget", "sample:5000", "--seed", "7", "--json")

OUT = "<out>"  # stands for a file under tmp_path; the case compares that file

CASES = {
    "theorems_q3.json": ("theorems", "run", "--q", "3", "--json"),
    "theorems_q5.json": ("theorems", "run", "--q", "5", "--json"),
    "theorems_q7.json": ("theorems", "run", "--q", "7", "--json"),
    "theorems_q5.txt": ("theorems", "run", "--q", "5"),
    "skewaffine_q5.json": ("skewaffine", "verify", "--q", "5", "--axiom", "all",
                           "--json"),
    "skewaffine_q5_exhaustive.json": ("skewaffine", "verify", "--q", "5",
                                      "--axiom", "all", "--budget", "exhaustive",
                                      "--json"),
    **{f"skewaffine_q5_{axiom}_sample5000_seed7.json":
       ("skewaffine", "verify", "--q", "5", "--axiom", axiom, *SAMPLED)
       for axiom in ("T", "Des", "Pap")},
    "export_q5_space.json": ("export", "--q", "5", "--what", "space", "--out", OUT),
    "export_q5_space_p1_2.json": ("export", "--q", "5", "--what", "space",
                                  "--pencil", "p:1,2", "--out", OUT),
    "export_q5_group.json": ("export", "--q", "5", "--what", "group", "--out", OUT),
    "export_q3_space.json": ("export", "--q", "3", "--what", "space", "--out", OUT),
    "export_q3_plane.json": ("export", "--q", "3", "--what", "plane", "--out", OUT),
    "group_q5.json": ("group", "verify", "--q", "5", "--json"),
    "group_q5_p1_2.json": ("group", "verify", "--q", "5", "--pencil", "p:1,2",
                           "--json"),
    "group_q5_ideal2_K2_1_3.json": ("group", "verify", "--q", "5", "--pencil",
                                    "ideal:2@K:2,1,3", "--json"),
    "plane_q5.json": ("plane", "verify", "--q", "5", "--json"),
    "plane_q7.json": ("plane", "verify", "--q", "7", "--json"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, tmp_path):
    out_file = tmp_path / name
    argv = [str(out_file) if arg == OUT else arg for arg in CASES[name]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if OUT in CASES[name]:
        out = out_file.read_text(encoding="utf-8")
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["theorems_q3.json", "skewaffine_q5.json"])
def test_cli_output_matches_golden_under_python_O(name):
    # python -O strips assert statements; every invariant the verdicts rest
    # on must be a raised error, so the output may not change
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-O", "-m", "laguerre", *CASES[name]],
                         capture_output=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / name).read_bytes()
