"""Shared helpers: seeded random arrangements, an independent profiler and a
fresh-interpreter runner."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import triplelines
from triplelines.field import make_field
from triplelines.incidence import Arrangement
from triplelines.projective import enumerate_lines, enumerate_points, incident


def random_arrangement(F, s, rng):
    lines = rng.sample(enumerate_lines(F), s)
    return Arrangement(F, lines)


def brute_force_tvec(A):
    """Oracle profile: scan every plane point and count incident lines."""
    tvec = {}
    for P in enumerate_points(A.field):
        m = sum(1 for L in A.lines if incident(P, L))
        if m >= 2:
            tvec[m] = tvec.get(m, 0) + 1
    return tvec


def brute_force_best_triples(F, s, metric="exact3"):
    """Oracle maximum: enumerate every s-subset of plane lines."""
    lines = enumerate_lines(F)
    best = -1
    for combo in itertools.combinations(range(len(lines)), s):
        tvec = brute_force_tvec(Arrangement(F, [lines[i] for i in combo]))
        if metric == "exact3":
            count = tvec.get(3, 0)
        else:
            count = sum(t for k, t in tvec.items() if k >= 3)
        if count > best:
            best = count
    return best


def run_python(code):
    """Stdout of `python -c code` in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(triplelines.__file__).parent.parent)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src)).stdout


@pytest.fixture(scope="session")
def gf2():
    return make_field(2)


@pytest.fixture(scope="session")
def gf3():
    return make_field(3)


@pytest.fixture(scope="session")
def gf4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def gf5():
    return make_field(5)


@pytest.fixture()
def rng():
    return random.Random(20140423)
