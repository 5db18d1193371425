"""The bundled systems of ``triplex/data``, for the test suites.

Each data file is loaded once, at import, through ``cli.load_system``:
the JSON files are the one copy of every bundled system.
"""

from __future__ import annotations

from pathlib import Path

from .cli import load_system
from .lts import TripleSystem

_LOADED = {path.stem: load_system(path)
           for path in sorted((Path(__file__).parent / "data").glob("*.json"))}


def s2():
    """The two-dimensional system with [e,f,e] = 2e and [e,f,f] = -2f."""
    return _LOADED["s2"]


def abelian(d):
    """All products zero."""
    return TripleSystem(d, tuple(f"a{i}" for i in range(d)), {})


def sl2_lie():
    """sl(2) in the basis (h, e, f)."""
    return _LOADED["sl2"]


def sl2_lts():
    """sl(2) viewed as a triple system via [[x,y],z]."""
    return _LOADED["sl2_lts"]


def sl3_transpose_lts():
    """The 5-dimensional system of symmetric traceless 3x3 matrices."""
    return _LOADED["sl3_sym"]


def s2_plus_s2():
    return _LOADED["s2_plus_s2"]


SYSTEMS = {
    "s2": s2,
    "sl2_lts": sl2_lts,
    "sl3_sym": sl3_transpose_lts,
    "abelian3": lambda: _LOADED["abelian3"],
    "s2_plus_s2": s2_plus_s2,
}
