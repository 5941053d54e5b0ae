"""Shared infrastructure for the paper-reproduction benchmarks.

Profiles
--------
The pure-Python engine is 10-100x slower than the paper's C++, so each
harness has three size profiles, selected with ``REPRO_PROFILE``:

* ``quick``   — smoke sizes, seconds total;
* ``default`` — scaled-down sizes preserving every trend (the default);
* ``paper``   — the paper's own bit-widths where pure Python can carry
  them (Mastrovito up to GF(2^233), Montgomery up to GF(2^163));
  budget tens of minutes.

The table harnesses pin ``engine="reference"``: its ``peak_terms`` is
the paper's memory proxy for gate-granular Algorithm 1.  Every
extraction runs its output bits one after another in this process (the
paper uses 16 threads).

Every harness prints its rows in the format of the corresponding table
in the paper and appends them to ``results/``.
"""

from __future__ import annotations

import os
import pathlib
from typing import List


PROFILE = os.environ.get("REPRO_PROFILE", "default")

if PROFILE not in ("quick", "default", "paper"):
    raise RuntimeError(f"unknown REPRO_PROFILE {PROFILE!r}")

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def sizes(quick: List, default: List, paper: List) -> List:
    """Pick the experiment sizes for the active profile."""
    return {"quick": quick, "default": default, "paper": paper}[PROFILE]


def emit(name: str, text: str) -> None:
    """Print a finished table and persist it under results/."""
    banner = f"\n{'=' * 72}\n{name}  [profile={PROFILE}]\n{'=' * 72}"
    print(banner)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{name}  [profile={PROFILE}]\n\n")
        handle.write(text)
        handle.write("\n")

