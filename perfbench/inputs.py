"""Seeded benchmark inputs and their known answers.

Everything here runs outside the timed worker process: the netlists
are generated once per seed, written as EQN files, and described by a
``manifest.json`` that carries each request's known answer.

The known answers come from an oracle that does not use the code under
test: clean designs answer with the polynomial that generated them, and
mutants are judged by bit-parallel ``Netlist.simulate`` against
:func:`oracle.mulmod` (exhaustive for m <= 8, random
vectors otherwise).  The oracle also predicts what Algorithm 2 must
recover from a mutant: the ANF coefficient of ``a_{m-j} b_j`` in output
``z_i`` is the XOR of four simulations, so the out-field membership mask
is known without rewriting a gate.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.fieldmath.irreducible import iter_irreducible_pentanomials
from repro.gen.faults import FaultError, random_fault
from repro.gen.mastrovito import generate_mastrovito
from repro.netlist.eqn_io import write_eqn
from repro.netlist.netlist import Netlist, NetlistError
from repro.synth.pipeline import synthesize

from oracle import golden, is_irreducible, poly_str, simulate_pairs

#: Bump when the generated inputs change, so stale per-seed input
#: directories are regenerated instead of reused.
INPUTS_SCHEMA = 4

#: Field sizes of the cold ladder (full run / smoke run).
LADDER = (32, 48, 64)
SMOKE_LADDER = (8, 12, 16)

#: Field size of the ECO baseline (full run / smoke run).
ECO_M = 64
SMOKE_ECO_M = 16

#: Triage fleet: (field size, stratum) slots.  Strata are properties
#: of the input that the oracle measures:
#:
#: * ``clean``     -- an unmodified multiplier;
#: * ``reducible`` -- a mutant whose out-field membership mask is a
#:   reducible polynomial;
#: * ``caught``    -- a mutant with an irreducible mask that already
#:   disagrees with A*B mod P(x) at a = 0 for some b < 64 (the first
#:   row of the 64 x 64 low-operand window);
#: * ``missed``    -- a mutant with an irreducible mask that agrees with
#:   A*B mod P(x) on every operand pair below 64 and disagrees only
#:   when an operand has bit 6 or 7 set.
#:
#: Fixing the count per stratum keeps a fleet's cost the same from
#: seed to seed; the seed still picks the polynomials and the faults.
TRIAGE_FLEET = (
    (8, "clean"), (12, "clean"), (16, "clean"),
    (12, "reducible"), (16, "reducible"),
    (12, "caught"), (16, "caught"),
    (8, "missed"),
)
SMOKE_TRIAGE_FLEET = (
    (8, "clean"), (12, "reducible"), (12, "caught"),
)

#: Operand window a, b < WINDOW: the low-operand region the strata
#: above are defined on.
WINDOW = 64

#: Random operand pairs per mutant check when m is too large to be
#: exhaustive.
RANDOM_VECTORS = 4096

#: Faults drawn per stratum slot before the generator gives up.
MAX_FAULT_DRAWS = 2000


# ----------------------------------------------------------------------
# Bit-parallel oracle
# ----------------------------------------------------------------------

def membership_mask(netlist: Netlist, m: int) -> int:
    """P(x) that Algorithm 2 must recover from ``netlist``.

    Bit i is set when every out-field product ``a_{m-j} b_j`` has ANF
    coefficient 1 in output ``z_i``; that coefficient is the XOR of the
    outputs at (0, 0), (x^{m-j}, 0), (0, x^j) and (x^{m-j}, x^j).
    """
    lhs, rhs = [], []
    for j in range(1, m):
        for a, b in ((0, 0), (1 << (m - j), 0), (0, 1 << j),
                     (1 << (m - j), 1 << j)):
            lhs.append(a)
            rhs.append(b)
    z = simulate_pairs(netlist, m, np.array(lhs), np.array(rhs))
    coefficients = z.reshape(m - 1, 4)
    coefficients = (
        coefficients[:, 0] ^ coefficients[:, 1]
        ^ coefficients[:, 2] ^ coefficients[:, 3]
    )
    mask = (1 << m) - 1
    for value in coefficients:
        mask &= int(value)
    return (1 << m) | mask


def check_vectors(m: int, rng: random.Random) -> Tuple[np.ndarray, np.ndarray]:
    """Exhaustive operand pairs for m <= 8, random ones otherwise."""
    if m <= 8:
        grid = np.arange(1 << m, dtype=np.int64)
        return np.repeat(grid, 1 << m), np.tile(grid, 1 << m)
    top = 1 << m
    lhs = np.array([rng.randrange(top) for _ in range(RANDOM_VECTORS)])
    rhs = np.array([rng.randrange(top) for _ in range(RANDOM_VECTORS)])
    return lhs, rhs


def window_first_mismatch(
    netlist: Netlist, m: int, modulus: int
) -> Optional[int]:
    """Row-major index of the first low-operand pair that disagrees
    with A*B mod ``modulus``, or None."""
    size = min(1 << m, WINDOW)
    grid = np.arange(size, dtype=np.int64)
    lhs, rhs = np.repeat(grid, size), np.tile(grid, size)
    bad = np.nonzero(
        simulate_pairs(netlist, m, lhs, rhs) != golden(lhs, rhs, modulus)
    )[0]
    return int(bad[0]) if len(bad) else None


def judge_mutant(
    netlist: Netlist, m: int, modulus: int, rng: random.Random
) -> Optional[Dict[str, object]]:
    """Known answer and stratum of a mutant, or None to drop it.

    A mutant is dropped when no check vector shows it differs from the
    clean design, or when it fits no stratum.
    """
    lhs, rhs = check_vectors(m, rng)
    observed = simulate_pairs(netlist, m, lhs, rhs)
    if not np.any(observed != golden(lhs, rhs, modulus)):
        return None
    recovered = membership_mask(netlist, m)
    if not is_irreducible(recovered):
        return {
            "stratum": "reducible",
            "verdict": "reducible-polynomial",
            "polynomial": poly_str(recovered),
        }
    if not np.any(observed != golden(lhs, rhs, recovered)):
        return None  # no observed mismatch against its own P(x)
    first = window_first_mismatch(netlist, m, recovered)
    if first is None:
        stratum = "missed"
    elif first < min(1 << m, WINDOW):
        stratum = "caught"
    else:
        return None
    return {
        "stratum": stratum,
        "verdict": "not-equivalent",
        "polynomial": poly_str(recovered),
        "modulus": recovered,
    }


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def pick_polynomial(m: int, rng: random.Random) -> int:
    """A seeded irreducible pentanomial x^m + x^c + x^b + x^a + 1.

    Middle exponents stay below m/4 (and below 8 for small m), which
    keeps the gate count of a ladder rung nearly the same from seed to
    seed.
    """
    ceiling = max(8, m // 4)
    candidates = []
    for poly in iter_irreducible_pentanomials(m):
        if poly.bit_length() - 1 != m:
            continue
        if (poly ^ (1 << m)).bit_length() - 1 >= ceiling:
            break
        candidates.append(poly)
    if not candidates:
        raise ValueError(f"no irreducible pentanomial of degree {m}")
    return rng.choice(candidates)


def nand_multiplier(modulus: int) -> Netlist:
    """NAND-mapped Mastrovito multiplier (the harshest mapped form)."""
    return synthesize(generate_mastrovito(modulus), use_xor_cells=False)


def absorb_edit(eqn: str, output: str, operand: str, tag: str) -> str:
    """``z -> AND(z', OR(z', operand))`` on EQN text: same function, a
    new structure in exactly one output cone."""
    inner = f"{output}_{tag}_pre"
    either = f"{output}_{tag}_or"
    lines = eqn.splitlines(keepends=True)
    for index, line in enumerate(lines):
        if line.startswith(f"{output} = "):
            lines[index] = inner + line[len(output):]
            lines.insert(
                index + 1,
                f"{either} = OR({inner}, {operand})\n"
                f"{output} = AND({inner}, {either})\n",
            )
            return "".join(lines)
    raise ValueError(f"no gate drives {output}")


def _write(netlist: Netlist, path: Path) -> str:
    write_eqn(netlist, path)
    return path.name


def build_ladder(out: Path, seed: int, sizes: Sequence[int]) -> dict:
    rng = random.Random(f"ladder:{seed}")
    requests = []
    for m in sizes:
        modulus = pick_polynomial(m, rng)
        requests.append({
            "file": _write(nand_multiplier(modulus), out / f"ladder_m{m}.eqn"),
            "m": m,
            "verdict": "equivalent",
            "polynomial": poly_str(modulus),
        })
    return {"requests": requests}


def build_eco(out: Path, seed: int, m: int, edits: int) -> dict:
    rng = random.Random(f"eco:{seed}")
    # One baseline polynomial for every seed: a fresh edit re-parses and
    # re-strashes the whole netlist, and the baseline polynomial moved
    # its cost by up to 20% from seed to seed.  The seed picks the edits.
    modulus = pick_polynomial(m, random.Random("eco-baseline"))
    baseline = _write(nand_multiplier(modulus), out / "baseline.eqn")
    text = (out / baseline).read_text(encoding="utf-8")
    pairs = [(z, a) for z in range(m) for a in range(m)]
    rng.shuffle(pairs)
    requests = []
    for index, (z, a) in enumerate(pairs[:edits]):
        name = f"edit_{index:03d}.eqn"
        (out / name).write_text(
            absorb_edit(text, f"z{z}", f"a{a}", f"eco{index}"),
            encoding="utf-8",
        )
        requests.append({
            "file": name,
            "m": m,
            "cone": f"z{z}",
            "verdict": "equivalent",
            "polynomial": poly_str(modulus),
        })
    return {
        "baseline": {
            "file": baseline,
            "m": m,
            "verdict": "equivalent",
            "polynomial": poly_str(modulus),
        },
        "requests": requests,
    }


def build_triage(out: Path, seed: int, fleet: Sequence[Tuple[int, str]]) -> dict:
    rng = random.Random(f"triage:{seed}")
    clean: Dict[int, Tuple[int, Netlist]] = {}
    for m in sorted({m for m, _ in fleet}):
        modulus = pick_polynomial(m, rng)
        clean[m] = (modulus, nand_multiplier(modulus))
    requests = []
    for slot, (m, stratum) in enumerate(fleet):
        modulus, design = clean[m]
        name = f"triage_{slot:02d}_m{m}_{stratum}.eqn"
        if stratum == "clean":
            requests.append({
                "file": _write(design, out / name),
                "m": m,
                "stratum": stratum,
                "verdict": "verified-multiplier",
                "polynomial": poly_str(modulus),
            })
            continue
        for _ in range(MAX_FAULT_DRAWS):
            try:
                mutant, _ = random_fault(design, seed=rng.randrange(1 << 30))
            except (FaultError, NetlistError):
                continue
            answer = judge_mutant(mutant, m, modulus, rng)
            if answer is not None and answer["stratum"] == stratum:
                break
        else:
            raise RuntimeError(
                f"seed {seed}: no {stratum} mutant at m={m} in "
                f"{MAX_FAULT_DRAWS} draws"
            )
        requests.append(dict(
            answer, file=_write(mutant, out / name), m=m,
        ))
    return {"requests": requests}


def ensure_inputs(
    work: Path, kind: str, seed: int, smoke: bool = False, edits: int = 0,
) -> Tuple[Path, dict]:
    """The input directory and manifest of ``kind`` for ``seed``.

    Inputs are reused when an earlier run generated them for the same
    seed (cold-bitpack and cold-fused share one ladder).
    """
    name = f"{kind}{'-smoke' if smoke else ''}-s{seed}"
    if kind == "eco":
        name += f"-e{edits}"
    out = work / "inputs" / name
    manifest_path = out / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("schema") == INPUTS_SCHEMA:
            return out, manifest
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if kind == "ladder":
        manifest = build_ladder(out, seed, SMOKE_LADDER if smoke else LADDER)
    elif kind == "eco":
        manifest = build_eco(out, seed, SMOKE_ECO_M if smoke else ECO_M, edits)
    elif kind == "triage":
        manifest = build_triage(
            out, seed, SMOKE_TRIAGE_FLEET if smoke else TRIAGE_FLEET
        )
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    manifest["schema"] = INPUTS_SCHEMA
    manifest["seed"] = seed
    tmp = manifest_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    os.replace(tmp, manifest_path)
    return out, manifest
