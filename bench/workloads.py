"""Workload inputs, made from the benchmark seed.

Everything here is plain Python so that the parent process (run.py) never
imports the package: the program only ever sees the files and arguments built
below, and it sees them in a fresh interpreter per pass (see child.py).

Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import json
import random

TOL = 1e-8  # the CLI's --tol-residual, also the accuracy_digits tolerance

# n = 3 tube of radius 1 around a circle of length 1; only the angle varies
def _model(angle: float) -> str:
    return json.dumps({"n": 3, "angle": angle, "tube_radius": 1.0,
                       "cross_section": {"kind": "circle", "length": 1.0}})


# sweep: COUNT angles from a jittered START to STOP over the default
# 20-mode circle spectrum, both families (40 mode systems per angle)
SWEEP_STOP = 6.0
SWEEP_COUNT = 16
SWEEP_CHECKED = 4  # seeded sample of swept angles; pass k checks the k-th

# deform: three tensor modes; scalar (0, 0) carries the angle deformation
# itself, scalar (0, -1) and co-closed (0, 2) feel the angle through p*gamma.
# The seven-component kind-A block is left out: it would triple the pass
# and leave room for too few passes per run on a noisy two-core machine.
DEFORM_MODES = ({"type": "scalar", "lambda": 0.0, "p": 0},
                {"type": "scalar", "lambda": 0.0, "p": -1},
                {"type": "coclosed", "mu": 0.0, "p": 2})
DEFORM_ANGLES = (0.8, 1.2)
# boundary components given seeded data, per tensor block kind
_BOUNDARY_NAMES = {"B": ("f", "g", "h", "k1"),
                   "C": ("sigma_bar", "eta_bar")}

VERIFY_CASES = 3


def _modes_file(modes) -> str:
    return json.dumps({
        "scalar": [{"lambda": m["lambda"], "p": m["p"]}
                   for m in modes if m["type"] == "scalar"],
        "coclosed": [{"mu": m["mu"], "p": m["p"]}
                     for m in modes if m["type"] == "coclosed"],
        "tt": []})


def _common(out: str) -> list:
    return ["--out", out, "--tol-residual", repr(TOL), "--jobs", "1"]


def make_spec(workload: str, seed: int, tiny: bool = False) -> dict:
    """Inputs, CLI argument lists and check data for one run.

    ``{dir}`` in an argument or file name stands for the pass's own
    directory.  ``tiny`` shrinks every input for the self-test.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        start = 0.5 + 0.1 * rng.random()
        count = 2 if tiny else SWEEP_COUNT
        checked = sorted(rng.sample(range(count), 1 if tiny else SWEEP_CHECKED))
        return {
            "workload": workload, "seed": seed, "tol": TOL,
            "files": {"model.json": _model(start)},
            "commands": [["--model", "{dir}/model.json"] + _common("{dir}/out")
                         + ["indicial", "--family", "both", "--angle-sweep",
                            repr(start), repr(SWEEP_STOP), str(count)]],
            "check": {"start": start, "stop": SWEEP_STOP, "count": count,
                      "angles": checked},
            "modes": 20,
        }
    if workload == "deform":
        lo, hi = DEFORM_ANGLES
        alpha = lo + (hi - lo) * rng.random()
        modes = DEFORM_MODES[:1] if tiny else DEFORM_MODES
        boundary = []
        for mode in modes:
            values = {nm: [rng.uniform(-1, 1), rng.uniform(-1, 1)]
                      for nm in _BOUNDARY_NAMES["C" if mode["type"] == "coclosed" else "B"]}
            boundary.append({"mode": mode, "values": values})
        return {
            "workload": workload, "seed": seed, "tol": TOL,
            "files": {"model.json": _model(alpha),
                      "modes.json": _modes_file(modes),
                      "boundary.json": json.dumps(boundary)},
            "commands": [
                ["--model", "{dir}/model.json", "--modes", "{dir}/modes.json"]
                + _common("{dir}/out") + ["deform-angle"],
                ["--model", "{dir}/model.json"] + _common("{dir}/out")
                + ["induced-metric", "--boundary-file", "{dir}/boundary.json"],
            ],
            "check": {"modes": len(modes)},
            "modes": len(modes),
        }
    if workload == "verify":
        cases = 1 if tiny else VERIFY_CASES
        return {
            "workload": workload, "seed": seed, "tol": TOL,
            "files": {"model.json": _model(1.0)},
            "commands": [["--model", "{dir}/model.json"] + _common("{dir}/out")
                         + ["--seed", str(seed), "verify", "--cases", str(cases)]],
            "check": {},
            "modes": 0,
        }
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep", "deform", "verify")
