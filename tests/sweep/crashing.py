"""A sweep scenario whose worker dies, for the engine's failure tests.

``run_crashing`` runs a small ``scale`` cell, except that the cell whose
``flows`` equals ``crash_at`` hard-kills its worker process
(``os._exit``) while the file ``armed`` exists.  The ``crashing``
fixture in ``conftest.py`` adds it to ``SCENARIOS`` with ``monkeypatch``;
pool workers see the row because they fork from the patched process.
"""

import os
import time

from repro.sidecar.flowtable import run_scale
from repro.sweep.spec import SweepSpec

SEED = 11
BASE = {"tenants": 2, "duration_s": 0.1}
FLOWS = [10, 20, 30, 40]


def run_crashing(*, crash_at: int, armed: str, **params) -> dict:
    if params["flows"] == crash_at and os.path.exists(armed):
        time.sleep(0.3)  # let the siblings' results reach the parent
        os._exit(13)
    return run_scale(**params)


def crash_spec(armed) -> SweepSpec:
    """Four cells; the last one kills its worker while ``armed`` exists."""
    return SweepSpec.from_dict({
        "name": "crash", "scenario": "crashing", "seed": SEED,
        "base": {**BASE, "crash_at": FLOWS[-1], "armed": str(armed)},
        "grid": {"flows": FLOWS}})


def clean_spec() -> SweepSpec:
    """The same four cells as plain ``scale`` cells: nothing dies."""
    return SweepSpec.from_dict({
        "name": "clean", "scenario": "scale", "seed": SEED,
        "base": BASE, "grid": {"flows": FLOWS}})
