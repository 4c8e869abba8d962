"""Import-layering contracts.

The paper's algorithms and the service/fleet/topology stack built on
them sit below the experiment harness: importing them must not drag
in ``repro.harness`` (the result store, sweeps, figure runners) or
``networkx`` (only the topology builders that need graph algorithms
load it on demand). Checked in a fresh interpreter so modules other
tests already imported cannot hide a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro, repro.service, repro.service.fleet, repro.topo
print(" ".join(sorted(
    name for name in sys.modules
    if name == "networkx" or name.startswith(("networkx.", "repro.harness"))
)))
"""


def test_service_stack_does_not_import_harness_or_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []
