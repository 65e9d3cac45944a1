"""The campaign path loads neither numpy nor scipy.

scipy takes about a second and ~80 MB to import, and only the
fingerprint range model and ``wilson_interval`` call it; both import it
on first use.  Every ``repro-dsav`` process and spawned shard worker
imports the modules below, so a module-level scipy import there would
cost each of them that second again.
"""

import os
import subprocess
import sys

CAMPAIGN_MODULES = (
    "repro.cli",
    "repro.core.pipeline",
    "repro.campaigns.supervisor",
    "repro.obs.journal",
)


def test_campaign_modules_import_neither_numpy_nor_scipy():
    script = (
        "import importlib, sys\n"
        f"for name in {CAMPAIGN_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    assert out.strip() == "[]"
