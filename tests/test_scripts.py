import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# each script with tiny arguments, so the smoke run takes a second or two
_SCRIPTS = {
    "dominance_demo": ["--replicates", "500", "--horizon", "16", "--n", "9"],
    "scaling_table": ["--alphas", "0", "0.9", "--horizons", "16", "64", "--samples", "9", "36"],
}


@pytest.mark.parametrize("name", sorted(_SCRIPTS))
def test_script_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *_SCRIPTS[name]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
