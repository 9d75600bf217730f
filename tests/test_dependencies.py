"""The package runs on the standard library alone (``dependencies = []``)."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import thetaquad.cli
top = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(top - set(sys.stdlib_module_names) - {"thetaquad", "__main__"})))
"""


def test_cli_imports_only_the_standard_library():
    # -S skips site, so no site-packages directory is on the path at all.
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert json.loads(out) == []
