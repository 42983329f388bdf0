"""Pin the hash of `scripts/seeded_outputs.py`.

A change that must not alter behaviour leaves this hash as it is; a change
that alters seeded outputs on purpose updates the pin and says so.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = "dd9834c681fcff8d3c3182238d5c65377183d10d15787d222b8942dfe460913b"


def test_seeded_outputs_hash_is_pinned():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "seeded_outputs.py")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300, check=True,
    )
    assert proc.stdout.strip() == PINNED
