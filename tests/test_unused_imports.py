"""Every top-level import under src/, tests/ and scripts/ is read somewhere in its module.

The scan is static (`ast`): a name counts as used when it appears as a
`Name` anywhere in the module, attribute chains included through their root.
Package `__init__` modules exist to re-export names and are skipped; the
only other re-exports are listed below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts")
# names a module imports only so that others can reach them through it
REEXPORTS = {
    "src/voronoi_cvp/experiments.py": ["randomized_straight_line", "uniform_sample"],
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_top_level_import():
    probe = "import os\nimport json.decoder as jd\nfrom math import gcd, lcm\nprint(gcd, os.sep)\n"
    assert unused_imports(probe) == ["jd", "lcm"]
    found = {}
    for d in SCANNED:
        for path in sorted((ROOT / d).rglob("*.py")):
            unused = unused_imports(path.read_text())
            if unused and path.name != "__init__.py":
                found[path.relative_to(ROOT).as_posix()] = unused
    assert found == REEXPORTS
