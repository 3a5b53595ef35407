"""The README's module table names exactly the package's modules."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_module_table_lists_every_module():
    text = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `ivt\.(\w+)` \|", text, flags=re.MULTILINE)
    modules = {path.stem for path in (ROOT / "src" / "ivt").glob("*.py")} - {"__init__"}
    assert len(rows) == len(set(rows)), "a module has two rows"
    assert set(rows) == modules
