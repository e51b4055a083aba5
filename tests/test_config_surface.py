"""The environment-variable surface equals README's documented table.

Every ``IFAQ_*`` / ``REPRO_*`` name the program or the benchmarks read
appears in their source as a whole string constant (``os.environ.get(
"IFAQ_EXECUTOR")``); docstrings and comments that merely mention a name
never match as a whole constant.  A knob added without a README row, or
a README row left behind after its knob is removed, fails here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_NAME = re.compile(r"(?:IFAQ|REPRO)_[A-Z0-9_]+")


def env_names_in_source() -> set[str]:
    names = set()
    for top in ("src", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            names.update(
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ENV_NAME.fullmatch(node.value)
            )
    return names


def env_names_in_readme() -> set[str]:
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    names = set()
    for line in lines[lines.index("## Environment variables") + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("| `"):
            names.update(ENV_NAME.findall(line.split("|")[1]))
    return names


def test_env_names_match_readme_table():
    assert env_names_in_source() == env_names_in_readme()
