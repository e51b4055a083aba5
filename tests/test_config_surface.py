"""The configuration surface equals what is documented and pinned.

Every ``IFAQ_*`` / ``REPRO_*`` name the program or the benchmarks read
appears in their source as a whole string constant (``os.environ.get(
"IFAQ_EXECUTOR")``); docstrings and comments that merely mention a name
never match as a whole constant.  A knob added without a README row, or
a README row left behind after its knob is removed, fails here.  The
serving layer's exports and ``AggregateService``'s keywords are pinned
the same way, so an option added back fails until this file lists it.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import repro.serving
from repro.serving import AggregateService

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


def test_serving_surface_is_pinned():
    assert set(repro.serving.__all__) == {
        "AggregateRequest", "AggregateService", "DEFAULT_SERVICE_WORKERS",
        "DatabaseNotRegistered", "DeadlineExceeded", "FingerprintStats",
        "GroupByRequest", "MAX_VIEWS_PER_DB", "MultiGroupByRequest",
        "QueueFull", "Request", "ServiceStats", "predicate_key",
    }
    params = inspect.signature(AggregateService.__init__).parameters
    assert set(params) - {"self"} == {
        "backend", "kernel_cache", "layout", "max_workers", "executor",
        "coalesce", "fuse", "default_deadline", "max_queue_depth",
        "queue_policy",
    }
    # Test scaffolding (the fault harness, value comparison) lives
    # under tests/; the package never reaches back into it.
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in {"tests", "faults", "compare"}, (
                    f"{path.relative_to(ROOT)} imports {module}"
                )
