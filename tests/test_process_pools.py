"""Worker processes are started in one place: the shared sweep driver.

``repro bench --jobs N`` and ``repro simulate --jobs N`` shard through
:func:`repro.resilience.sweep.run_units`, which owns checkpointing,
supervision and the telemetry merge.  A second process pool elsewhere
would bypass all three, so no other module may import
``concurrent.futures``.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
SWEEP_DRIVER = PACKAGE / "resilience" / "sweep.py"


def _imports_concurrent_futures(path: Path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module]
            if node.module == "concurrent":
                modules += [f"concurrent.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m.split(".")[:2] == ["concurrent", "futures"] for m in modules):
            return True
    return False


def test_only_the_sweep_driver_imports_concurrent_futures():
    offenders = sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        if path != SWEEP_DRIVER and _imports_concurrent_futures(path)
    )
    assert offenders == []


def test_sweep_driver_is_seen_by_the_scan():
    # Guards the scan itself: if it stopped recognizing the import, the
    # test above would pass vacuously.
    assert _imports_concurrent_futures(SWEEP_DRIVER)
