import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def listing(directory: Path) -> list[tuple[str, int]]:
    """Name and modification time of every entry, so an overwrite shows too."""
    return sorted((path.name, path.stat().st_mtime_ns) for path in directory.iterdir())


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = listing(demo.parent)
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert listing(demo.parent) == before  # demos write only into the working directory
