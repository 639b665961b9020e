"""Each narrative demo runs to completion against the current engine API.

``self_distillation.py`` is left out for its run time (about 17 s); the
JLSD path it narrates is covered by ``test_jlsd.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpex

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "demo", ["crf_inference", "gradient_checking", "phrase_ranking", "supervised_training"]
)
def test_demo_exits_cleanly(demo, tmp_path):
    path = [str(Path(kpex.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
