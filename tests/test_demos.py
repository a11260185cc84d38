"""Smoke test: every script under demos/ and the README's library snippet run.

Each demo is copied to a temporary directory first, because demos write
their outputs next to themselves.
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def _run(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    script = tmp_path / name
    shutil.copy(os.path.join(ROOT, "demos", name), script)
    _run(script, tmp_path)


def test_readme_library_snippet_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```python\n") + len("```python\n")
    script = tmp_path / "readme_snippet.py"
    script.write_text(text[start:text.index("```", start)])
    _run(script, tmp_path)
