"""Start-up stays free of ``decimal`` and ``fractions``.

``fractions`` alone takes about 2 ms to import, against a library set-up of
about 24 ms (perfbench's ``setup_s``), so the library loads either module only where it needs exact
decimal arithmetic: non-integer aggregation weights, a Foster settle. These
tests run fresh interpreters (``python -I``): one per benchmark workload,
doing what ``perfbench/setup_probe.py`` does with that workload's seed-1
inputs, and one per preset ``evaluate``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gen  # noqa: E402

REPORT = "import json; print(json.dumps(sorted({'decimal', 'fractions'} & set(sys.modules))))"


def loaded(script: str, stdin: str = "") -> list[str]:
    """The exact-arithmetic modules a fresh interpreter holds after ``script``."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys\n{script}\n{REPORT}"],
        input=stdin, capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_the_set_up_probe_loads_neither(workload):
    inputs = gen.generate(workload, 1)
    payload = json.dumps({
        "presets": inputs["presets"],
        "configs": gen.config_texts(inputs),
        "metrics": inputs["metrics"],
    })
    probe = PERFBENCH / "setup_probe.py"
    script = (
        "import runpy\n"
        f"probe = runpy.run_path({str(probe)!r})\n"
        f"sys.argv = [{str(probe)!r}, {str(SRC)!r}]\n"
        "assert probe['main']() == 0"
    )
    assert loaded(script, payload) == []


@pytest.mark.parametrize("preset", ["cake", "fishermen"])
def test_evaluate_on_a_preset_loads_neither(preset):
    script = (
        "import contextlib, io\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from fairalloc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['evaluate', '--preset', {preset!r}]) == 0"
    )
    assert loaded(script) == []
