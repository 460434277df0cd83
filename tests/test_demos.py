"""Every demo and README's quick start runs, and each committed CSV under
demos/demo_out/ is what its demo writes now.

The demos run from copies in a temporary directory, so they write their
demo_out/ there and the committed files are only read.
"""
import runpy
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
WRITES = {
    "02_wigner_interference.py": "wigner_grid.csv",
    "03_cat_decoherence.py": "cat_trace.csv",
    "04_energy_diffusion.py": "diffusion.csv",
    "05_wkb_density_matrix.py": "elements.csv",
}


def run_demo(tmp_path, demo):
    script = shutil.copy(DEMOS / demo, tmp_path / demo)
    runpy.run_path(str(script), run_name="__main__")


@pytest.mark.parametrize("demo", sorted(
    p.name for p in DEMOS.glob("*.py") if p.name not in WRITES))
def test_demo_runs(tmp_path, demo):
    run_demo(tmp_path, demo)


@pytest.mark.parametrize("demo", sorted(WRITES))
def test_demo_csv_matches_committed(tmp_path, demo):
    run_demo(tmp_path, demo)
    name = WRITES[demo]
    assert ((tmp_path / "demo_out" / name).read_bytes()
            == (DEMOS / "demo_out" / name).read_bytes()), (
        f"{demo} now writes a different {name}: rerun it, commit "
        f"demos/demo_out/{name} and name the cause of each moved row")


def test_readme_quick_start_runs():
    # the quick start is the public surface README promises
    text = (ROOT / "README.md").read_text()
    section = text.split("## Quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
