"""The demos run to the end without raising.

demos/04_delay_sweep.py is left out: it is run_sweep at reduced scale (about
6 s), and test_golden.py already runs that path at a larger scale.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    ["01_weight_schedules.py", "02_trust_region_projection.py", "03_guided_regeneration.py"],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
