"""The narrative demos run to the end and print their headline results.

Each demo runs in-process as ``__main__``, exactly as ``python3 demos/<name>``
would run it.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name, headlines",
    [
        ("01_three_regimes.py", ["verdict: FastConvergence", "verdict: SlowConvergence",
                                 "verdict: Divergence"]),
        ("02_block_structure.py", ["step 1: strongest over-demanding zero block",
                                   "rows (0, 1) x cols (3, 4, 5)", "lambda = 2.4",
                                   "tight under a' -> True"]),
        ("03_restart_acceleration.py", ["restarted run reaches 1e-6 at step",
                                        "per-cell geometric rate fit"]),
        ("04_stochastic_products.py", ["telescoping family", "alternating pair T0/T1",
                                       "consensus: every row of the final product"]),
    ],
)
def test_demo_runs_and_prints_its_headlines(name, headlines, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    for text in headlines:
        assert text in out, text
