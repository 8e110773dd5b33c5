"""The README's python blocks run as written."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_block_after(marker: str) -> dict:
    """Execute the first python block after `marker`; return its namespace."""
    section = README.read_text(encoding="utf-8").split(marker, 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_readme_quick_start_runs(capsys):
    namespace = _run_block_after("## Library quick start")
    trace = namespace["trace"]
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        str(trace.gap_final / namespace["problem"].f_star),
        f"{trace.delta_hat} {trace.assumption_clean}",
    ]
    assert np.isfinite(namespace["bound"]) and namespace["bound"] > 0.0


def test_readme_custom_problem_runs(capsys):
    # cost closures that take only the vector run through `run`
    namespace = _run_block_after("A custom problem's closures take the vector alone:")
    trace, problem = namespace["trace"], namespace["problem"]
    f_min = problem.global_cost(namespace["targets"].mean(axis=0))
    assert capsys.readouterr().out.split() == [str(trace.f_final), str(f_min)]
    assert len(trace.rows) > 1 and problem.feasible(trace.x_final)
    assert f_min <= trace.f_final < f_min + 1e-3
