"""The README's library quick start runs as written."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    trace = namespace["trace"]
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        str(trace.gap_final / namespace["problem"].f_star),
        f"{trace.delta_hat} {trace.assumption_clean}",
    ]
    assert np.isfinite(namespace["bound"]) and namespace["bound"] > 0.0
