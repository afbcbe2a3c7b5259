"""The README's Python examples run as written, in order, in one namespace,
and its energy-management replay of the first formation event reproduces
the flexible run's first 36 steps bit for bit."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_replay_the_first_event(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    monkeypatch.chdir(tmp_path)          # the first example saves a case
    ns: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)

    flex, win, part = ns["flex"], ns["win"], ns["part"]
    steps = slice(0, 36)
    for name in ("served_kw", "pv_used_kw", "committed", "energized"):
        want, got = getattr(flex, name)[steps], getattr(win, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    gfm = [flex.gfm_ids.index(o.gfm_node_id) for o in part.orders]
    assert np.array_equal(win.soc_kwh, flex.soc_kwh[steps, gfm])
