"""The README's library tour runs and its stated results hold."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                         flags=re.S)
    names = {}
    exec(compile(tour, str(README), "exec"), names)
    path, cpath = names["path"], names["cpath"]
    assert [bp.tau for bp in path.breakpoints] == [6.0, 2.0, 0.0]
    np.testing.assert_array_equal(path.eval_at(4.0), [1.0, 0.0])
    assert len(cpath.breakpoints[0].multipliers) == 1
    np.testing.assert_allclose(cpath.breakpoints[0].multipliers, [-1.5],
                               rtol=0, atol=1e-12)
    top = names["top"]
    assert [bp.tau for bp in top.breakpoints] == [50.0]
    np.testing.assert_allclose(top.breakpoints[0].multipliers, [23.0],
                               rtol=0, atol=1e-12)
