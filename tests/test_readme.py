"""The Python example in README.md runs and agrees with itself."""
import re

from numpy.testing import assert_allclose

from conftest import NETLIB_DIR

ROOT = NETLIB_DIR.parents[1]


def test_readme_python_example(monkeypatch):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["record"].status == "Optimal"
    # Both routes solve data/netlib/afiro.mps to its certified optimum.
    assert_allclose(namespace["objective"], namespace["record"].objective,
                    rtol=1e-6)
    assert_allclose(namespace["objective"], -4.6475314286e2, rtol=1e-5)
