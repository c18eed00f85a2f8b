"""README's library quick start, run as written.

Run as a script, ``python tests/test_readme.py`` imports ``qfround`` from
wherever the interpreter finds it, such as an installed package.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def run_quick_start() -> dict:
    """Run README's one python block and return the names it binds."""
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace: dict = {}
    exec(block, namespace)
    return namespace


def test_library_quick_start_gives_the_values_its_comments_state():
    namespace = run_quick_start()
    allocation = namespace["allocation"]
    p1 = allocation.by_project()["p1"]
    assert allocation.k == 2.0
    assert (p1.m_actual, p1.f_actual) == (1.0, 3.0)
    assert namespace["lambda_p"](namespace["p1"], k=2.0) == 4 / 3


if __name__ == "__main__":
    test_library_quick_start_gives_the_values_its_comments_state()
