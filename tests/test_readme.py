import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "False"
    assert out[1].startswith("[81, 924, 3794, ")
    # d of the last order-10 tree: d_0 .. d_8, with d_0 = n - 1
    assert len(namespace["d"]) == 9
    assert namespace["d"][0] == 9
